"""Output checks computed apart from markopt.

Each checker reads one run directory (configs, markings, results tables and
summaries) as plain JSON and CSV and recomputes what the program claims with
its own code: a Viterbi program for sign chains, numpy torus geometry for
grains, balls and links, and a bitmask enumeration for small windows.  None
of them imports markopt.  A checker raises CheckFailed with the first
violation it finds.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-9
GEOM_TOL = 1e-12  # markopt's overlap tolerance: grains overlap when d < r_i + r_j - GEOM_TOL


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _expect_close(actual: float, expected: float, what: str) -> None:
    _require(_close(actual, expected), f"{what} is {actual}, expected {expected}")


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _rep(out_dir: str, sub: str, k: int) -> dict:
    return _json(os.path.join(out_dir, sub, f"rep_{k:05d}.json"))


def _rows(out_dir: str, name: str, policy: str) -> dict[int, dict]:
    """Rows of a results table for one policy, keyed by replicate."""
    out = {}
    with open(os.path.join(out_dir, name), newline="") as fh:
        for row in csv.DictReader(fh):
            if row["policy"] == policy:
                out[int(row["replicate"])] = {
                    "total": float(row["total_score"]),
                    "admissible": row["admissible"] == "True",
                    "n_points": int(row["n_points"]),
                }
    return out


def _optimized_totals(out_dir: str) -> dict[int, float]:
    traces = _json(os.path.join(out_dir, "optimize_summary.json"))["traces"]
    return {t["replicate"]: t["final_total"] for t in traces}


def _opt(cfg: dict, tag: str) -> list:
    return [p["opt"][tag] for p in cfg["points"]]


def _base(cfg: dict, tag: str) -> np.ndarray:
    return np.array([p["base"][tag] for p in cfg["points"]], dtype=float)


def _positions(cfg: dict) -> np.ndarray:
    d = cfg["window"]["d"]
    return np.array([p["pos"] for p in cfg["points"]], dtype=float).reshape(-1, d)


def torus_distances(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances on the periodic cube."""
    delta = np.abs(a[:, None, :] - b[None, :, :])
    delta = np.minimum(delta, side - delta)
    return np.sqrt((delta**2).sum(axis=2))


def _replicates(spec: dict) -> range:
    return range(spec["replicates"])


# ---------------------------------------------------------------------------
# sign chains


def _sign_value(sign: str, w_plus: float, w_minus: float) -> float:
    return w_plus if sign == "+" else w_minus if sign == "-" else 0.0


def viterbi_optimum(weights: np.ndarray) -> float:
    """Best total of a sign chain: the last site ends in 0, + or -, and a
    plus never sits next to a minus."""
    zero, plus, minus = 0.0, weights[0, 0], weights[0, 1]
    for w_plus, w_minus in weights[1:]:
        zero, plus, minus = (
            max(zero, plus, minus),
            max(zero, plus) + w_plus,
            max(zero, minus) + w_minus,
        )
    return float(max(zero, plus, minus))


def _chain_total(signs: list[str], weights: np.ndarray, label: str) -> float:
    for k in range(len(signs) - 1):
        _require({signs[k], signs[k + 1]} != {"+", "-"}, f"{label}: opposite signs at {k}, {k + 1}")
    return sum(_sign_value(s, *weights[k]) for k, s in enumerate(signs))


def check_chain(out_dir: str, spec: dict) -> None:
    """Exact totals equal the Viterbi optimum; optimized markings are
    admissible, not improvable by one sign change and never above it."""
    exact_rows = _rows(out_dir, "results_exact.csv", "exact")
    oracle_rows = _rows(out_dir, "results.csv", "oracle:wr-chain")
    optimized = _optimized_totals(out_dir)
    for k in _replicates(spec):
        weights = _base(_rep(out_dir, "configs", k), "weights")
        _require(len(weights) == spec["window"]["n"], f"replicate {k}: {len(weights)} sites")
        best = viterbi_optimum(weights)
        exact_total = _chain_total(_opt(_rep(out_dir, "exact", k), "sign"), weights, f"exact {k}")
        _expect_close(exact_total, best, f"score of exact marking {k}")
        _expect_close(exact_rows[k]["total"], best, f"exact total {k}")
        _expect_close(oracle_rows[k]["total"], best, f"oracle total {k}")
        signs = _opt(_rep(out_dir, "marked", k), "sign")
        total = _chain_total(signs, weights, f"optimized {k}")
        _expect_close(optimized[k], total, f"optimized total {k}")
        limit = best + REL_TOL * max(1.0, best)
        _require(total <= limit, f"optimized {k}: {total} > optimum {best}")
        for i, s in enumerate(signs):
            neighbours = {signs[j] for j in (i - 1, i + 1) if 0 <= j < len(signs)}
            for alt in "0+-":
                if alt == s or (alt != "0" and ("-" if alt == "+" else "+") in neighbours):
                    continue
                gain = _sign_value(alt, *weights[i]) - _sign_value(s, *weights[i])
                _require(gain <= 0.0, f"optimized {k}: site {i} gains {gain} from {s} -> {alt}")


# ---------------------------------------------------------------------------
# hard-core grains


def _grain_volume(dim: int, radius: float) -> float:
    return 2.0 * radius if dim == 1 else math.pi * radius * radius


def _grains(cfg: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii, pairwise torus distances (inf on the diagonal) and radius sums."""
    radii = _base(cfg, "grain")
    pos = _positions(cfg)
    dist = torus_distances(pos, pos, cfg["window"]["L"])
    np.fill_diagonal(dist, np.inf)
    return radii, dist, radii[:, None] + radii[None, :]


def _retained_total(dim: int, radii: np.ndarray, keep) -> float:
    return sum(_grain_volume(dim, r) for r, kept in zip(radii, keep) if kept)


def check_grains(out_dir: str, spec: dict) -> None:
    """Retained grains are disjoint, every discarded grain overlaps a retained
    one (the k_max >= 1 certificate), totals are sums of grain volumes, and the
    neutral and all-retain policies score what the geometry says."""
    dim = spec["window"]["d"]
    optimized = _optimized_totals(out_dir)
    search_rows = _rows(out_dir, "results.csv", "local-search")
    neutral_rows = _rows(out_dir, "results.csv", "neutral")
    retain_rows = _rows(out_dir, "results.csv", "all-retain")
    for k in _replicates(spec):
        cfg = _rep(out_dir, "configs", k)
        radii, dist, sums = _grains(cfg)
        keep = np.array(_opt(_rep(out_dir, "marked", k), "retain"), dtype=bool)
        _require(len(keep) == len(radii), f"replicate {k}: {len(keep)} marks, {len(radii)} points")
        kept = np.ix_(keep, keep)
        disjoint = (dist[kept] >= sums[kept] - REL_TOL).all()
        _require(disjoint, f"optimized {k}: retained grains overlap")
        discarded, retained = np.ix_(~keep, keep)
        blocked = (dist[discarded, retained] < sums[discarded, retained] + REL_TOL).any(axis=1)
        _require(blocked.all(), f"optimized {k}: a discarded grain overlaps no retained grain")
        total = _retained_total(dim, radii, keep)
        _expect_close(optimized[k], total, f"optimized total {k}")
        _expect_close(search_rows[k]["total"], total, f"local-search total {k}")
        neutral = neutral_rows[k]["total"]
        _require(neutral == 0.0, f"neutral total {k} is {neutral}")
        clash = bool((dist < sums - GEOM_TOL).any())
        admissible = retain_rows[k]["admissible"]
        _require(admissible != clash, f"all-retain {k}: admissible {admissible}, overlap {clash}")
        if not clash:
            full = _retained_total(dim, radii, [True] * len(radii))
            _expect_close(retain_rows[k]["total"], full, f"all-retain total {k}")
    summary = _json(os.path.join(out_dir, "estimate_summary.json"))
    _require(summary["neutral"]["mean"] == 0.0, f"neutral mean is {summary['neutral']['mean']}")


def bitmask_optimum(cfg: dict) -> float:
    """Best retained volume over all 2^n retention subsets without overlap."""
    radii, dist, sums = _grains(cfg)
    n = len(radii)
    if n == 0:
        return 0.0
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1 == 1
    feasible = np.ones(2**n, dtype=bool)
    for i, j in zip(*np.nonzero(np.triu(dist < sums - GEOM_TOL))):
        feasible &= ~(bits[:, i] & bits[:, j])
    volumes = np.array([_grain_volume(cfg["window"]["d"], r) for r in radii])
    return float((bits[feasible] @ volumes).max())


def check_brute(out_dir: str, spec: dict) -> None:
    """Grain checks, plus: exact totals equal the bitmask optimum and no
    local-search total exceeds it."""
    check_grains(out_dir, spec)
    dim = spec["window"]["d"]
    exact_rows = _rows(out_dir, "results_exact.csv", "exact")
    oracle_rows = _rows(out_dir, "results.csv", "oracle:brute")
    search_rows = _rows(out_dir, "results.csv", "local-search")
    for k in _replicates(spec):
        cfg = _rep(out_dir, "configs", k)
        best = bitmask_optimum(cfg)
        radii, dist, sums = _grains(cfg)
        keep = np.array(_opt(_rep(out_dir, "exact", k), "retain"), dtype=bool)
        _require(
            not (dist[np.ix_(keep, keep)] < sums[np.ix_(keep, keep)] - GEOM_TOL).any(),
            f"exact marking {k} retains overlapping grains",
        )
        marked = _retained_total(dim, radii, keep)
        _expect_close(marked, best, f"score of exact marking {k}")
        _expect_close(exact_rows[k]["total"], best, f"exact total {k}")
        _expect_close(oracle_rows[k]["total"], best, f"oracle total {k}")
        limit = best + REL_TOL * max(1.0, best)
        _require(search_rows[k]["total"] <= limit, f"local-search total {k} exceeds optimum {best}")


# ---------------------------------------------------------------------------
# lilypond balls


def check_lilypond(out_dir: str, spec: dict) -> None:
    """Certified radii are disjoint balls at the touch fixed point
    r_i = min_j max(d_ij / 2, d_ij - r_j), and every total is 0."""
    exact_rows = _rows(out_dir, "results_exact.csv", "exact")
    oracle_rows = _rows(out_dir, "results.csv", "oracle:lilypond")
    for k in _replicates(spec):
        cfg = _rep(out_dir, "configs", k)
        pos = _positions(cfg)
        radii = np.array(_opt(_rep(out_dir, "exact", k), "radius"), dtype=float)
        n = len(radii)
        _require(n == len(pos), f"replicate {k}: {n} radii for {len(pos)} points")
        dist = torus_distances(pos, pos, cfg["window"]["L"])
        np.fill_diagonal(dist, np.inf)
        gap = dist - (radii[:, None] + radii[None, :])
        _require(gap.min() >= -REL_TOL, f"lilypond {k}: balls overlap by {-gap.min()}")
        touch = np.maximum(dist / 2.0, dist - radii[None, :]).min(axis=1)
        residual = float(np.abs(radii - touch).max())
        _require(residual <= REL_TOL, f"lilypond {k}: fixed-point residual {residual}")
        for label, rows in (("exact", exact_rows), ("oracle", oracle_rows)):
            total = rows[k]["total"]
            _require(abs(total) <= n * REL_TOL, f"lilypond {label} total {k} is {total}, not 0")


# ---------------------------------------------------------------------------
# Aloha access probabilities


def aloha_coupling(cfg: dict, beta: float) -> np.ndarray:
    """a[i, j] = 1 / (1 + |X_i - receiver_j|^beta), 0 on the diagonal."""
    side = cfg["window"]["L"]
    pos = _positions(cfg)
    receivers = (pos + _base(cfg, "offset").reshape(pos.shape)) % side
    a = 1.0 / (1.0 + torus_distances(pos, receivers, side) ** beta)
    np.fill_diagonal(a, 0.0)
    return a


def aloha_total(coupling: np.ndarray, probs: np.ndarray) -> float:
    """Window total: sum_i log p_i + sum_{j != i} log(1 - p_j a[j, i])."""
    return float(np.log(probs).sum() + np.log1p(-probs[:, None] * coupling).sum())


def check_aloha(out_dir: str, spec: dict) -> None:
    """Every probability is stationary for its separable share (or 1 with a
    non-negative slope), and every total beats each constant probability on
    a 0.05 grid."""
    beta = spec["model"]["beta"]
    exact_rows = _rows(out_dir, "results_exact.csv", "exact")
    oracle_rows = _rows(out_dir, "results.csv", "oracle:aloha")
    for k in _replicates(spec):
        cfg = _rep(out_dir, "configs", k)
        a = aloha_coupling(cfg, beta)
        probs = np.array(_opt(_rep(out_dir, "exact", k), "prob"), dtype=float)
        _require(len(probs) == len(a), f"replicate {k}: {len(probs)} marks, {len(a)} links")
        slope = 1.0 / probs - (a / (1.0 - probs[:, None] * a)).sum(axis=1)
        stationary = (np.abs(slope) <= 1e-6) | ((probs == 1.0) & (slope >= 0.0))
        _require(stationary.all(), f"aloha {k}: slopes {slope[~stationary][:3]} at p < 1")
        total = exact_rows[k]["total"]
        _expect_close(total, aloha_total(a, probs), f"aloha exact total {k}")
        oracle = oracle_rows[k]["total"]
        _require(oracle == total, f"aloha oracle total {k} is {oracle}, exact {total}")
        for p in np.arange(1, 21) * 0.05:
            constant = aloha_total(a, np.full(len(a), p))
            _require(
                total >= constant - REL_TOL * max(1.0, abs(constant)),
                f"aloha {k}: constant p={p:.2f} scores {constant} > {total}",
            )
