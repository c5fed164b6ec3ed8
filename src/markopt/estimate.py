"""Monte Carlo estimation of score intensities and stabilization ranges.

Replicates are driven by counter-based substreams, so estimates are
reproducible for a given seed regardless of thread count or evaluation
order.  Alongside the intensity estimators this module carries the
spatial-average consistency checks (mass transport style identities that
equate a per-point score sum with a volume integral) and samplers of the
hardcore and Aloha stabilization radii.
"""

from __future__ import annotations

import csv
import math
import json
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import exact
from .core import (
    GEOM_TOL,
    AccessProb,
    Configuration,
    GrainRadius,
    ItemSet,
    PartnerIndex,
    Retain,
    UnsupportedModelError,
    ValidationError,
    Window,
    _replace_points,
    check_field_names,
    check_field_types,
    is_admissible,
    load_configuration,
    pairwise_torus_linf,
    positions_array,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    substream_id,
    torus_cross_distances,
    torus_distance_linf,
)
from .models import (
    ScoreModel,
    WidomRowlinsonModel,
    aloha_attenuation,
    aloha_receivers,
    grain_contacts,
    _base_mark,
    _opt_mark,
)
from .optimize import SearchParams, SearchTrace, local_search, total_window_score

_GEN_STREAM = 11
_MARK_STREAM = 12
_SEARCH_STREAM = 13
_COVER_STREAM = 14
_SAMPLE_CHUNK = 1 << 15  # Monte Carlo locations drawn per batch


# ---------------------------------------------------------------------------
# marking policies


@dataclass(frozen=True)
class Policy:
    """How replicate configurations get their marks before scoring."""

    name: str  # all-retain | neutral | random-iid | local-search | oracle
    oracle: str | None = None
    search: SearchParams | None = None

    def __post_init__(self) -> None:
        if self.name not in ("all-retain", "neutral", "random-iid", "local-search", "oracle"):
            raise ValidationError(f"unknown policy {self.name!r}")
        if self.name == "oracle":
            if self.oracle not in exact.ROUTES:
                raise ValidationError(
                    f"oracle policy needs a target from {tuple(exact.ROUTES)}, got {self.oracle!r}"
                )
        elif self.oracle is not None:
            raise ValidationError(f"policy {self.name!r} takes no oracle target")

    @property
    def label(self) -> str:
        return f"oracle:{self.oracle}" if self.name == "oracle" else self.name


def search_params_from_json(obj: object) -> SearchParams:
    if obj is None:
        return SearchParams()
    if not isinstance(obj, dict):
        raise ValidationError(f"search parameters must be an object, got {type(obj).__name__}")
    check_field_names(SearchParams, obj, "search parameters")
    check_field_types(SearchParams, obj, "search parameter")
    return SearchParams(**obj)


def parse_policy(obj: object) -> Policy:
    if isinstance(obj, str):
        if obj.startswith("oracle:"):
            return Policy("oracle", oracle=obj.split(":", 1)[1])
        return Policy(obj)
    if isinstance(obj, dict):
        check_field_names(Policy, obj, "policy fields")
        name = obj.get("name")
        if not isinstance(name, str):
            raise ValidationError("policy needs a string name")
        search = search_params_from_json(obj["search"]) if "search" in obj else None
        return Policy(name, oracle=obj.get("oracle"), search=search)
    raise ValidationError(f"policy must be a string or object, got {type(obj).__name__}")


def sample_configuration(
    model: ScoreModel, window: Window, intensity: float | None, seed: int, replicate: int
) -> Configuration:
    """Replicate input process: Poisson with iid base marks on cubes, one
    point per site with iid base marks on graph windows."""
    if window.kind == "cube":
        if intensity is None:
            raise ValidationError("cube windows need an intensity")
        return sample_poisson_configuration(
            window,
            intensity,
            model.kind,
            model.default_base_sampler(window),
            seed,
            _GEN_STREAM,
            replicate,
        )
    if not isinstance(model, WidomRowlinsonModel):
        raise ValidationError(f"graph windows only carry sign models, got {model.kind}")
    if window.kind == "line":
        return sample_weighted_line(
            window.n_sites, seed, _GEN_STREAM, replicate, lo=model.weight_lo, hi=model.weight_hi
        )
    return sample_weighted_tree(
        window.depth, seed, _GEN_STREAM, replicate, lo=model.weight_lo, hi=model.weight_hi
    )


def search_replicate(
    c: Configuration, model: ScoreModel, params: SearchParams, seed: int, replicate: int
) -> tuple[Configuration, SearchTrace]:
    """Local search on one replicate, seeded from the replicate's own substream."""
    params = replace(params, seed=substream_id(seed, _SEARCH_STREAM, replicate))
    return local_search(c, model, params)


def apply_policy(
    c: Configuration, model: ScoreModel, policy: Policy, seed: int, replicate: int
) -> Configuration:
    n = c.n_points
    if policy.name == "all-retain":
        if model.kind != "hardcore":
            raise ValidationError("all-retain only applies to retention marks")
        return c.with_opt_marks({i: Retain(True) for i in range(n)})
    if policy.name == "neutral":
        neutral = model.neutral_mark()
        if neutral is None:
            raise ValidationError(f"{model.kind} has no neutral mark")
        return c.with_opt_marks({i: neutral for i in range(n)})
    if policy.name == "random-iid":
        g = rng(seed, _MARK_STREAM, replicate)
        return c.with_opt_marks({i: model.sample_mark(c, i, g) for i in range(n)})
    if policy.name == "local-search":
        return search_replicate(c, model, policy.search or SearchParams(), seed, replicate)[0]
    assert policy.name == "oracle"
    try:
        return exact.oracle_marking(c, model, policy.oracle)[0]
    except ValidationError:
        if policy.oracle != "matching" or model.kind != "matching":
            raise
        # unbalanced colors: no perfect matching, surface as inadmissible
        return c.with_opt_marks({i: PartnerIndex(-1) for i in range(n)})


# ---------------------------------------------------------------------------
# replicated intensity estimates


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    seed: int
    n_points: int
    total_score: float
    admissible: bool
    elapsed_ms: float


@dataclass(frozen=True)
class IntensityEstimate:
    """Mean score per unit volume with its sampling error.

    Inadmissible replicates are excluded from the mean and reported as a
    fraction; the confidence interval is the usual 1.96 sigma band.
    """

    mean: float
    stderr: float
    ci95: tuple[float, float]
    replicates: int
    inadmissible_fraction: float


def map_replicates(worker: Callable[[int], object], replicates: int, threads: int) -> list:
    """worker(k) for each replicate k in order, on a thread pool if threads > 1."""
    if threads == 1:
        return [worker(k) for k in range(replicates)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(replicates)))


def scored_record(
    marked: Configuration, model: ScoreModel, replicate: int, seed: int, start: float
) -> ReplicateRecord:
    """Record of one replicate's marking, timed from the perf_counter reading start."""
    total = total_window_score(marked, model)
    elapsed = (time.perf_counter() - start) * 1e3
    return ReplicateRecord(replicate, seed, marked.n_points, total, is_admissible(total), elapsed)


def _stored_marking(path: str, c: Configuration) -> Configuration | None:
    """The marking in file path, sharing c's derived cache, if the file has the
    window, model, points and base marks of the unmarked c."""
    try:
        m = load_configuration(path)
    except ValidationError:
        return None
    unmarked = m.with_opt_marks(dict.fromkeys(range(m.n_points)))
    return _replace_points(c, m.points) if unmarked == c else None


def run_replicate(
    model: ScoreModel,
    window: Window,
    policy: Policy,
    intensity: float | None,
    seed: int,
    replicate: int,
    c: Configuration | None = None,
    stored: str | None = None,
) -> ReplicateRecord:
    """Score one replicate under one policy.  c is its configuration if already sampled;
    stored names a file with the policy's marking of it, used if it marks c."""
    start = time.perf_counter()
    if c is None:
        c = sample_configuration(model, window, intensity, seed, replicate)
    marked = _stored_marking(stored, c) if stored else None
    if marked is None:
        marked = apply_policy(c, model, policy, seed, replicate)
    return scored_record(marked, model, replicate, seed, start)


def run_replicates(
    model: ScoreModel,
    window: Window,
    policy: Policy,
    intensity: float | None = None,
    replicates: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> list[ReplicateRecord]:
    if replicates < 0:
        raise ValidationError(f"replicates must be >= 0, got {replicates}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    model.validate_for_window(window)

    def worker(k: int) -> ReplicateRecord:
        return run_replicate(model, window, policy, intensity, seed, k)

    return map_replicates(worker, replicates, threads)


def summarize_records(records: list[ReplicateRecord], window: Window) -> IntensityEstimate:
    volume = window.volume
    values = [r.total_score / volume for r in records if r.admissible]
    total = len(records)
    if not values:
        nan = float("nan")
        return IntensityEstimate(nan, nan, (nan, nan), total, 1.0 if total else 0.0)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return IntensityEstimate(
        mean=mean,
        stderr=stderr,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        replicates=total,
        inadmissible_fraction=1.0 - len(values) / total,
    )


def intensity_estimate(
    model: ScoreModel,
    window: Window,
    policy: Policy,
    intensity: float | None = None,
    replicates: int = 100,
    seed: int = 0,
) -> IntensityEstimate:
    records = run_replicates(model, window, policy, intensity, replicates, seed)
    return summarize_records(records, window)


# ---------------------------------------------------------------------------
# stabilization radii


def hardcore_stab_radii_all(c: Configuration) -> np.ndarray:
    """Per-point influence range of retention decisions: twice the farthest
    sup-norm distance over grains that can overlap the point's own grain.
    Depends on positions and grain radii only, never on retention marks."""
    out = np.zeros(c.n_points)
    for i, (neighbors, distances) in enumerate(zip(*grain_contacts(c, closed=False))):
        p = c.points[i]
        for j, d in zip(neighbors, distances):
            q = c.points[j]
            if d < p.base.radius + q.base.radius - GEOM_TOL:
                linf = torus_distance_linf(c.window, p.position, q.position)
                out[i] = max(out[i], 2.0 * linf)
    return out


def _tail_radius(candidates: np.ndarray, terms: np.ndarray, epsilon: float) -> float:
    """Smallest cube radius whose excluded-term tail is at most epsilon.

    Points strictly outside the cube of side r contribute their term; the
    candidate radii are exactly the cube sides at which points enter."""
    if candidates.size == 0:
        return 0.0
    order = np.argsort(candidates, kind="stable")
    sorted_c = candidates[order]
    sorted_t = terms[order]
    suffix = np.zeros(len(sorted_t) + 1)
    suffix[:-1] = np.cumsum(sorted_t[::-1])[::-1]
    if suffix[0] <= epsilon:
        return 0.0
    k = int(np.flatnonzero(suffix[1:] <= epsilon)[0])
    return float(sorted_c[k])


def aloha_stab_radii_all(
    c: Configuration, epsilon: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Internal and external stabilization radii of every point.

    Internal: how far the interference terms entering this point's own score
    remain above an epsilon tail.  External: how far this point's
    transmissions matter to other receivers.  Both scan the points sorted by
    cube-entry radius so the returned radius is tight on the sample.
    """
    if c.window.kind != "cube":
        raise ValidationError("aloha needs a cube window")
    if not epsilon > 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    n = c.n_points
    if n == 0:
        return np.zeros(0), np.zeros(0)
    pos = positions_array(c)
    # to_recv[j, i]: distance from point j to point i's receiver
    to_recv = torus_cross_distances(c.window, pos, aloha_receivers(c))
    with np.errstate(divide="ignore"):
        strength = np.log1p(to_recv ** (-beta))
    linf = pairwise_torus_linf(c)
    internal = np.zeros(n)
    external = np.zeros(n)
    for i in range(n):
        others = np.arange(n) != i
        cands = 2.0 * linf[i, others]
        internal[i] = _tail_radius(cands, strength[others, i], epsilon)
        external[i] = _tail_radius(cands, strength[i, others], epsilon)
    return internal, external


def aloha_truncated_score_at(c: Configuration, i: int, beta: float, radius: float) -> float:
    """Medium access score of point i with interferers outside the cube of
    side radius dropped.  Truncating outside the internal stabilization
    radius changes the score by at most its epsilon."""
    own = _opt_mark(c, i, AccessProb).prob
    attenuation = aloha_attenuation(c, beta)[i].tolist()
    acc = math.log(own)
    w = c.window
    pos_i = c.points[i].position
    for j, p in enumerate(c.points):
        if j == i:
            continue
        gap = 2.0 * torus_distance_linf(w, p.position, pos_i)
        if gap > radius:
            continue
        acc += math.log1p(-_opt_mark(c, j, AccessProb).prob / attenuation[j])
    return acc


@dataclass
class StabilizationSample:
    """Stabilization radii pooled over replicates, with tail and moment
    summaries.  Per-replicate arrays are kept so spread across replicates
    stays available."""

    per_replicate: list[np.ndarray]
    epsilon: float | None

    @property
    def radii(self) -> np.ndarray:
        if not self.per_replicate:
            return np.zeros(0)
        return np.concatenate(self.per_replicate)

    def ccdf(self, grid: np.ndarray) -> np.ndarray:
        pooled = self.radii
        if pooled.size == 0:
            return np.zeros(len(grid))
        return np.array([(pooled > r).mean() for r in grid])

    def replicate_ccdf(self, grid: np.ndarray) -> np.ndarray:
        out = []
        for arr in self.per_replicate:
            if arr.size:
                out.append([(arr > r).mean() for r in grid])
        return np.array(out)

    def moment(self, order: float) -> float:
        pooled = self.radii
        if pooled.size == 0:
            return 0.0
        return float((pooled**order).mean())

    def moments(self, dim: int, p: float = 2.0) -> dict[float, float]:
        if not p > 1.0:
            raise ValidationError(f"moment exponent needs p > 1, got {p}")
        orders = {1.0, float(dim), dim * p / (p - 1.0)}
        return {order: self.moment(order) for order in sorted(orders)}


def stabilization_sample(
    model: ScoreModel,
    window: Window,
    intensity: float,
    replicates: int = 100,
    seed: int = 0,
    epsilon: float = 1e-6,
) -> StabilizationSample:
    """Sample stabilization radii of every point across replicate draws."""
    model.validate_for_window(window)
    per = []
    for k in range(replicates):
        c = sample_configuration(model, window, intensity, seed, k)
        if model.kind == "hardcore":
            per.append(hardcore_stab_radii_all(c))
        elif model.kind == "aloha":
            internal, external = aloha_stab_radii_all(c, epsilon, model.beta)
            per.append(np.maximum(internal, external))
        else:
            raise UnsupportedModelError(f"{model.kind} has no stabilization radius")
    return StabilizationSample(per, epsilon)


# ---------------------------------------------------------------------------
# spatial averages


def coverage_hit_probability(
    c: Configuration,
    popularity: tuple[float, ...],
    samples: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo probability that a uniform location requesting a
    popularity-distributed item finds it in some cache ball covering it.
    Returns (estimate, standard error)."""
    if c.window.kind != "cube":
        raise ValidationError("coverage needs a cube window")
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    total_items = len(popularity)
    if abs(sum(popularity) - 1.0) > 1e-9:
        raise ValidationError("popularity must sum to 1")
    n = c.n_points
    pos = positions_array(c)
    radii = np.array([_base_mark(c, i, GrainRadius).radius for i in range(n)])
    holder = np.zeros((n, total_items + 1), dtype=bool)
    for i in range(n):
        for item in _opt_mark(c, i, ItemSet).items:
            if item > total_items:
                raise ValidationError(f"cache {i} holds unknown item {item}")
            holder[i, item] = True
    g = rng(seed, _COVER_STREAM)
    side = c.window.side
    dim = c.window.dim
    hits = 0
    for start in range(0, samples, _SAMPLE_CHUNK):
        m = min(_SAMPLE_CHUNK, samples - start)
        y = g.uniform(0.0, side, size=(m, dim))
        ks = g.choice(np.arange(1, total_items + 1), size=m, p=np.asarray(popularity))
        if n == 0:
            continue
        covered = torus_cross_distances(c.window, y, pos) <= radii[None, :]
        hits += int((covered & holder[:, ks].T).any(axis=1).sum())
    p = hits / samples
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / samples)


@dataclass
class CampbellCheck:
    """Two routes to the same spatial average: the score sum per unit volume
    and the direct geometric quantity it must equal."""

    score_side: float
    spatial_side: float
    gap: float
    stderr: float
    samples: int


def _retained_grains(c: Configuration) -> tuple[np.ndarray, np.ndarray]:
    keep = []
    for i in range(c.n_points):
        if _opt_mark(c, i, Retain).keep:
            keep.append((c.points[i].position, _base_mark(c, i, GrainRadius).radius))
    if not keep:
        return np.zeros((0, c.window.dim)), np.zeros(0)
    pos = np.array([k[0] for k in keep])
    radii = np.array([k[1] for k in keep])
    return pos, radii


def _interval_union_fraction(side: float, centers: np.ndarray, radii: np.ndarray) -> float:
    segments = []
    for x, r in zip(centers[:, 0] if centers.size else [], radii):
        a = (x - r) % side
        b = a + 2.0 * r
        if b <= side:
            segments.append((a, b))
        else:
            segments.append((a, side))
            segments.append((0.0, b - side))
    if not segments:
        return 0.0
    segments.sort()
    total = 0.0
    cur_a, cur_b = segments[0]
    for a, b in segments[1:]:
        if a > cur_b:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    total += cur_b - cur_a
    return total / side


def campbell_identity_check(
    c: Configuration,
    model: ScoreModel,
    samples: int = 200_000,
    seed: int = 0,
) -> CampbellCheck:
    """Check that the window score sum per unit volume equals the spatial
    average it encodes.

    Retention scores must reproduce the covered volume fraction (exactly in
    dimension 1 via interval unions, by Monte Carlo in dimension 2); caching
    scores must reproduce the popularity-weighted hit probability.
    """
    if model.kind not in ("hardcore", "caching"):
        raise UnsupportedModelError(f"no spatial identity registered for {model.kind}")
    total = total_window_score(c, model)
    if not is_admissible(total):
        raise ValidationError("identity check needs an admissible marking")
    volume = c.window.volume
    score_side = total / volume
    if model.kind == "hardcore":
        pos, radii = _retained_grains(c)
        if c.window.dim == 1:
            spatial = _interval_union_fraction(c.window.side, pos, radii)
            gap = abs(score_side - spatial)
            return CampbellCheck(score_side, spatial, gap, 0.0, 0)
        g = rng(seed, _COVER_STREAM)
        side = c.window.side
        hits = 0
        for start in range(0, samples, _SAMPLE_CHUNK):
            m = min(_SAMPLE_CHUNK, samples - start)
            y = g.uniform(0.0, side, size=(m, 2))
            if len(radii) == 0:
                continue
            dist = torus_cross_distances(c.window, y, pos)
            hits += int((dist < radii[None, :]).any(axis=1).sum())
        p = hits / samples
        se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
        return CampbellCheck(score_side, p, abs(score_side - p), se, samples)
    assert model.kind == "caching"
    p, se = coverage_hit_probability(c, model.popularity, samples, seed)
    return CampbellCheck(score_side, p, abs(score_side - p), se, samples)


# ---------------------------------------------------------------------------
# result emission

# the experiment and the policy, then one column per field of ReplicateRecord
RESULT_COLUMNS = ("experiment", "policy", *(f.name for f in fields(ReplicateRecord)))


def record_to_row(experiment: str, policy_label: str, record: ReplicateRecord) -> dict:
    row = dict(zip(RESULT_COLUMNS, (experiment, policy_label, *astuple(record))))
    row["elapsed_ms"] = round(record.elapsed_ms, 3)
    return row


def write_results_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_results_csv(path: str) -> list[dict]:
    """Rows of a results table, each column parsed by its record field's type;
    a file that cannot be read or parsed is a ValidationError naming path."""
    types = dict.fromkeys(RESULT_COLUMNS, str) | typing.get_type_hints(ReplicateRecord)
    try:
        with open(path, newline="") as fh:
            return [
                {name: row[name] == "True" if kind is bool else kind(row[name])
                 for name, kind in types.items()}
                for row in csv.DictReader(fh)
            ]
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path} is not a readable results table: {exc!r}") from exc


def _finite_or_null(obj: object) -> object:
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path: str, obj: object) -> None:
    """Write strict JSON: non-finite floats, such as the -inf total of an
    inadmissible marking or the NaN mean of a policy that is inadmissible on
    every replicate, become null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
