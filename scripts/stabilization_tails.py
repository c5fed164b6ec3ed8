"""Tail behavior of stabilization radii for retention and medium access.

Prints the empirical complementary distribution of the hard-core retention
radius next to its first-moment tail bound, then the interference radii of
the access model across tolerance levels, and the heavy moment across
growing windows.

    python3 scripts/stabilization_tails.py --replicates 200
"""

from __future__ import annotations

import argparse

import numpy as np

from markopt.core import periodic_cube
from markopt.estimate import stabilization_sample
from markopt.models import AlohaModel, HardcoreModel


def retention_tail(replicates: int, seed: int) -> None:
    model = HardcoreModel()
    sample = stabilization_sample(
        model, periodic_cube(1, 20.0), 1.0, replicates=replicates, seed=seed
    )
    r_max = model.radius_hi
    grid = np.linspace(0.0, 4.0 * r_max, 10)
    empirical = sample.ccdf(grid)
    lo, hi = model.radius_lo, model.radius_hi
    s = np.linspace(2 * lo, 2 * hi, 20001)
    density = np.where(s <= lo + hi, s - 2 * lo, 2 * hi - s) / (hi - lo) ** 2
    print(f"retention radius over {sample.radii.size} points "
          f"(max {sample.radii.max():.3f}, cap {4 * r_max}):")
    print(f"{'r':>8} {'P(R>r)':>10} {'bound':>10}")
    for r, emp in zip(grid, empirical):
        bound = float(np.trapezoid(np.maximum(0.0, 2 * s - r) * density, s))
        print(f"{r:>8.3f} {emp:>10.4f} {bound:>10.4f}")


def interference_radii(replicates: int, seed: int) -> None:
    model = AlohaModel(beta=4.0)
    print("\ninterference radii by tail tolerance:")
    print(f"{'epsilon':>10} {'mean':>8} {'median':>8} {'p95':>8}")
    for epsilon in (1e-1, 1e-2, 1e-3, 1e-4):
        sample = stabilization_sample(
            model,
            periodic_cube(2, 10.0),
            1.0,
            replicates=max(replicates // 10, 5),
            seed=seed,
            epsilon=epsilon,
        )
        radii = sample.radii
        print(f"{epsilon:>10.0e} {radii.mean():>8.3f} "
              f"{np.median(radii):>8.3f} {np.quantile(radii, 0.95):>8.3f}")


def heavy_moment(seed: int) -> None:
    model = HardcoreModel()
    print("\nretention radius moment of order 4 across window sides (dim 2):")
    moments = {}
    for side, replicates in ((10.0, 60), (20.0, 20), (40.0, 8)):
        sample = stabilization_sample(
            model, periodic_cube(2, side), 1.0, replicates=replicates, seed=seed
        )
        moments[side] = sample.moments(2, 2.0)[4.0]
        print(f"  L={side:>4}: {moments[side]:.3e} ({sample.radii.size} points)")
    ratio = max(moments.values()) / min(moments.values())
    print(f"  max/min ratio {ratio:.2f}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--seed", type=int, default=31)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    retention_tail(args.replicates, args.seed)
    interference_radii(args.replicates, args.seed)
    heavy_moment(args.seed)
