"""Three independent estimates of the nonlinear-drift score at T=1:
the pathwise Monte Carlo estimator, the density-PDE oracle, and the
KDE-gradient oracle. Emits a CSV to stdout.

Usage: python scripts/compare_oracles.py [--paths 100000]
"""

import argparse

import numpy as np

from pathscore import TimeGrid, estimate_score, fokker_planck_1d, kde_score, make_model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--steps", type=int, default=256)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    model = make_model("bounded_nonlinear_drift")
    grid = TimeGrid(1.0, args.steps)
    x0 = np.array([0.0])

    table, harvest = estimate_score(
        model,
        grid,
        x0,
        [1.0],
        np.linspace(-1.8, 1.8, 25),
        args.paths,
        args.seed,
        workers=args.workers,
    )
    sol = fokker_planck_1d(model, 0.0, 1.0, -6.0, 6.0)
    samples = harvest.X_t[harvest.valid[:, 0], 0]

    print("y,score_pathwise,stderr,score_pde,score_kde,kde_stderr")
    for q in range(table.points.shape[0]):
        y = float(table.points[q, 0])
        pde = float(sol.score_at(np.array([y]))[0])
        kde = kde_score(samples, np.array([y]))
        print(
            f"{y!r},{float(table.scores[0, q, 0])!r},{float(table.stderr[0, q, 0])!r},"
            f"{pde!r},{float(kde.score[0])!r},{float(kde.stderr[0])!r}"
        )


if __name__ == "__main__":
    main()
