"""Run the full validation suite (derivative checks, covering condition,
bump probes, duality) on every builtin model, and the reduced-form
(corollary) equivalence on the two declared ``linear``: OU and linear_multidim.

Each model's validate run prints its PASS/FAIL lines; its files
(validation.txt, summary.txt and the duality matrix in duality.csv) go to a
temporary directory that is removed afterwards.

Usage: python scripts/validate_builtins.py [--paths 10000] [--workers 1]
"""

import argparse
import sys
import tempfile

import yaml

from pathscore.cli import main as cli_main

BUILTIN_SETUPS = {
    "ornstein_uhlenbeck": {"x0": [0.0]},
    "bounded_nonlinear_drift": {"x0": [0.0]},
    "state_dependent_tanh": {"x0": [0.5]},
    "linear_multidim": {"x0": [0.3, -0.2]},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=10_000)
    ap.add_argument("--steps", type=int, default=256)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    failures = 0
    for name, setup in BUILTIN_SETUPS.items():
        cfg = {
            "model": {"name": name},
            "grid": {"horizon": 1.0, "steps": args.steps},
            "sampling": {"x0": setup["x0"], "n_paths": args.paths, "seed": args.seed},
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = f"{tmp}/cfg.yaml"
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(cfg, fh)
            print(f"--- {name} ---")
            rc = cli_main(
                [
                    "validate",
                    "--config",
                    cfg_path,
                    "--out",
                    tmp,
                    "--workers",
                    str(args.workers),
                ]
            )
            failures += rc != 0
    print(f"{len(BUILTIN_SETUPS) - failures}/{len(BUILTIN_SETUPS)} models pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
