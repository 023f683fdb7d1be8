"""The benchmark's workloads: the configs they feed pathscore, the requests
they make, and the checks of each output against perfbench.reference.

A workload is built from the benchmark seed alone; the seed becomes the
config's ``sampling.seed``, so every seed draws a fresh set of paths while
the model, grid and sizes stay fixed.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

import reference as ref

# An entry passes when |estimate - reference| <= Z_LIMIT * stderr + dt * (1 + |reference|):
# Monte Carlo error plus an allowance of one grid step, relative, for the
# O(dt) bias of the Euler scheme the estimator runs on.
Z_LIMIT = 5.0
# Nadaraya-Watson rows with fewer effective samples have unreliable
# delta-method standard errors and are not checked.
MIN_CHECKED_NEFF = 100.0
# Reverse samples at t = 0: mean within this many standard errors of x0. At 3
# a correct program would fail about one run in 400, and a regression check
# runs the benchmark on dozens of seeds.
REVERSE_MEAN_Z = 4.0
# ... and std within this share of sigma0 * sqrt(dt). The last reverse step
# leaves a trace of the spread at t = dt, which table noise widens: over 20
# seeds the std ran 0.6% to 3.9% above sigma0 * sqrt(dt).
REVERSE_STD_REL = 0.10


@dataclass
class Workload:
    name: str
    config: dict  # YAML mapping handed to pathscore, less the seed
    reverse_samples: int = 0

    @property
    def nodes(self) -> list[int]:
        steps = self.config["grid"]["steps"]
        horizon = self.config["grid"]["horizon"]
        return [int(round(t * steps / horizon)) for t in self.config["score"]["t_eval"]]

    @property
    def attempted(self) -> int:
        """Operations per round: one per score table, one per reverse request."""
        return len(self.nodes) + (1 if self.reverse_samples else 0)

    def requested_path_steps(self) -> int:
        """Score work asked for: sum over nodes of n_paths * node."""
        return self.config["sampling"]["n_paths"] * sum(self.nodes)


def _t_eval(steps: int, every: int, horizon: float = 1.0) -> list[float]:
    return [n * horizon / steps for n in range(every, steps + 1, every)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score_tanh_nodes",
            config={
                "model": {
                    "name": "state_dependent_tanh",
                    "params": {"theta": 1.0, "sigma0": 1.0, "alpha": 0.5},
                },
                "grid": {"horizon": 1.0, "steps": 256},
                "sampling": {"x0": [0.5], "n_paths": 4096},
                "score": {
                    "t_eval": _t_eval(256, 32),
                    "y_min": [-2.5],
                    "y_max": [3.5],
                    "y_count": [61],
                    "bandwidth": "auto",
                },
            },
        ),
        Workload(
            name="score_linear_2d",
            config={
                "model": {"name": "linear_multidim"},
                "grid": {"horizon": 1.0, "steps": 128},
                "sampling": {"x0": [0.3, -0.2], "n_paths": 1024},
                "score": {
                    "t_eval": [1.0],
                    "y_min": [-1.5, -1.5],
                    "y_max": [1.5, 1.5],
                    "y_count": [21, 21],
                    "bandwidth": "auto",
                },
            },
        ),
        Workload(
            name="reverse_bounded_tables",
            config={
                "model": {
                    "name": "bounded_nonlinear_drift",
                    "params": {"k": 1.0, "a": 0.0, "sigma0": 1.0},
                },
                "grid": {"horizon": 1.0, "steps": 32},
                "sampling": {"x0": [0.0], "n_paths": 4096},
                "score": {
                    "t_eval": _t_eval(32, 1),
                    "y_min": [-6.0],
                    "y_max": [6.0],
                    "y_count": [121],
                    "knn": 200,
                },
            },
            reverse_samples=8192,
        ),
    )
}

# Builtin defaults of linear_multidim; written out here so the reference does
# not read them from the program under test.
LINEAR_A = [[-1.0, 0.3], [-0.2, -0.8]]
LINEAR_SIGMA = [[0.8, 0.1], [0.0, 0.7]]


def config_for(w: Workload, seed: int, tables_dir: str | None = None) -> dict:
    cfg = {k: dict(v) for k, v in w.config.items()}
    cfg["sampling"]["seed"] = int(seed)
    if w.reverse_samples:
        cfg["reverse"] = {
            "provider": "tables",
            "n_samples": w.reverse_samples,
            "tables_dir": tables_dir,
        }
    return cfg


# ---------------------------------------------------------------- checks


def summary_bandwidths(out_dir: str) -> dict[int, np.ndarray]:
    """Per-node NW bandwidths echoed in summary.txt."""
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        text = fh.read()
    return {
        int(node): np.array([float(v) for v in bw.split()])
        for node, bw in re.findall(r"node (\d+) \(t=.*bandwidth \[([^\]]*)\]", text)
    }


class Checker:
    """Compares one round's outputs with the workload's reference.

    The reference is built once per benchmark run and reused for every
    round. ``problems`` collects one line per failed check.
    """

    def __init__(self, w: Workload):
        self.w = w
        self.problems: list[str] = []
        grid = w.config["grid"]
        self.dt = grid["horizon"] / grid["steps"]
        self.times = [n * self.dt for n in w.nodes]
        name = w.config["model"]["name"]
        x0 = w.config["sampling"]["x0"]
        if name == "linear_multidim":
            self.gauss = {t: ref.linear_gaussian(LINEAR_A, LINEAR_SIGMA, x0, t) for t in self.times}
            self.density = None
        else:
            ref.check_fokker_planck()
            p = w.config["model"]["params"]
            if name == "state_dependent_tanh":
                coeffs = ref.tanh_coefficients(p["theta"], p["sigma0"], p["alpha"])
            elif name == "bounded_nonlinear_drift":
                coeffs = ref.bounded_coefficients(p["k"], p["a"], p["sigma0"])
            else:
                raise ValueError(f"no reference for model {name}")
            self.density = ref.fokker_planck_1d(*coeffs, x0[0], self.times)

    def score_tables(self, out_dir: str) -> None:
        """Check every score table in out_dir; missing ones are counted elsewhere."""
        bws = None
        knn = self.w.config["score"].get("knn")
        n_paths = self.w.config["sampling"]["n_paths"]
        for node, t in zip(self.w.nodes, self.times):
            path = os.path.join(out_dir, f"score_n{node:04d}.csv")
            if not os.path.exists(path):
                continue
            tab = np.genfromtxt(path, delimiter=",", names=True)
            m = len(self.w.config["sampling"]["x0"])
            y = np.stack([tab[f"y_{j + 1}"] for j in range(m)], axis=1)
            k = tab["k"].astype(int) - 1
            if knn is None:
                if bws is None:
                    bws = summary_bandwidths(out_dir)
                h = bws[node]
                rows = tab["n_eff"] >= MIN_CHECKED_NEFF
                if self.density is not None:
                    want = self.density.nw_limit(t, y[:, 0], float(h[0]))
                else:
                    mean, cov = self.gauss[t]
                    want = ref.gaussian_nw_limit(mean, cov, h, y)[np.arange(len(k)), k]
            else:
                excluded = int(tab["excluded"][0])
                want = self.density.knn_limit(t, y[:, 0], knn / (n_paths - excluded))
                rows = np.ones(len(k), dtype=bool)
            if not np.any(rows):
                self.problems.append(f"node {node}: no table entry has n_eff >= {MIN_CHECKED_NEFF}")
                continue
            est, se, want = tab["score"][rows], tab["stderr"][rows], want[rows]
            dev = np.abs(est - want)
            bad = int(np.count_nonzero(~(dev <= Z_LIMIT * se + self.dt * (1.0 + np.abs(want)))))
            if bad:
                self.problems.append(
                    f"node {node}: {bad} of {dev.size} entries off the reference "
                    f"(largest |z| {np.nanmax(dev / se):.2f})"
                )

    def reverse_samples(self, path: str) -> None:
        """Samples at t=0 must collapse onto x0 with the last step's spread."""
        x = np.genfromtxt(path, delimiter=",", names=True)["x_1"]
        x0 = self.w.config["sampling"]["x0"][0]
        sigma0 = self.w.config["model"]["params"]["sigma0"]
        if x.size != self.w.reverse_samples:
            self.problems.append(f"reverse: {x.size} samples, expected {self.w.reverse_samples}")
            return
        mean, std = float(x.mean()), float(x.std(ddof=1))
        se = std / math.sqrt(x.size)
        if not abs(mean - x0) <= REVERSE_MEAN_Z * se:
            self.problems.append(f"reverse: mean {mean:.5f} is {abs(mean - x0) / se:.2f} SE from x0")
        want = sigma0 * math.sqrt(self.dt)
        if not abs(std / want - 1.0) <= REVERSE_STD_REL:
            self.problems.append(f"reverse: std {std:.5f} against sigma0*sqrt(dt) {want:.5f}")
