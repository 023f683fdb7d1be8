"""Monte Carlo score estimation for nonlinear diffusions.

Simulates an Ito SDE together with its first and second variation processes,
evaluates anticipating (Skorokhod) integrals of covering vector fields, and
turns them into estimates of the log-density gradient of the terminal (or any
intermediate) marginal law, with independent PDE / kernel-density / bump
oracles for validation and a reverse-time sampler driven by the result.
"""

from .config import ConfigError, load_config
from .estimator import (
    TableScoreProvider,
    estimate_score,
    harvest_paths,
    reverse_time_sample,
)
from .malliavin import skorokhod_batch
from .models import SdeModel, check_derivatives, make_model
from .oracles import duality_report, fd_malliavin, fokker_planck_1d, kde_score
from .paths import TimeGrid, TrajectoryBatch, sample_brownian_block, simulate_variation_batch

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "SdeModel",
    "TableScoreProvider",
    "TimeGrid",
    "TrajectoryBatch",
    "check_derivatives",
    "duality_report",
    "estimate_score",
    "fd_malliavin",
    "fokker_planck_1d",
    "harvest_paths",
    "kde_score",
    "load_config",
    "make_model",
    "reverse_time_sample",
    "sample_brownian_block",
    "simulate_variation_batch",
    "skorokhod_batch",
]
