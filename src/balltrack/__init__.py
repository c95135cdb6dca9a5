"""balltrack: simulate, render and track a bouncing ball, then analyze.

The package covers the full non-neural pipeline for single-particle
tracking experiments: a deterministic physics simulator and video renderer,
sub-pixel landmark extraction from heatmaps, a differentiable ballistic
refinement over 3-frame windows, the matching loss family, a matched-filter
tracker with the standard metric protocol, and a replicated 2^6 factorial
effect analyzer.
"""

__version__ = "0.1.0"

from .sim import SimConfig, Trajectory, simulate_trajectory
from .video import VideoSequence, generate_sequence, read_dataset, write_dataset
from .heatmaps import (
    bicubic_expectation,
    bilinear_expectation,
    biquadratic_expectation,
    coarse_to_fine_expectation,
    gaussian_target,
    hard_argmax,
)
from .physics import (
    FrameUnitParams,
    physics_refine_window,
    to_frame_units,
)
from .losses import (
    LossWeights,
    bce_reconstruction,
    cone_loss,
    focal_heatmap_loss,
    physics_consistency_loss,
    physics_supervised_loss,
    ramp_weight,
    total_loss,
)
from .tracker import MetricTable, evaluate, track_sequence
from .factorial import FactorConfig, ResponseTable, effect_estimate, enumerate_configs

__all__ = [
    "__version__",
    "SimConfig",
    "Trajectory",
    "simulate_trajectory",
    "VideoSequence",
    "generate_sequence",
    "read_dataset",
    "write_dataset",
    "gaussian_target",
    "hard_argmax",
    "bilinear_expectation",
    "coarse_to_fine_expectation",
    "biquadratic_expectation",
    "bicubic_expectation",
    "FrameUnitParams",
    "to_frame_units",
    "physics_refine_window",
    "LossWeights",
    "bce_reconstruction",
    "cone_loss",
    "focal_heatmap_loss",
    "physics_consistency_loss",
    "physics_supervised_loss",
    "ramp_weight",
    "total_loss",
    "MetricTable",
    "track_sequence",
    "evaluate",
    "FactorConfig",
    "ResponseTable",
    "enumerate_configs",
    "effect_estimate",
]
