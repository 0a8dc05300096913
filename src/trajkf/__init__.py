"""Keyframe extraction from timed motion trajectories.

The library computes arc-length and time-parameterized curvature and torsion
of a sampled 2-D/3-D point trajectory, classifies rest-to-rest intervals as
planar or non-planar by PCA, builds a per-frame merit curve (harmonic mean of
turn and twist rates for 3-D motion, turn rate for planar motion), selects
prominence-ranked merit maxima as keyframes, and scores selections against
ground-truth annotations.
"""

from .evaluation import (
    EvaluationReport,
    budget_for_ratio,
    complexity_metric,
    reports_to_csv,
    reports_to_json,
    score,
    sweep,
)
from .geometry import (
    BRANCH_NONPLANAR,
    BRANCH_PLANAR,
    DescriptorCurve,
    curvature_s,
    curvature_t,
    torsion_s,
    torsion_t,
)
from .merit import MeritMethod, harmonic_mean_curve, merit_curves
from .merit import PlanarityResult, fit_plane, project_to_plane
from .pipeline import extract_keyframes
from .selection import (
    KeyframeSet,
    Peak,
    default_speed_threshold,
    detect_intervals,
    find_peaks,
    keyframes_from_json,
    keyframes_to_json,
    select_keyframes,
)
from .synthetic import CurveSpec, SyntheticResult, generate, warp_time
from .trajectory import (
    Annotations,
    DerivativeStack,
    ParseError,
    SigningInterval,
    TimedTrajectory,
    differentiate,
    gaussian_smooth,
    load_annotations,
    load_trajectory,
    save_annotations,
    save_trajectory,
    speed,
)

__version__ = "0.1.0"

__all__ = [
    "Annotations",
    "BRANCH_NONPLANAR",
    "BRANCH_PLANAR",
    "CurveSpec",
    "DerivativeStack",
    "DescriptorCurve",
    "EvaluationReport",
    "KeyframeSet",
    "MeritMethod",
    "ParseError",
    "Peak",
    "PlanarityResult",
    "SigningInterval",
    "SyntheticResult",
    "TimedTrajectory",
    "budget_for_ratio",
    "complexity_metric",
    "curvature_s",
    "curvature_t",
    "default_speed_threshold",
    "detect_intervals",
    "differentiate",
    "extract_keyframes",
    "find_peaks",
    "fit_plane",
    "gaussian_smooth",
    "generate",
    "harmonic_mean_curve",
    "keyframes_from_json",
    "keyframes_to_json",
    "load_annotations",
    "load_trajectory",
    "merit_curves",
    "project_to_plane",
    "reports_to_csv",
    "reports_to_json",
    "save_annotations",
    "save_trajectory",
    "score",
    "select_keyframes",
    "speed",
    "sweep",
    "torsion_s",
    "torsion_t",
    "warp_time",
]
