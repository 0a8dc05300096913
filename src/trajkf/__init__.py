"""Keyframe extraction from timed motion trajectories.

The library computes arc-length and time-parameterized curvature and torsion
of a sampled 2-D/3-D point trajectory, classifies rest-to-rest intervals as
planar or non-planar by PCA, builds a per-frame merit curve (harmonic mean of
turn and twist rates for 3-D motion, turn rate for planar motion), selects
prominence-ranked merit maxima as keyframes, and scores selections against
ground-truth annotations.
"""

import importlib

# each public name under the module that defines it; nothing is imported until
# first use, so a caller that needs no numpy (``trajkf evaluate``) loads none
_HOMES = {
    "evaluation": ("EvaluationReport", "complexity_metric", "reports_to_csv",
                   "reports_to_json", "score", "sweep"),
    "formats": ("Annotations", "KeyframeSet", "MeritMethod", "ParseError", "SigningInterval",
                "budget_for_ratio", "keyframes_from_json", "keyframes_to_json",
                "load_annotations", "save_annotations"),
    "geometry": ("BRANCH_NONPLANAR", "BRANCH_PLANAR", "DescriptorCurve", "curvature_s",
                 "curvature_t", "torsion_s", "torsion_t"),
    "merit": ("PlanarityResult", "fit_plane", "harmonic_mean_curve", "merit_curves",
              "project_to_plane"),
    "pipeline": ("extract_keyframes",),
    "selection": ("Peak", "default_speed_threshold", "detect_intervals", "find_peaks",
                  "select_keyframes"),
    "synthetic": ("CurveSpec", "SyntheticResult", "generate", "warp_time"),
    "trajectory": ("DerivativeStack", "TimedTrajectory", "differentiate", "gaussian_smooth",
                   "load_trajectory", "save_trajectory", "speed"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli")

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)   # binds it on the package
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
