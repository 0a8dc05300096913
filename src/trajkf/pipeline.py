"""End-to-end keyframe extraction: smooth, segment, score, select."""

from __future__ import annotations

from typing import Sequence

# merit_curve and differentiate stay importable here for perfbench/tracing.py
from .merit import MeritMethod, merit_curve, segmented_merit  # noqa: F401
from .planarity import DEFAULT_F_ERROR, segment_layout
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    KeyframeSet,
    default_speed_threshold,
    detect_intervals,
    find_peaks,
    select_keyframes,
)
from .trajectory import SigningInterval, TimedTrajectory, differentiate, gaussian_smooth  # noqa: F401

DEFAULT_SIGMA = 2.0


def extract_keyframes(
    traj: TimedTrajectory,
    method: MeritMethod = MeritMethod.MT,
    count: int = 1,
    sigma: float = DEFAULT_SIGMA,
    f_error: float = DEFAULT_F_ERROR,
    intervals: Sequence[SigningInterval] | None = None,
    speed_threshold: float | None = None,
    min_gap: int = DEFAULT_MIN_GAP,
    min_len: int = DEFAULT_MIN_LEN,
) -> KeyframeSet:
    """Select the ``count`` most prominent merit maxima of a trajectory.

    The trajectory is smoothed first; signing intervals are detected from the
    speed profile unless supplied (e.g. from an annotation file).  One
    segmented_merit pass lays every interval's merit curve of ``method`` end
    to end, one find_peaks call takes the peaks of all of them, and the
    peaks are ranked globally by prominence.  Frames slower than the
    interval-detection speed threshold never become candidates, so rest
    frames inside annotated rest-to-rest intervals stay excluded.  Frames in
    the result are sample indices into ``traj``.
    """
    smoothed = gaussian_smooth(traj, sigma)
    threshold = speed_threshold if speed_threshold is not None \
        else default_speed_threshold(smoothed)
    if intervals is None:
        intervals = detect_intervals(smoothed, threshold, min_gap, min_len) if threshold > 0 else []

    curve, _ = segmented_merit(smoothed, intervals, method, f_error, threshold)
    peaks = find_peaks(curve)
    frames = segment_layout(intervals)[2][[p.frame for p in peaks]]   # curve to trajectory
    return select_keyframes(frames, [p.prominence for p in peaks], count, method=method)
