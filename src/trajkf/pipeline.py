"""End-to-end keyframe extraction: smooth, segment, score, select."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .formats import KeyframeSet, MeritMethod, SigningInterval
# merit_curve stays importable here for perfbench/tracing.py
from .merit import DEFAULT_F_ERROR, merit_curve, segmented_merit  # noqa: F401
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    default_speed_threshold,
    detect_intervals,
    find_peaks,
    select_keyframes,
)
from .trajectory import MIN_SAMPLES, TimedTrajectory, differentiate, gaussian_smooth, speed

DEFAULT_SIGMA = 2.0


def extract_keyframes(
    traj: TimedTrajectory,
    method: MeritMethod | str = MeritMethod.MT,
    count: int = 1,
    sigma: float = DEFAULT_SIGMA,
    f_error: float = DEFAULT_F_ERROR,
    intervals: Sequence[SigningInterval] | None = None,
    speed_threshold: float | None = None,
    min_gap: int = DEFAULT_MIN_GAP,
    min_len: int = DEFAULT_MIN_LEN,
) -> KeyframeSet:
    """Select the ``count`` most prominent merit maxima of a trajectory.

    The trajectory is smoothed and differentiated once, to first order; that
    stack and its speed feed the threshold, the interval detection (unless
    intervals are supplied, e.g. from an annotation file) and one segmented_merit
    call that lays each distinct interval's merit curve end to end.  One find_peaks call
    takes their peaks, ranked globally by prominence; a frame where overlapping
    intervals both peak is one candidate at its best, so keyframes are distinct.
    Frames slower than the speed threshold never become candidates, so rest
    frames inside annotated intervals stay excluded.  Frames in the result are
    sample indices into ``traj``.  Raises FloatingPointError on overflow.
    """
    method = MeritMethod(method)   # a member, or its tag
    smoothed = gaussian_smooth(traj, sigma)
    with np.errstate(over="raise", invalid="raise"):
        d = v = None
        if smoothed.n_samples >= MIN_SAMPLES[1]:   # shorter: each stage's own result or error
            d = differentiate(smoothed, 1)
            v = speed(d)
        threshold = speed_threshold if speed_threshold is not None \
            else default_speed_threshold(smoothed, v)
        if intervals is None:
            intervals = detect_intervals(smoothed, threshold, min_gap, min_len, v) \
                if threshold > 0 else []
        distinct = list(dict.fromkeys(intervals))   # a repeat adds no candidate, only memory
        curve, _, rows = segmented_merit(smoothed, distinct, method, f_error, threshold, d, v)
    peaks = find_peaks(curve)
    return select_keyframes(rows[[p.frame for p in peaks]], [p.prominence for p in peaks], count,
                            method=method)
