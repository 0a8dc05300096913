"""End-to-end keyframe extraction: smooth, segment, score, select."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .formats import KeyframeSet, MeritMethod, SigningInterval
# merit_curve and differentiate stay importable here: kept for perfbench/tracing.py
from .merit import DEFAULT_F_ERROR, merit_batches, merit_curve, speed_profile  # noqa: F401
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    default_speed_threshold,
    detect_intervals,
    find_peaks,
    select_keyframes,
)
from .trajectory import MIN_SAMPLES, TimedTrajectory, differentiate, gaussian_smooth  # noqa: F401

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

    The trajectory is smoothed, and its speed is computed once, in blocks of
    samples, for the threshold, the interval detection (unless intervals are
    supplied, e.g. from an annotation file) and the merit.  merit_batches scores
    the distinct intervals in batches of whole intervals, and find_peaks takes
    each batch's peaks; all the candidates are ranked by prominence, and a frame
    where overlapping intervals both peak is one candidate at its best, so
    keyframes are distinct.  Only the clip, its smoothing and the speed span it.
    Frames slower than the speed threshold never become candidates, so rest
    frames inside annotated intervals stay excluded.  Frames in the result are
    sample indices into ``traj``.  Raises FloatingPointError on overflow.
    """
    method = MeritMethod(method)   # a member, or its tag
    smoothed = gaussian_smooth(traj, sigma)
    with np.errstate(over="raise", invalid="raise"):
        # a shorter clip: each stage's own result or error
        v = speed_profile(smoothed) if smoothed.n_samples >= MIN_SAMPLES[1] else None
        threshold = speed_threshold if speed_threshold is not None \
            else default_speed_threshold(smoothed, v)
        if intervals is None:
            intervals = detect_intervals(smoothed, threshold, min_gap, min_len, v) \
                if threshold > 0 else []
        distinct = list(dict.fromkeys(intervals))   # a repeat adds no candidate, only memory
        frames, prominences = [np.zeros(0, np.intp)], [np.zeros(0)]
        for curve, _, rows in merit_batches(smoothed, distinct, method, f_error, threshold, v):
            peaks = find_peaks(curve)
            frames.append(rows[[p.frame for p in peaks]])
            prominences.append(np.array([p.prominence for p in peaks]))
            del curve, rows, peaks   # before the next batch is built
    return select_keyframes(np.concatenate(frames), np.concatenate(prominences), count,
                            method=method)
