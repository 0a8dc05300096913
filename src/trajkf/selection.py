"""Signing-interval detection, peak finding, and keyframe selection.

Keyframe candidates are strict local maxima of a merit curve; candidates are
ranked by topographic prominence (height above the highest saddle connecting
the peak to any higher peak, or to the curve boundary when no higher peak
exists) and the strongest ones across all intervals become the keyframes.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .formats import KeyframeSet, MeritMethod, SigningInterval, rank_order
# kept for perfbench/workloads.py and driver.py
from .formats import keyframes_from_json, keyframes_to_json  # noqa: F401
from .geometry import DescriptorCurve
from .merit import segment_percentile, speed_profile
# differentiate stays importable here: kept for perfbench/tracing.py
from .trajectory import TimedTrajectory, differentiate  # noqa: F401

DEFAULT_MIN_GAP = 10
DEFAULT_MIN_LEN = 12
DEFAULT_THRESHOLD_FRACTION = 0.05   # of the 95th-percentile speed


class Peak(namedtuple("Peak", "frame value prominence")):
    """A strict local maximum of a merit curve (a named tuple: cheap to make in bulk).

    Int ``frame`` is the index within the curve the peak was found on, counted
    over all of its segments; floats ``value`` and ``prominence``.
    """

    __slots__ = ()


def default_speed_threshold(traj: TimedTrajectory, v: np.ndarray | None = None) -> float:
    """Interval-detection threshold: 5% of the 95th-percentile speed ``v``, computed
    when not given; np.percentile's value without its lazy numpy.ma import."""
    if traj.n_samples < 3:
        return 0.0
    v = speed_profile(traj) if v is None else v
    return DEFAULT_THRESHOLD_FRACTION * float(segment_percentile(v, np.array([len(v)]), 95)[0])


def detect_intervals(
    traj: TimedTrajectory,
    speed_threshold: float,
    min_gap: int = DEFAULT_MIN_GAP,
    min_len: int = DEFAULT_MIN_LEN,
    v: np.ndarray | None = None,
) -> list[SigningInterval]:
    """Find rest-to-rest motion intervals from the speed profile.

    Maximal runs of samples with speed >= speed_threshold are taken, runs
    separated by fewer than ``min_gap`` slow samples are merged, and merged
    runs shorter than ``min_len`` samples are discarded.  ``v`` is the speed
    profile, computed when not given.
    """
    if speed_threshold <= 0:
        raise ValueError(f"speed_threshold must be positive, got {speed_threshold}")
    if min_gap <= 0 or min_len <= 0:
        raise ValueError("min_gap and min_len must be positive")
    if traj.n_samples < 3:
        return []
    active = (speed_profile(traj) if v is None else v) >= speed_threshold
    edges = np.flatnonzero(np.diff(active, prepend=False, append=False))
    runs = [[int(a), int(b) - 1] for a, b in zip(edges[::2], edges[1::2])]
    merged: list[list[int]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] - 1 < min_gap:
            merged[-1][1] = run[1]
        else:
            merged.append(run)
    return [SigningInterval(a, b) for a, b in merged if b - a + 1 >= min_len]


def find_peaks(curve: DescriptorCurve | np.ndarray) -> list[Peak]:
    """Strict local maxima with topographic prominences, in O(N + P).

    Each segment of a DescriptorCurve (see ``offsets``; a bare array is one
    segment) is a curve of its own.  A sample is a peak iff it is strictly
    above both neighbours; for a plateau, the leftmost sample of a maximal
    run strictly above both flanks counts.  Runs touching a segment's ends
    are never peaks.  Prominence is the peak value minus the larger of the
    two bracketing minima, each taken over the gap to the nearest strictly
    higher ground on that side (or the segment's end).  Higher ground always
    holds a higher peak, so one stack pass per side over the P peaks, not the
    N samples, restarted at each segment, finds those minima.  Frames index
    the whole curve.  Values must be NaN-free.
    """
    segmented = isinstance(curve, DescriptorCurve)
    values = curve.values if segmented else np.asarray(curve, dtype=float)
    n = values.size
    edge = np.zeros(n + 1, dtype=bool)   # segment starts, and the curve end
    edge[curve.offsets if segmented else 0] = edge[n] = True
    starts = np.flatnonzero(edge[:n] | np.append(True, values[1:] != values[:-1])[:n])
    after = np.append(starts, n)[1:]     # start of the next equal-valued run
    inner = ~edge[starts] & ~edge[after]
    s, after = starts[inner], after[inner]
    idx = s[(values[s - 1] < values[s]) & (values[s] > values[after])]
    if idx.size == 0:
        return []
    cut = edge[:n].copy()   # cut at every segment start and peak
    cut[idx] = True
    low = np.minimum.reduceat(values, np.flatnonzero(cut))   # from each cut to the next
    at, segment = np.cumsum(cut)[idx] - 1, np.cumsum(edge[:n])[idx].tolist()
    peak_values = values[idx].tolist()
    left = _stack_bases(peak_values, low[at - 1].tolist(), segment)
    right = _stack_bases(peak_values[::-1], low[at][::-1].tolist(), segment[::-1])[::-1]
    prominences = (values[idx] - np.maximum(left, right)).tolist()
    return list(map(Peak._make, zip(idx.tolist(), peak_values, prominences)))


def _stack_bases(peak_values: list[float], lows: list[float], segment: list[int]) -> list[float]:
    """Per peak, the minimum of ``lows`` back to the nearest strictly higher
    peak of its segment, or to the segment's start.

    Each stack entry holds a peak value and the minimum since the entry below.
    """
    stack, bases, current = [], [], None
    for v, low, seg in zip(peak_values, lows, segment):
        if seg != current:
            stack, current = [], seg
        while stack and stack[-1][0] <= v:
            low = min(low, stack.pop()[1])
        bases.append(low)
        stack.append((v, low))
    return bases


def select_keyframes(frames, prominences, count: int,
                     method: MeritMethod | None = None) -> KeyframeSet:
    """Keep the ``count`` most prominent of the distinct candidate ``frames``.

    ``prominences`` runs parallel to ``frames``.  A frame listed several times
    is one candidate, at its best prominence, so the result never repeats a
    frame.  Candidates are taken in ``rank_order``; the result is sorted by
    frame and flags a shortfall when fewer distinct frames than requested exist.
    """
    if not (count >= 1 and count % 1 == 0):
        raise ValueError(f"count must be a whole number >= 1, got {count}")
    frames, prominences = np.asarray(frames, dtype=np.int64), np.asarray(prominences, dtype=float)
    order = np.array(rank_order(frames.tolist(), prominences.tolist()), dtype=np.intp)
    first = np.unique(frames[order], return_index=True)[1]   # each frame's best rank, by frame
    top = order[first[np.sort(np.argsort(first)[:int(count)])]]   # the ``count`` best, by frame
    return KeyframeSet(tuple(frames[top].tolist()), tuple(prominences[top].tolist()), method,
                       shortfall=len(first) < count)


