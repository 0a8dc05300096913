"""Signing-interval detection, peak finding, and keyframe selection.

Keyframe candidates are strict local maxima of a merit curve; candidates are
ranked by topographic prominence (height above the highest saddle connecting
the peak to any higher peak, or to the curve boundary when no higher peak
exists) and the strongest ones across all intervals become the keyframes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DescriptorCurve
from .merit import MeritMethod
from .trajectory import (
    ParseError,
    SigningInterval,
    TimedTrajectory,
    differentiate,
    float9,
    json_finite_number,
    json_list,
    json_n_frames,
    parse_json,
    read_text,
    speed,
)

DEFAULT_MIN_GAP = 10
DEFAULT_MIN_LEN = 12
DEFAULT_THRESHOLD_FRACTION = 0.05   # of the 95th-percentile speed


class Peak(NamedTuple):
    """A strict local maximum of a merit curve (a named tuple: cheap to make in bulk).

    ``frame`` is the index within the curve the peak was found on, counted
    over all of its segments.
    """

    frame: int
    value: float
    prominence: float


@dataclass(frozen=True)
class KeyframeSet:
    """Selected frames with their prominence scores, sorted by frame."""

    frames: tuple[int, ...]
    scores: tuple[float, ...]
    method: MeritMethod | None = None
    shortfall: bool = False


def default_speed_threshold(traj: TimedTrajectory) -> float:
    """Interval-detection threshold: 5% of the 95th-percentile speed."""
    if traj.n_samples < 3:
        return 0.0
    v = speed(differentiate(traj, 1))
    return DEFAULT_THRESHOLD_FRACTION * float(np.percentile(v, 95))


def detect_intervals(
    traj: TimedTrajectory,
    speed_threshold: float,
    min_gap: int = DEFAULT_MIN_GAP,
    min_len: int = DEFAULT_MIN_LEN,
) -> list[SigningInterval]:
    """Find rest-to-rest motion intervals from the speed profile.

    Maximal runs of samples with speed >= speed_threshold are taken, runs
    separated by fewer than ``min_gap`` slow samples are merged, and merged
    runs shorter than ``min_len`` samples are discarded.
    """
    if speed_threshold <= 0:
        raise ValueError(f"speed_threshold must be positive, got {speed_threshold}")
    if min_gap <= 0 or min_len <= 0:
        raise ValueError("min_gap and min_len must be positive")
    if traj.n_samples < 3:
        return []
    active = speed(differentiate(traj, 1)) >= speed_threshold
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
    """Keep the ``count`` most prominent of the candidates ``frames``.

    ``prominences`` runs parallel to ``frames``.  Ties in prominence break
    toward the earlier frame; the result is sorted by frame and flags a
    shortfall when fewer candidates than requested exist.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    frames, prominences = np.asarray(frames, dtype=np.int64), np.asarray(prominences, dtype=float)
    top = np.lexsort((frames, -prominences))[:count]
    top = top[np.lexsort((prominences[top], frames[top]))]
    return KeyframeSet(tuple(frames[top].tolist()), tuple(prominences[top].tolist()), method,
                       shortfall=len(frames) < count)


# ---------------------------------------------------------------------------
# Keyframe JSON:
#   {"method": str, "frames": [int], "scores": [float], "shortfall": bool,
#    "n_frames": int (optional)}
# frames are video frame indices (trajectory start_frame already added).
# ---------------------------------------------------------------------------


def keyframes_to_json(ks: KeyframeSet, start_frame: int = 0, n_frames: int | None = None) -> str:
    obj: dict = {
        "method": ks.method.value if ks.method else None,
        "frames": [start_frame + f for f in ks.frames],
        "scores": [float9(s) for s in ks.scores],
        "shortfall": ks.shortfall,
    }
    if n_frames is not None:
        obj["n_frames"] = int(n_frames)
    return json.dumps(obj, indent=2) + "\n"


def keyframes_from_json(source) -> tuple[KeyframeSet, int | None]:
    """Read a keyframe file; returns the set and its n_frames field if any."""
    obj = parse_json(read_text(source))
    if not isinstance(obj, dict) or "frames" not in obj:
        raise ParseError('keyframe file must hold an object with a "frames" list')
    frames = json_list(obj, "frames")
    for i, f in enumerate(frames):
        if type(f) is not int:
            raise ParseError(f"frames[{i}]: must be an integer frame index")
    scores = json_list(obj, "scores") if "scores" in obj else [0.0] * len(frames)
    if len(scores) != len(frames):
        raise ParseError('"scores" and "frames" lengths differ')
    for i, sc in enumerate(scores):
        if not json_finite_number(sc):
            raise ParseError(f"scores[{i}]: must be a finite number")
    try:
        method = MeritMethod(obj["method"]) if obj.get("method") else None
    except ValueError:
        raise ParseError(f'"method": unknown method {obj["method"]!r}') from None
    ks = KeyframeSet(
        frames=tuple(frames),
        scores=tuple(float(s) for s in scores),
        method=method,
        shortfall=bool(obj.get("shortfall", False)),
    )
    return ks, json_n_frames(obj)
