"""Signing-interval detection, peak finding, and keyframe selection.

Keyframe candidates are strict local maxima of a merit curve; candidates are
ranked by topographic prominence (height above the highest saddle connecting
the peak to any higher peak, or to the curve boundary when no higher peak
exists) and the strongest ones across all intervals become the keyframes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import DescriptorCurve
from .merit import MeritMethod
from .trajectory import (
    ParseError,
    SigningInterval,
    TimedTrajectory,
    _float9,
    differentiate,
    json_finite_number,
    json_list,
    json_n_frames,
    speed,
)

DEFAULT_MIN_GAP = 10
DEFAULT_MIN_LEN = 12
DEFAULT_THRESHOLD_FRACTION = 0.05   # of the 95th-percentile speed


@dataclass(frozen=True)
class Peak:
    """A strict local maximum of a merit curve.

    ``frame`` is the index within the curve the peak was found on; for
    per-interval curves the interval start is added at selection time.
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
    """Strict local maxima with topographic prominences.

    A sample is a peak iff it is strictly above both neighbours; for a
    plateau, the leftmost sample of a maximal run strictly above both flanks
    counts.  Endpoints are never peaks.  Prominence is the peak value minus
    the larger of the two bracketing minima, each taken over the gap to the
    nearest strictly higher ground on that side (or the curve boundary).
    """
    if isinstance(curve, DescriptorCurve):
        values = curve.selection_values()
    else:
        values = np.asarray(curve, dtype=float)
    n = len(values)
    peak_idx: list[int] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if 0 < i and j < n - 1 and values[i - 1] < values[i] > values[j + 1]:
            peak_idx.append(i)
        i = j + 1

    peaks = []
    for p in peak_idx:
        v = values[p]
        left_min = v
        k = p - 1
        while k >= 0 and values[k] <= v:
            if values[k] < left_min:
                left_min = values[k]
            k -= 1
        right_min = v
        k = p + 1
        while k < n and values[k] <= v:
            if values[k] < right_min:
                right_min = values[k]
            k += 1
        peaks.append(Peak(p, float(v), float(v - max(left_min, right_min))))
    return peaks


def select_keyframes(
    peaks_per_interval: list[tuple[SigningInterval, list[Peak]]],
    count: int,
    method: MeritMethod | None = None,
) -> KeyframeSet:
    """Pool peaks across intervals and keep the ``count`` most prominent.

    Peak frames are interpreted relative to their interval's start.  Ties in
    prominence break toward the earlier frame; the result is sorted by frame
    and flags a shortfall when fewer peaks than requested exist.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pooled = [
        (interval.start + pk.frame, pk.prominence)
        for interval, pks in peaks_per_interval
        for pk in pks
    ]
    pooled.sort(key=lambda fp: (-fp[1], fp[0]))
    chosen = sorted(pooled[:count])
    return KeyframeSet(
        frames=tuple(f for f, _ in chosen),
        scores=tuple(s for _, s in chosen),
        method=method,
        shortfall=len(pooled) < count,
    )


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
        "scores": [_float9(s) for s in ks.scores],
        "shortfall": ks.shortfall,
    }
    if n_frames is not None:
        obj["n_frames"] = int(n_frames)
    return json.dumps(obj, indent=2) + "\n"


def keyframes_from_json(source) -> tuple[KeyframeSet, int | None]:
    """Read a keyframe file; returns the set and its n_frames field if any."""
    text = Path(source).read_text() if isinstance(source, (str, Path)) else source.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
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
