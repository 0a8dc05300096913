"""Timed trajectory containers, file ingestion, smoothing, and differentiation.

A trajectory is a uniformly sampled sequence of 2-D or 3-D positions of a
tracked point (typically a wrist keypoint), together with the capture frame
rate.  Everything downstream (curvature descriptors, keyframe selection,
evaluation) consumes these containers; they are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """A trajectory or annotation file violates its schema."""


def float9(x: float) -> float:
    """Round to 9 significant digits (canonical precision for emitted files)."""
    return float(format(float(x), ".9g"))


def float9s(xs) -> list[float]:
    """``[float9(x) for x in xs]``, formatted by one % pass."""
    return list(map(float, ("%.9g " * len(xs) % tuple(xs)).split()))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TimedTrajectory:
    """Uniformly sampled positions of a tracked point.

    Attributes:
        points: (N, D) array of positions, D in {2, 3}; units are whatever the
            source provides (pixels or meters).
        frame_rate: samples per second, within FRAME_RATES.
        start_frame: video frame index of sample 0.  Sample n occurs at time
            (start_frame + n) / frame_rate.
    """

    points: np.ndarray
    frame_rate: float
    start_frame: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (N, D) array")
        if pts.shape[1] not in (2, 3):
            raise ValueError(f"dimensionality must be 2 or 3, got {pts.shape[1]}")
        if not FRAME_RATES[0] <= self.frame_rate <= FRAME_RATES[1]:
            raise ValueError("frame_rate %r is outside [%g, %g]" % (self.frame_rate, *FRAME_RATES))
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "frame_rate", float(self.frame_rate))
        object.__setattr__(self, "start_frame", int(self.start_frame))

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        n = self.n_samples
        return (self.start_frame + np.arange(n)) / self.frame_rate


@dataclass(frozen=True)
class SigningInterval:
    """Inclusive sample-index range covering one rest-to-rest motion."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid interval [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def contains(self, frame: int) -> bool:   # kept for perfbench/tracing.py
        return self.start <= frame <= self.end


@dataclass(frozen=True, eq=False)
class DerivativeStack:
    """Per-sample derivative estimates of a trajectory.

    d1, d2, d3 hold velocity, acceleration, and jerk estimates in position
    units per s, s^2, s^3; d2/d3 are None when not requested.
    """

    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "d1", _readonly(self.d1))
        for name in ("d2", "d3"):
            arr = getattr(self, name)
            if arr is not None:
                arr = _readonly(arr)
                if arr.shape != self.d1.shape:
                    raise ValueError(f"{name} shape {arr.shape} != d1 shape {self.d1.shape}")
                object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.d1.shape[1]


@dataclass(frozen=True)
class Annotations:
    """Ground-truth signing intervals and keyframe indices for one video."""

    intervals: tuple[SigningInterval, ...] = ()
    keyframes: tuple[int, ...] = ()
    n_frames: int | None = None


def gaussian_smooth(traj: TimedTrajectory, sigma: float) -> TimedTrajectory:
    """Smooth each coordinate channel with a truncated Gaussian kernel.

    The kernel has standard deviation ``sigma`` (in frames), is truncated at
    +/- min(ceil(4 sigma), n - 1) taps (a longer tap reaches no sample) and
    renormalized to sum 1; near the boundaries the truncated overlap is
    renormalized too, so constants are preserved.  ``sigma = 0`` is a no-op,
    and so is a sigma whose square underflows to 0 (its kernel is the unit
    impulse).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    # a huge sigma squares to inf (a flat kernel); a tiny one's off-centre taps reach exp(-inf)
    with np.errstate(over="ignore"):
        two_var = 2 * np.float64(sigma) ** 2
        if two_var == 0:
            return traj
        n = traj.n_samples
        radius = math.ceil(min(4 * sigma, n - 1))
        k = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(k**2) / two_var)
    kernel /= kernel.sum()

    # full convolution sliced back to the signal length; mode="same" would
    # return kernel-length output when the kernel outgrows a short signal
    def convolve(x):
        return np.convolve(x, kernel, mode="full")[radius : radius + n]

    coverage = convolve(np.ones(n))
    smoothed = np.column_stack(
        [convolve(traj.points[:, j]) / coverage for j in range(traj.dim)]
    )
    return TimedTrajectory(smoothed, traj.frame_rate, traj.start_frame)


MIN_SAMPLES = {1: 3, 2: 4, 3: 7}   # fewest samples per derivative order
# the rates whose step h = 1/rate has a finite normal h**3 (to 3 digits), as differentiate needs
FRAME_RATES = (1.78e-103, 3.55e102)


def differentiate(traj: TimedTrajectory, order_max: int = 3) -> DerivativeStack:
    """Estimate derivatives up to ``order_max`` by finite differences.

    Interior samples use central stencils with step h = 1/frame_rate:

        d1[n] = (p[n+1] - p[n-1]) / 2h
        d2[n] = (p[n+1] - 2 p[n] + p[n-1]) / h^2
        d3[n] = (p[n+2] - 2 p[n+1] + 2 p[n-1] - p[n-2]) / 2h^3

    Boundary samples use one-sided stencils of matching (second) accuracy
    order.  d1 and d2 are exact on polynomials of degree <= 2 at interior
    samples.
    """
    if order_max not in (1, 2, 3):
        raise ValueError(f"order_max must be 1, 2 or 3, got {order_max}")
    n = traj.n_samples
    if n < MIN_SAMPLES[order_max]:
        raise ValueError(
            f"need at least {MIN_SAMPLES[order_max]} samples for order {order_max}, got {n}"
        )
    h = 1.0 / traj.frame_rate
    p = traj.points

    d1 = np.empty_like(p)
    d1[1:-1] = (p[2:] - p[:-2]) / (2 * h)
    d1[0] = (-3 * p[0] + 4 * p[1] - p[2]) / (2 * h)
    d1[-1] = (3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * h)

    d2 = None
    if order_max >= 2:
        d2 = np.empty_like(p)
        d2[1:-1] = (p[2:] - 2 * p[1:-1] + p[:-2]) / h**2
        d2[0] = (2 * p[0] - 5 * p[1] + 4 * p[2] - p[3]) / h**2
        d2[-1] = (2 * p[-1] - 5 * p[-2] + 4 * p[-3] - p[-4]) / h**2

    d3 = None
    if order_max >= 3:
        d3 = np.empty_like(p)
        d3[2:-2] = (p[4:] - 2 * p[3:-1] + 2 * p[1:-3] - p[:-4]) / (2 * h**3)
        # one-sided five-point stencils for the first and last two samples
        d3[:2] = (-5 * p[:2] + 18 * p[1:3] - 24 * p[2:4]
                  + 14 * p[3:5] - 3 * p[4:6]) / (2 * h**3)
        d3[-2:] = (5 * p[-2:] - 18 * p[-3:-1] + 24 * p[-4:-2]
                   - 14 * p[-5:-3] + 3 * p[-6:-4]) / (2 * h**3)

    return DerivativeStack(d1, d2, d3)


def speed(d: DerivativeStack) -> np.ndarray:
    """Per-sample speed: Euclidean norm of the first derivative."""
    return np.linalg.norm(d.d1, axis=1)


# ---------------------------------------------------------------------------
# File formats.
#
# Trajectory CSV:  header "frame,x,y[,z]", one row per frame, frame indices
# consecutive and strictly increasing; frame rate supplied out of band.
# Trajectory JSON: {"fps": number, "start_frame": int, "points": [[x,y(,z)],..]}
# Annotations:     {"intervals": [{"start": int, "end": int}, ...],
#                   "keyframes": [int, ...], "n_frames": int (optional)}
# ---------------------------------------------------------------------------


def read_text(source) -> str:
    """UTF-8 text of a path, bytes or stream, byte order mark removed.

    All three read alike, with universal newlines as a path's text already
    has them: CR LF and a lone CR each read as LF.
    """
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            data = source if isinstance(source, bytes) else source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.lstrip("\ufeff")


def write_text(dest, text: str) -> None:
    """Write ``text`` to a stream, or atomically to a path.

    A path gets a temp file in its directory, renamed over it once written,
    so a failed write leaves any old file whole.  The temp file is created
    with mode 0o666, which the umask narrows as for any new file.
    """
    if not isinstance(dest, (str, Path)):
        dest.write(text)
        return
    target = Path(dest)
    tmp = target.with_name(f".tmp-{os.urandom(8).hex()}-{target.name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_trajectory(source, format: str = "csv", frame_rate: float = 60.0) -> TimedTrajectory:
    """Read a trajectory from a CSV or JSON stream, path, or bytes.

    For CSV the frame rate comes from ``frame_rate`` (the file has none); for
    JSON it comes from the file's "fps" field.  Dimensionality is inferred
    from the columns present.  Malformed rows, non-monotone or non-consecutive
    frame indices, and mixed dimensionality raise ParseError naming the row.
    """
    if format == "csv":
        return _load_csv(read_text(source), frame_rate)
    if format != "json":
        raise ValueError(f"unknown trajectory format {format!r}")
    # json.loads makes no cycles: the collector would only re-walk its lists, freed on return
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_json(read_text(source))
    finally:
        if enabled:
            gc.enable()


_CSV_HEADERS = (["frame", "x", "y"], ["frame", "x", "y", "z"])
# ASCII controls numpy's number parsers skip as whitespace but int() and float() refuse
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_NOT_SPACE = re.compile(r"\S")


def _loadtxt_refuses_float_ints() -> bool:
    """Whether ``np.loadtxt`` refuses "1.5" as an int64, as ``int()`` does.

    Some NumPy releases from 1.23 on parse such a field through float, with
    a DeprecationWarning; under those the row loop reads every file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.5"], dtype=np.int64)
        except ValueError:
            return True
    return False


_LOADTXT_EXACT_INTS = _loadtxt_refuses_float_ints()


def _lines_within(text: str, limit: int) -> bool:
    """No line longer than ``limit`` characters; may also say no to a shorter one.

    A longer line covers an aligned block of limit // 2 characters with no
    line break in it, so one ``find`` per block is all the search costs.
    """
    step = max(limit // 2, 1)
    return all(text.find("\n", i, i + step) >= 0 for i in range(0, len(text) - step + 1, step))


def _load_csv(text: str, frame_rate: float) -> TimedTrajectory:
    """One ``np.loadtxt`` pass over the rows after a plain header line.

    Anything that pass refuses or cannot vouch for (quoting, a bad field, a
    frame gap or repeat, a non-finite value, no rows) goes to the row loop,
    which accepts exactly what it always has and otherwise names the row.
    Non-ASCII text goes there too: numpy reads some non-ASCII letters as digits.
    So does a line that may hold a field over ``csv.field_size_limit()``,
    which the row loop refuses whether or not it is quoted.
    """
    end = text.find("\n")
    head = text[:end]
    if (_LOADTXT_EXACT_INTS and end >= 0
            and [c.strip().lower() for c in head.split(",")] in _CSV_HEADERS
            and text.isascii()
            and not any(c in text for c in _NUMPY_ONLY_SPACE)
            and _NOT_SPACE.search(text, end)   # no rows: loadtxt would warn
            and _lines_within(text, csv.field_size_limit())):
        dtype = np.dtype([("frame", np.int64), ("xyz", np.float64, (head.count(","),))])
        try:
            table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", comments=None,
                               quotechar=None, skiprows=1, ndmin=1)
        except ValueError:
            pass
        else:
            frames, points = table["frame"], table["xyz"]
            # diff 1 also holds across the int64 wrap from 2**63 - 1 to -2**63
            if ((np.diff(frames) == 1).all() and frames[-1] >= frames[0]
                    and np.isfinite(points).all()):
                return TimedTrajectory(points, frame_rate, frames[0])
    return _load_csv_rows(text, frame_rate)


def _load_csv_rows(text: str, frame_rate: float) -> TimedTrajectory:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:   # such as a field over csv.field_size_limit()
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    rows = [(i + 1, r) for i, r in enumerate(rows) if r]
    if not rows:
        raise ParseError("empty trajectory file")
    header = [c.strip().lower() for c in rows[0][1]]
    if header not in _CSV_HEADERS:
        raise ParseError(f"row 1: header must be frame,x,y[,z], got {','.join(header)}")
    ncols = len(header)
    frames: list[int] = []
    coords: list[list[float]] = []
    for lineno, row in rows[1:]:
        if len(row) != ncols:
            raise ParseError(f"row {lineno}: expected {ncols} fields, got {len(row)}")
        try:
            frame = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"row {lineno}: malformed value ({exc})") from None
        if frames:
            if frame <= frames[-1]:
                raise ParseError(f"row {lineno}: frame {frame} not after frame {frames[-1]}")
            if frame != frames[-1] + 1:
                raise ParseError(
                    f"row {lineno}: frame indices must be consecutive "
                    f"(gap between {frames[-1]} and {frame})"
                )
        frames.append(frame)
        coords.append(values)
    if not frames:
        raise ParseError("trajectory file has a header but no samples")
    points = np.array(coords)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ParseError(f"row {rows[1 + bad[0]][0]}: non-finite coordinate")
    return TimedTrajectory(points, frame_rate, frames[0])


def json_finite_number(v) -> bool:
    """A JSON number inside the float range; bools and strings are not numbers."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _load_json(text: str) -> TimedTrajectory:
    obj = parse_json(text)
    del text
    if not isinstance(obj, dict) or "fps" not in obj or "points" not in obj:
        raise ParseError('trajectory JSON must contain "fps" and "points"')
    fps = obj["fps"]
    if not (json_finite_number(fps) and FRAME_RATES[0] <= fps <= FRAME_RATES[1]):
        raise ParseError('"fps" must be a number in [%g, %g], got %r' % (*FRAME_RATES, fps))
    start_frame = obj.get("start_frame", 0)
    if type(start_frame) is not int or start_frame < 0:
        raise ParseError('"start_frame" must be a non-negative integer')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError('"points" must be a non-empty list')
    width = len(pts[0]) if isinstance(pts[0], list) else 0
    if width not in (2, 3):
        raise ParseError("points[0]: must be a list of 2 or 3 numbers")
    for i, row in enumerate(pts):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"points[{i}]: mixed dimensionality")
    # the type set is one pass in C; the per-value scan below runs only on failure
    points = None
    if set(map(type, itertools.chain.from_iterable(pts))) <= {int, float}:
        try:
            points = np.fromiter(itertools.chain.from_iterable(pts), float,
                                 count=len(pts) * width).reshape(-1, width)
        except OverflowError:   # an integer beyond the float range
            pass
    if points is None or not np.isfinite(points).all():
        i = next(i for i, row in enumerate(pts) if not all(map(json_finite_number, row)))
        raise ParseError(f"points[{i}]: non-finite or non-numeric coordinate in {pts[i]!r}")
    return TimedTrajectory(points, fps, start_frame)


def save_trajectory(traj: TimedTrajectory, dest, format: str = "csv") -> None:
    """Write a trajectory as CSV or JSON (floats at 9 significant digits); the JSON
    is laid out as ``json.dumps(obj, indent=2)`` writes it."""
    if format == "csv":
        row = "%d" + ",%.9g" * traj.dim
        lines = [row % (n, *p) for n, p in enumerate(traj.points.tolist(), traj.start_frame)]
        text = "\n".join(["frame," + ",".join("xyz"[: traj.dim]), *lines]) + "\n"
    elif format == "json":
        flat = float9s(traj.points.ravel().tolist())
        text = json_text({"fps": float9(traj.frame_rate), "start_frame": traj.start_frame,
                          "points": list(zip(*[iter(flat)] * traj.dim))}) + "\n"
    else:
        raise ValueError(f"unknown trajectory format {format!r}")
    write_text(dest, text)


def load_annotations(source) -> Annotations:
    """Read an interval/keyframe annotation JSON file."""
    obj = parse_json(read_text(source))
    if not isinstance(obj, dict):
        raise ParseError("annotation file must hold a JSON object")
    intervals = []
    for i, itv in enumerate(json_list(obj, "intervals")):
        # type(...) is int: JSON integers only, so bools, floats and strings fail
        if not (isinstance(itv, dict) and type(itv.get("start")) is int
                and type(itv.get("end")) is int):
            raise ParseError(f'intervals[{i}]: "start" and "end" must be integers')
        try:
            intervals.append(SigningInterval(itv["start"], itv["end"]))
        except ValueError as exc:
            raise ParseError(f"intervals[{i}]: {exc}") from None
    keyframes = json_frames(obj, "keyframes")
    return Annotations(tuple(intervals), tuple(keyframes), json_n_frames(obj))


def parse_json(text: str):
    """``json.loads`` with every failure as a ParseError: a JSONDecodeError, the
    ValueError of an over-long integer literal, or deep nesting's RecursionError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, spelled by one C-encoder call per list of scalars
    or of equal-shaped rows of scalars (laid out by one % template).  Anything else
    recurses down to a leaf's ``json.dumps``, so an odd type gives the same bytes or
    TypeError.  A container met twice at one depth is laid out once; ``obj`` holds no cycle."""
    out, memo = [], {}   # the pieces, joined once; each container's pieces by (id, nl)

    def layout(obj, nl: str) -> None:   # append obj's pieces, met where a line starts with nl
        inner, start, is_dict = nl + "  ", len(out), isinstance(obj, dict)
        if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
            out.append(json.dumps(obj))
        elif (id(obj), nl) in memo:
            out.extend(memo[id(obj), nl])
        else:
            if rows := None if is_dict else _json_rows(obj, inner):
                out.extend((",", inner, rows))
            else:
                keys = _spelled(dict.fromkeys(obj, 0)) if is_dict else ["0"] * len(obj)
                for key, x in zip(keys, obj.values() if is_dict else obj):
                    out.extend((",", inner, key[:-1]))   # '"key": 0' less the 0 ("" in a list)
                    layout(x, inner)
            out[start] = "{" if is_dict else "["   # in place of the first ","
            out.append(nl + ("}" if is_dict else "]"))
            memo[id(obj), nl] = out[start:]

    layout(obj, "\n")
    return "".join(out)


def _spelled(values) -> list[str]:
    """A non-empty list's items, or a dict's '"key": value' pairs, as the C encoder spells them."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")   # strings escape "\n"


def _json_rows(xs: list, nl: str) -> str | None:
    """The items of ``xs`` laid out, each starting a line with ``nl``, if one C-encoder
    call spells them all: scalars, or equal-shaped rows of scalars; otherwise None."""
    types, inner, scalars = set(map(type, xs)), nl + "  ", {str, int, float, bool, type(None)}
    if types <= scalars:
        return json.dumps(xs, separators=("," + nl, ": "))[1:-1]
    if types == {dict} and set(map(type, xs[0])) == {str} \
            and [*itertools.chain.from_iterable(xs)] == [*xs[0]] * len(xs):
        heads = [p[:-1].replace("%", "%%") + "%s" for p in _spelled(dict.fromkeys(xs[0], 0))]
        row, values = "{" + inner + ("," + inner).join(heads) + nl + "}", map(dict.values, xs)
    elif types <= {list, tuple} and len(set(map(len, xs))) == 1 and xs[0]:
        row, values = "[" + inner + ("," + inner).join(["%s"] * len(xs[0])) + nl + "]", xs
    else:
        return None
    values = [*itertools.chain.from_iterable(values)]
    if not set(map(type, values)) <= scalars:
        return None
    return ("," + nl).join([row] * len(xs)) % tuple(_spelled(values))


def json_list(obj: dict, field: str) -> list:
    """The list under ``field`` of a JSON object (empty when absent)."""
    value = obj.get(field, [])
    if not isinstance(value, list):
        raise ParseError(f'"{field}" must be a list')
    return value


def json_frames(obj: dict, field: str) -> list:
    """The list of integer frame indices under ``field`` of a JSON object (empty when absent)."""
    frames = json_list(obj, field)
    if not set(map(type, frames)) <= {int}:   # the scan only names the first bad one
        i = next(i for i, f in enumerate(frames) if type(f) is not int)
        raise ParseError(f"{field}[{i}]: must be an integer frame index")
    return frames


MAX_N_FRAMES = 2**62   # longest scorable video: frame windows stay inside int64


def json_n_frames(obj: dict) -> int | None:
    """The optional "n_frames" field of a JSON object: an integer in [1, MAX_N_FRAMES]."""
    n_frames = obj.get("n_frames")
    if n_frames is not None and (type(n_frames) is not int
                                 or not 0 < n_frames <= MAX_N_FRAMES):
        raise ParseError('"n_frames" must be a positive integer at most 2**62')
    return n_frames


def save_annotations(ann: Annotations, dest, extra: dict | None = None) -> None:
    """Write an annotation file, ``extra``'s fields last, as ``json.dumps(obj, indent=2)``."""
    obj: dict = {"intervals": [{"start": i.start, "end": i.end} for i in ann.intervals],
                 "keyframes": list(ann.keyframes)}
    if ann.n_frames is not None:
        obj["n_frames"] = ann.n_frames
    obj.update(extra or {})
    write_text(dest, json_text(obj) + "\n")
