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
import math
import re
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .formats import (
    ParseError,
    float9,
    float9s,
    json_finite_number,
    json_text,
    parse_json,
    read_bytes,
    read_text,
    write_text,
)
# kept for perfbench/workloads.py, driver.py, tracing.py and test_perfbench.py
from .formats import Annotations, SigningInterval, load_annotations, save_annotations  # noqa: F401


_FROZEN = weakref.WeakValueDictionary()   # id -> each live array `frozen` marked


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a``, a new float64 array, read-only; the containers copy any unmarked array."""
    a.flags.writeable = False
    _FROZEN[id(a)] = a
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    return a if _FROZEN.get(id(a)) is a else frozen(np.array(a, dtype=float))


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


def gaussian_smooth(traj: TimedTrajectory, sigma: float, rows=None) -> TimedTrajectory:
    """Smooth each coordinate channel with a truncated Gaussian kernel.

    The kernel has standard deviation ``sigma`` (in frames), is truncated at
    +/- min(ceil(4 sigma), n - 1) taps (a longer tap reaches no sample) and
    renormalized to sum 1; near the boundaries the truncated overlap is
    renormalized too, so constants are preserved.  ``sigma = 0`` is a no-op,
    and so is a sigma whose square underflows to 0 (its kernel is the unit
    impulse).  Only ``rows`` (a step-1 range, all by default) are smoothed, bit for
    bit the whole clip's rows, from the points in reach; start_frame moves to rows[0].
    """
    if not sigma >= 0:   # NaN fails too
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    n, rows = traj.n_samples, range(traj.n_samples) if rows is None else rows
    # a huge sigma squares to inf (a flat kernel); a tiny one's off-centre taps reach exp(-inf)
    with np.errstate(over="ignore"):
        two_var = 2 * np.float64(sigma) ** 2
        if two_var == 0:
            return traj if len(rows) == n else TimedTrajectory(
                traj.points[rows.start:rows.stop], traj.frame_rate, traj.start_frame + rows.start)
        radius = math.ceil(min(4 * sigma, n - 1))
        k = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(k**2) / two_var)
    kernel /= kernel.sum()
    # the points in reach, at least a kernel's length: np.convolve swaps its operands if fewer
    lo, hi = max(0, min(rows.start - radius, n - k.size)), min(n, max(rows.stop + radius, k.size))

    # full convolution sliced back to the rows; mode="same" would
    # return kernel-length output when the kernel outgrows a short signal
    def convolve(x):
        return np.convolve(x, kernel, mode="full")[rows.start - lo + radius:][:len(rows)]

    coverage = convolve(np.ones(hi - lo))
    smoothed = np.empty((len(rows), traj.dim))
    for j in range(traj.dim):   # a list of columns and their stack would hold the clip twice
        np.divide(convolve(traj.points[lo:hi, j]), coverage, out=smoothed[:, j])
    return TimedTrajectory(frozen(smoothed), traj.frame_rate, traj.start_frame + rows.start)


MIN_SAMPLES = {1: 3, 2: 4, 3: 7}   # fewest samples per derivative order
# the rates whose step h = 1/rate has a finite normal h**3 (to 3 digits), as differentiate needs
FRAME_RATES = (1.78e-103, 3.55e102)
# order: (reach, central stencil, one-sided stencil of the first `reach` samples) as (offset,
# weight) pairs; the last `reach` mirror it (offsets negated, for odd orders the weights too)
_STENCILS = {
    1: (1, [(1, 1), (-1, -1)], [(0, -3), (1, 4), (2, -1)]),
    2: (1, [(1, 1), (0, -2), (-1, 1)], [(0, 2), (1, -5), (2, 4), (3, -1)]),
    3: (2, [(2, 1), (1, -2), (-1, 2), (-2, -1)], [(0, -5), (1, 18), (2, -24), (3, 14), (4, -3)]),
}


def differentiate(traj: TimedTrajectory, order_max: int = 3) -> DerivativeStack:
    """Estimate derivatives up to ``order_max`` by finite differences.

    Interior samples use central stencils with step h = 1/frame_rate:

        d1[n] = (p[n+1] - p[n-1]) / 2h
        d2[n] = (p[n+1] - 2 p[n] + p[n-1]) / h^2
        d3[n] = (p[n+2] - 2 p[n+1] + 2 p[n-1] - p[n-2]) / 2h^3

    Boundary samples use one-sided stencils of matching (second) accuracy
    order; d3's are five-point stencils for the first and last two samples.
    d1 and d2 are exact on polynomials of degree <= 2 at interior samples.
    """
    if order_max not in (1, 2, 3):
        raise ValueError(f"order_max must be 1, 2 or 3, got {order_max}")
    # the highest order first: a trajectory too short for it fails naming it
    d3, d2, d1 = (derivative(traj, k) if k <= order_max else None for k in (3, 2, 1))
    return DerivativeStack(d1, d2, d3)


def derivative(traj: TimedTrajectory, order: int, rows=None) -> np.ndarray:
    """differentiate's ``order``-th derivative (1, 2 or 3) at ``rows``, sample indices or a
    step-1 range (all by default), bit for bit, evaluated only there: read-only, (len(rows), D)."""
    n = traj.n_samples
    if n < MIN_SAMPLES[order]:
        raise ValueError(f"need at least {MIN_SAMPLES[order]} samples for order {order}, got {n}")
    p, h = traj.points, 1.0 / traj.frame_rate
    scale = {1: 2 * h, 2: h**2, 3: 2 * h**3}[order]
    reach, central, one_sided = _STENCILS[order]

    def stencil(weights, at, out=None):   # sum of weight * at(offset), left to right, / scale
        (offset, weight), *rest = weights
        out = np.multiply(weight, at(offset), out=out)
        for offset, weight in rest:
            out += weight * at(offset)
        return np.divide(out, scale, out=out)

    rows = range(n) if rows is None else rows
    out = np.empty((len(rows), p.shape[1]))
    if isinstance(rows, range):   # the interior through slices of the points, the ends as rows
        a, b = rows.start, rows.stop
        lo, hi = max(a, reach), max(a, reach, min(b, n - reach))
        stencil(central, lambda o: p[lo + o:hi + o], out[lo - a:hi - a])
        ends = np.r_[a:min(b, reach), max(a, n - reach):b]
        out[ends - a] = derivative(traj, order, ends)
        return frozen(out)
    lead, trail = rows < reach, rows >= n - reach
    mirrored = [(-o, -w if order % 2 else w) for o, w in one_sided]
    for part, weights in [(~(lead | trail), central), (lead, one_sided), (trail, mirrored)]:
        at = rows[part]
        out[part] = stencil(weights, lambda o: p.take(at + o, axis=0))
    return frozen(out)


def speed(d: DerivativeStack) -> np.ndarray:
    """Per-sample speed: Euclidean norm of the first derivative."""
    return np.linalg.norm(d.d1, axis=1)


# ---------------------------------------------------------------------------
# Trajectory files (the formats are described in formats.py).
# ---------------------------------------------------------------------------


def load_trajectory(source, format: str = "csv", frame_rate: float = 60.0) -> TimedTrajectory:
    """Read a trajectory from a CSV or JSON stream, path, or bytes.

    For CSV the frame rate comes from ``frame_rate`` (the file has none); for
    JSON it comes from the file's "fps" field.  Dimensionality is inferred
    from the columns present.  Malformed rows, non-monotone or non-consecutive
    frame indices, and mixed dimensionality raise ParseError naming the row.
    A file in ASCII after any BOMs, as save_trajectory writes, loads from its bytes (CRs
    made LF) in about 1x the file plus the points; any other, and a text stream, is decoded
    by read_text first.  CSV rows, and JSON "points" that are the last member with no '"',
    are parsed about 64 KB at a time, each JSON piece only once its bytes have the shape of
    rows of 2 or 3 numbers; any other JSON layout, or any doubt, is parsed whole.
    """
    if format == "csv":
        return _load_csv(_plain(read_bytes(source)), frame_rate)
    if format != "json":
        raise ValueError(f"unknown trajectory format {format!r}")
    # json.loads makes no cycles: the collector would only re-walk its lists, freed on return
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_json(_plain(read_bytes(source)))
    finally:
        if enabled:
            gc.enable()


def _plain(data) -> bytes:
    """read_text's text of ``data`` in _UTF8; ASCII bytes after any BOMs stay bytes, CRs made LF."""
    if isinstance(data, bytes) and (rest := data[_BOMS.match(data).end():]).isascii():
        return rest.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in rest else rest
    return read_text(data).encode(*_UTF8)


_UTF8 = ("utf-8", "surrogatepass")   # how the loaders' bytes hold any str, lone surrogates too
_BOMS = re.compile(rb"(?:\xef\xbb\xbf)*")   # UTF-8 byte order marks
_CSV_HEADERS = (["frame", "x", "y"], ["frame", "x", "y", "z"])
# ASCII controls numpy's number parsers skip as whitespace but int() and float() refuse
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"
_NOT_SPACE = re.compile(rb"\S")


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


def _lines_within(data: bytes, limit: int) -> bool:
    """No line longer than ``limit`` characters; may also say no to a shorter one.

    A longer line covers an aligned block of limit // 2 characters with no
    line break in it, so one ``find`` per block is all the search costs.
    """
    step = max(limit // 2, 1)
    return all(data.find(b"\n", i, i + step) >= 0 for i in range(0, len(data) - step + 1, step))


def _load_csv(data: bytes, frame_rate: float) -> TimedTrajectory:
    """``np.loadtxt`` over the rows after a plain header line, a piece (``_cut``) at a time.

    Anything that pass refuses or cannot vouch for (quoting, a bad field, a
    frame gap or repeat, a non-finite value, no rows) goes to the row loop,
    which accepts exactly what it always has and otherwise names the row.
    Non-ASCII text goes there too: numpy reads some non-ASCII letters as digits.
    So does a line that may hold a field over ``csv.field_size_limit()``,
    which the row loop refuses whether or not it is quoted.
    """
    end = data.find(b"\n")
    if (_LOADTXT_EXACT_INTS and end >= 0 and data.isascii()
            and [c.strip().lower() for c in data[:end].decode().split(",")] in _CSV_HEADERS
            and not any(c in data for c in _NUMPY_ONLY_SPACE)
            and _NOT_SPACE.search(data, end)   # no rows: loadtxt would warn
            and _lines_within(data, csv.field_size_limit())):
        dtype = np.dtype([("frame", np.int64), ("xyz", np.float64, (data.count(b",", 0, end),))])
        points = np.empty((data.count(b"\n", end + 1) + (data[-1:] != b"\n"), *dtype["xyz"].shape))
        pos, k, frames = end + 1, 0, np.zeros(0, np.int64)   # frames: the first and last so far
        try:
            while pos < len(data):
                piece = data[pos:(pos := _cut(data, pos, b"\n", len(data)))]
                if piece.strip(b"\n"):   # loadtxt warns on a piece of empty lines
                    table = np.loadtxt(io.BytesIO(piece), dtype=dtype, delimiter=",", comments=None,
                                       quotechar=None, ndmin=1)
                    frames = np.r_[frames, table["frame"]]
                    # diff 1 also holds across the int64 wrap from 2**63 - 1 to -2**63
                    if not ((np.diff(frames[-len(table) - 1:]) == 1).all()
                            and frames[-1] >= frames[0] and np.isfinite(table["xyz"]).all()):
                        raise ValueError("a frame gap, repeat or wrap, or a non-finite value")
                    points[k:k + len(table)] = table["xyz"]
                    k, frames = k + len(table), frames[[0, -1]]
        except ValueError:
            pass
        else:
            return TimedTrajectory(frozen(points if k == len(points) else points[:k].copy()),
                                   frame_rate, frames[0])   # k is short by the empty lines
    return _load_csv_rows(data.decode(*_UTF8), frame_rate)


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


def _load_json(data: bytes) -> TimedTrajectory:
    try:
        obj, pieces = _load_json_pieces(data)
    except ParseError:   # any doubt: the whole document gives the result or the error
        obj = pieces = None
    if pieces is None:   # out of the handler, whose traceback holds the pieces parsed so far
        data = data.decode(*_UTF8)   # rebound before parsing: the bytes go first
        obj = parse_json(data)
    del data   # no frame holds the bytes while the pieces are joined
    points = None if pieces is None else np.concatenate(pieces)
    if not isinstance(obj, dict) or "fps" not in obj or "points" not in obj:
        raise ParseError('trajectory JSON must contain "fps" and "points"')
    fps = obj["fps"]
    if not (json_finite_number(fps) and FRAME_RATES[0] <= fps <= FRAME_RATES[1]):
        raise ParseError('"fps" must be a number in [%g, %g], got %r' % (*FRAME_RATES, fps))
    start_frame = obj.get("start_frame", 0)
    if type(start_frame) is not int or start_frame < 0:
        raise ParseError('"start_frame" must be a non-negative integer')
    if points is None:
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise ParseError('"points" must be a non-empty list')
        width = len(pts[0]) if isinstance(pts[0], list) else 0
        if width not in (2, 3):
            raise ParseError("points[0]: must be a list of 2 or 3 numbers")
        points = _point_rows(pts, width)
        if points is None:   # the scans name the first bad row, any width before any value
            for i, row in enumerate(pts):
                if not isinstance(row, list) or len(row) != width:
                    raise ParseError(f"points[{i}]: mixed dimensionality")
            i = next(i for i, row in enumerate(pts) if not all(map(json_finite_number, row)))
            raise ParseError(f"points[{i}]: non-finite or non-numeric coordinate in {pts[i]!r}")
    return TimedTrajectory(frozen(points), fps, start_frame)


def _point_rows(pts: list, width: int, shaped: bool = False) -> np.ndarray | None:
    """``pts`` as an array if it holds rows of ``width`` JSON numbers in the float range.
    The type scans run unless ``shaped``: a piece whose bytes have the shape of such rows
    parses to them, and only the range is left to check."""
    if not (shaped or set(map(type, pts)) == {list} and set(map(len, pts)) == {width}
            and set(map(type, itertools.chain.from_iterable(pts))) <= {int, float}):
        return None
    try:
        points = np.fromiter(itertools.chain.from_iterable(pts), float, count=len(pts) * width)
    except OverflowError:   # an integer beyond the float range
        return None
    return points.reshape(-1, width) if np.isfinite(points).all() else None


_PIECE_CHARS = 1 << 16   # bytes of CSV rows or JSON "points" parsed at a time
_WRITE_ROWS = 8192   # CSV rows save_trajectory formats at a time
_JSON_SPACE = re.compile(rb"[ \t\n\r]*")
_POINTS_KEY = re.compile(rb'(?<!\\)"points"[ \t\n\r]*:[ \t\n\r]*\[')   # quote not escaped


def _cut(data: bytes, pos: int, mark: bytes, stop: int) -> int:
    """The end of the piece from ``pos``: after the first ``mark`` _PIECE_CHARS or more on."""
    return data.find(mark, pos + _PIECE_CHARS, stop) + 1 or stop


def _load_json_pieces(data: bytes) -> tuple[dict, list]:
    """The object, its "points" emptied, and the points' arrays, when they are its last member
    and hold no '"': each piece of about _PIECE_CHARS bytes, cut after a row's "]", decoded and
    parsed alone.  A piece is parsed only if its bytes less JSON's number characters and
    whitespace are "[,]" or "[,,]" rows, as wide as the first, joined by commas: what JSON then
    accepts are rows of numbers, as _point_rows would check, in ASCII.  ParseError when the
    bytes are laid out otherwise or a piece is in doubt."""
    close = data.rfind(b"]")
    key = _POINTS_KEY.match(data, data.rfind(b'"', 0, close) - 7)   # the last '"' ends the key
    if not (key and data[close + 1:].strip(b" \t\n\r") == b"}"):
        raise ParseError('"points" is not the last member, or holds a string')
    obj = parse_json(data[:key.start()].decode(*_UTF8) + '"points": []}')
    pieces, pos = [], key.end()
    while pos <= close:   # past close only once a piece ends with no comma after it
        cut = _cut(data, pos, b"]", close)
        shape = data[pos:cut].translate(None, b"0123456789+-.eE \t\n\r")   # brackets, commas
        if not pieces:   # the first row's shape sets the width
            row = shape[:shape.find(b"]") + 1]
        k = shape.count(b"[")
        if not (k and row in (b"[,]", b"[,,]") and shape == (row + b",") * (k - 1) + row):
            raise ParseError("a piece is not rows of 2 or 3 numbers")
        rows = parse_json("[" + data[pos:cut].decode() + "]")   # the shape left no non-ASCII
        pieces.append(_point_rows(rows, len(row) - 1, shaped=True))
        del rows   # before the next piece's lists are built
        pos = _JSON_SPACE.match(data, cut, close).end()
        if pieces[-1] is None or pos < close and data[pos:pos + 1] != b",":
            raise ParseError("a bad row, or no comma after one")
        pos += 1
    return obj, pieces


def save_trajectory(traj: TimedTrajectory, dest, format: str = "csv") -> None:
    """Write a trajectory as CSV or JSON (floats at 9 significant digits); the JSON
    is laid out as ``json.dumps(obj, indent=2)`` writes it.  The CSV is written in pieces
    of _WRITE_ROWS rows, each formatted as it is written, so no piece outlives its write."""
    if format == "csv":
        row, pts = "%d" + ",%.9g" * traj.dim + "\n", traj.points
        blocks = (enumerate(pts[a:a + _WRITE_ROWS].tolist(), traj.start_frame + a)
                  for a in range(0, len(pts), _WRITE_ROWS))
        text = itertools.chain(["frame," + ",".join("xyz"[: traj.dim]) + "\n"],
                               ("".join([row % (n, *p) for n, p in block]) for block in blocks))
    elif format == "json":
        flat = float9s(traj.points.ravel().tolist())
        text = json_text({"fps": float9(traj.frame_rate), "start_frame": traj.start_frame,
                          "points": list(zip(*[iter(flat)] * traj.dim))}) + "\n"
    else:
        raise ValueError(f"unknown trajectory format {format!r}")
    write_text(dest, text)


