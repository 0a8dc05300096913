"""Timed trajectory containers, file ingestion, smoothing, and differentiation.

A trajectory is a uniformly sampled sequence of 2-D or 3-D positions of a
tracked point (typically a wrist keypoint), together with the capture frame
rate.  Everything downstream (curvature descriptors, keyframe selection,
evaluation) consumes these containers; they are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import io
import itertools
import math
import os
import re
import sys
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .formats import (ParseError, float9, float9s, json_finite_number, json_pieces, parse_json,
                      read_bytes, read_text, write_text)
# kept for perfbench/workloads.py, driver.py, tracing.py and test_perfbench.py
from .formats import Annotations, SigningInterval, load_annotations, save_annotations  # noqa: F401


_FROZEN = {}   # id -> a weak reference to each live array `frozen` marked, popped as it dies


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a``, a new float64 array, read-only; the containers copy any unmarked array."""
    a.flags.writeable = False
    _FROZEN[id(a)] = weakref.ref(a, functools.partial(_FROZEN.pop, id(a)))   # no Python call
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    return a if (ref := _FROZEN.get(id(a))) and ref() is a else frozen(np.array(a, dtype=float))


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

    # the full convolution sliced to the rows: mode="same" is kernel-long past a short signal
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
    step-1 range (all by default), bit for bit, evaluated only there: read-only, (len(rows), D).
    Each row takes the central stencil, then those within reach of an end are rewritten."""
    n = traj.n_samples
    if n < MIN_SAMPLES[order]:
        raise ValueError(f"need at least {MIN_SAMPLES[order]} samples for order {order}, got {n}")
    p, h = traj.points, 1.0 / traj.frame_rate
    scale = {1: 2 * h, 2: h**2, 3: 2 * h**3}[order]
    reach, central, one_sided = _STENCILS[order]

    def stencil(weights, at, out):   # sum of weight * at(offset, buffer), left to right, / scale
        (offset, weight), *rest = weights
        np.multiply(at(offset, out), weight, out=out)
        term = np.empty_like(out)
        for offset, weight in rest:
            out += np.multiply(at(offset, term), weight, out=term)
        return np.divide(out, scale, out=out)

    rows = range(n) if rows is None else rows
    out = np.empty((len(rows), p.shape[1]))
    if isinstance(rows, range):   # the interior through slices of the points
        a, b = rows.start, rows.stop
        lo, hi = max(a, reach), max(a, reach, min(b, n - reach))
        stencil(central, lambda o, _: p[lo + o:hi + o], out[lo - a:hi - a])
        at = (ends := np.r_[a:min(b, reach), max(a, n - reach):b]) - a
    else:   # take's "clip" clips each index into p[reach + o:n - reach + o], the interior
        i = rows - reach
        stencil(central, lambda o, buf: p[reach + o:n - reach + o].take(i, 0, buf, "clip"), out)
        at = ((rows < reach) | (rows >= n - reach)).nonzero()[0]
        ends = rows[at]
    if ends.size:   # the one-sided stencils, mirrored at the last `reach` samples (_STENCILS),
        s = np.where(ends < reach, 1, -1)   # summed in a gathered copy of their rows
        out[at] = stencil(one_sided, lambda o, _: p[ends + s * o] * (s**order)[:, None], out[at])
    return frozen(out)


def speed(d: DerivativeStack) -> np.ndarray:
    """Per-sample speed: Euclidean norm of the first derivative (np.linalg.norm's sum)."""
    return np.sqrt(np.add.reduce(d.d1 * d.d1, axis=1))


# ---------------------------------------------------------------------------
# Trajectory files (the formats are described in formats.py).
# ---------------------------------------------------------------------------


def load_trajectory(source, format: str = "csv", frame_rate: float = 60.0) -> TimedTrajectory:
    """Read a trajectory from a CSV or JSON path, stream, or bytes.

    For CSV the frame rate comes from ``frame_rate`` (the file has none); for
    JSON it comes from the file's "fps" field.  Dimensionality is inferred
    from the columns present.  Malformed rows, non-monotone or non-consecutive
    frame indices, and mixed dimensionality raise ParseError naming the row.
    A path or a seekable binary stream is never held whole: it is read twice, _PIECE_CHARS
    bytes at a time, as ASCII after any BOMs with CRs made LF.  The first pass counts the rows
    and checks the bytes; the second parses the rows a piece at a time into the points,
    allocated once, so the load holds about the points and one piece.  Bytes, and any other
    stream, read whole (a text stream's str as read_text's text), take the same passes from
    memory.  A file not in ASCII, JSON "points" that are not the last member or hold a '"',
    and any doubt go to the whole document, decoded by read_text, whose reader gives the
    result or names the error.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown trajectory format {format!r}")
    rewound, decode = _opener(source)
    # the loads make no cycles: the collector would only re-walk their lists, freed on return
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            loaded = (_load_csv if format == "csv" else _load_json_pieces)(rewound)
        except ValueError:   # any doubt: the whole document gives the result or the error
            loaded = None
        if loaded is None:   # out of the handler, whose traceback holds the points parsed so far
            with rewound() as fh:
                text = decode(fh.read())
            loaded = _load_csv_rows(text) if format == "csv" else (parse_json(text), None)
            del text   # before the points are built from the lists
        if format == "csv":
            return TimedTrajectory(frozen(loaded[1]), frame_rate, loaded[0])
        return _load_json(*loaded)
    finally:
        if enabled:
            gc.enable()


def _opener(source):
    """(rewound, decode): ``rewound()`` gives a binary stream of ``source`` from its start, for a
    with block, at each call, and ``decode`` makes its bytes read_text's text.  A path is opened
    afresh and a seekable binary stream sought back (and left open); anything else is read whole
    once and served from memory, a text stream's str as read_text's text in _UTF8."""
    if isinstance(source, (str, os.PathLike)):
        return lambda: open(source, "rb"), read_text
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) and source.seekable():
        start = source.tell()
        return lambda: (source.seek(start), contextlib.nullcontext(source))[1], read_text
    data = read_bytes(source)
    if isinstance(data, str):
        data = read_text(data).encode(*_UTF8)
        return lambda: io.BytesIO(data), lambda raw: raw.decode(*_UTF8)
    return lambda: io.BytesIO(data), read_text


_UTF8 = ("utf-8", "surrogatepass")   # how the loaders' bytes hold any str, lone surrogates too
_BOM = b"\xef\xbb\xbf"   # a UTF-8 byte order mark
_BOMS = re.compile(rb"(?:\xef\xbb\xbf)*")
_CSV_HEADERS = (["frame", "x", "y"], ["frame", "x", "y", "z"])
# ASCII controls numpy's number parsers skip as whitespace but int() and float() refuse
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


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


def _load_csv(rewound) -> tuple[int, np.ndarray]:
    """The first frame and the points: ``np.loadtxt`` over the rows after a plain header line.

    The first pass counts the lines and checks each piece of whole lines (``_pieces``); the
    second parses the pieces into the points, allocated once.  Anything the passes refuse or
    cannot vouch for (quoting, a bad field, a frame gap or repeat, a non-finite value, no rows)
    raises ValueError, and the row loop, which accepts exactly what it always has and otherwise
    names the row, reads the file.  So does non-ASCII text (numpy reads some non-ASCII letters
    as digits), a control numpy skips as space, and a line that may hold a field over
    ``csv.field_size_limit()``, which the row loop refuses whether or not it is quoted.
    """
    if not _LOADTXT_EXACT_INTS:
        raise ValueError("np.loadtxt reads 1.5 as an int64")
    lines = 0
    with rewound() as fh:
        for piece in _pieces(fh, b"\n"):
            if any(c in piece for c in _NUMPY_ONLY_SPACE) \
                    or not _lines_within(piece, csv.field_size_limit()):
                raise ValueError("a control numpy skips, or a long line")
            lines += piece.count(b"\n") + (piece[-1:] != b"\n")   # the last line may have no LF
    points, k, frames = None, 0, np.zeros(0, np.int64)   # frames: the first and last so far
    with rewound() as fh:
        for piece in _pieces(fh, b"\n"):
            if points is None:   # the first piece holds the header line
                end = piece.find(b"\n")
                if end < 0 or [c.strip().lower() for c in piece[:end].decode().split(",")] \
                        not in _CSV_HEADERS:
                    raise ValueError("no plain header line, or no rows")
                dtype = np.dtype([("frame", np.int64),
                                  ("xyz", np.float64, (piece.count(b",", 0, end),))])
                points, piece = np.empty((lines - 1, *dtype["xyz"].shape)), piece[end + 1:]
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
    if not k:   # loadtxt would have warned
        raise ValueError("no rows")
    return frames[0], points if k == len(points) else points[:k].copy()   # short by empty lines


def _load_csv_rows(text: str) -> tuple[int, np.ndarray]:
    """The first frame and the points of a CSV text, row by row, naming the first bad row."""
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
    return frames[0], points


def _load_json(obj, points: np.ndarray | None) -> TimedTrajectory:
    """The trajectory of a JSON document's object; its points, if not given, from its lists."""
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


_PIECE_CHARS = 1 << 16   # bytes read, and about the bytes of rows or "points" parsed, at a time
_WRITE_ROWS = 8192   # CSV rows save_trajectory formats at a time
_POINTS_KEY = re.compile(rb'(?<!\\)"points"[ \t\n\r]*:[ \t\n\r]*\[')   # quote not escaped


def _pieces(fh, mark: bytes, stop: int = sys.maxsize):
    """The first ``stop`` bytes of ``fh`` after any byte order marks, each CR LF or lone CR made
    LF (also where the reads split them), read _PIECE_CHARS at a time and cut after the last
    ``mark`` of each read that has one: pieces of about _PIECE_CHARS bytes, each but the last
    ending in ``mark``.  ValueError at the first read that holds a byte not in ASCII."""
    chunk, parts, pos, cr = b"", [], 0, False   # cr: the last read ended with a CR
    while _BOM.startswith(chunk) and (more := fh.read(_PIECE_CHARS)):   # a BOM the reads split
        chunk += more
        chunk = chunk[_BOMS.match(chunk).end():]
    while chunk and pos < stop:
        if not chunk.isascii():
            raise ValueError("a byte not in ASCII")
        if cr and chunk.startswith(b"\n"):   # the LF of a CR LF the reads split
            chunk = chunk[1:]
        cr = chunk.endswith(b"\r")
        chunk = (chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in chunk
                 else chunk)[:stop - pos]
        pos += len(chunk)
        if cut := chunk.rfind(mark) + 1:
            yield b"".join([*parts, memoryview(chunk)[:cut]])
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
        chunk = fh.read(_PIECE_CHARS)
    if rest := b"".join(parts):
        yield rest


def _load_json_pieces(rewound) -> tuple[dict, np.ndarray]:
    """The object, its "points" emptied, and the points, when they are its last member and hold
    no '"'.  The first pass finds the last '"', which must end the "points" key, the first '['
    after it, which opens the points, the rows (the further '['s) and the last ']', which must
    close them with only '}' after it.  The second parses the members before the key, then the
    rows a piece (``_pieces``) at a time into the points, allocated once.  A piece is parsed
    only if its bytes less JSON's number characters and whitespace are the '[' that opens the
    points (the first) or the ',' after the last piece's row, then "[,]" or "[,,]" rows, as wide
    as the first, joined by commas: what JSON then accepts are rows of numbers, as _point_rows
    would check.  ValueError when the bytes are laid out otherwise or a piece is in doubt."""
    quote = start = -1
    opens, pos, piece = 0, 0, b""
    with rewound() as fh:
        for piece in _pieces(fh, b"]"):
            if i := piece.rfind(b'"') + 1:   # the '['s counted from the last '"' on
                quote, start, opens = pos + i - 1, -1, 0
            if start < 0 and (j := piece.find(b"[", i)) >= 0:
                start = pos + j
            opens += piece.count(b"[", i)
            pos += len(piece)
    tail = piece[piece.rfind(b"]") + 1:]   # the last piece holds all that follows the last ']'
    close = pos - len(tail) - 1
    if not (0 <= quote < start < close and tail.strip(b" \t\n\r") == b"}"):
        raise ValueError('"points" is not the last member, or holds a string')
    points, n = None, 0
    with rewound() as fh:
        pieces, head = _pieces(fh, b"]", close), []
        for piece in pieces:   # the members before the points, and the first rows
            head.append(piece)
            if sum(map(len, head)) > start:
                break
        head = b"".join(head)
        key = _POINTS_KEY.match(head, quote - 7)
        if not key:
            raise ValueError("the last '\"' ends no \"points\" key")
        obj = parse_json(head[:key.start()].decode() + '"points": []}')
        for piece in itertools.chain([head[start:]], pieces):
            if not piece.strip(b" \t\n\r"):   # the space before the ']' that closes the points
                continue
            shape = piece.translate(None, b"0123456789+-.eE \t\n\r")   # brackets, commas
            if not n:   # the first row's shape sets the width
                row = shape[1:shape.find(b"]") + 1]
            k = shape.count(b"[") - (not n)
            if not (k and row in (b"[,]", b"[,,]")
                    and shape == (b"," if n else b"[") + (row + b",") * (k - 1) + row):
                raise ValueError("a piece is not rows of 2 or 3 numbers")
            # after the first piece, a row in place of the last piece's before the ','
            rows = parse_json(("[[]" if n else "") + piece.decode() + "]")
            block = _point_rows(rows[bool(n):], len(row) - 1, shaped=True)
            del rows   # before the next piece's lists are built
            if block is None:
                raise ValueError("a number beyond the float range")
            if not n:
                points = np.empty((opens - 1, len(row) - 1))
            points[n:n + k] = block
            n += k
    if not n or n < len(points):   # no rows, or a '[' in no row
        raise ValueError("no rows")
    return obj, points


def save_trajectory(traj: TimedTrajectory, dest, format: str = "csv") -> None:
    """Write a trajectory as CSV or JSON (floats at 9 significant digits); the JSON
    is laid out as ``json.dumps(obj, indent=2)`` writes it.  Both are written in pieces
    of _WRITE_ROWS rows, each formatted as it is written, so no piece outlives its write."""
    pts, starts = traj.points, range(0, traj.n_samples, _WRITE_ROWS)

    def laid_out(a):   # json_pieces of the trajectory with only its points a to a + _WRITE_ROWS
        flat = float9s(pts[a:a + _WRITE_ROWS].ravel().tolist())
        return json_pieces({"fps": float9(traj.frame_rate), "start_frame": traj.start_frame,
                            "points": list(zip(*[iter(flat)] * traj.dim))})

    if format == "csv":
        row = "%d" + ",%.9g" * traj.dim + "\n"
        blocks = (enumerate(pts[a:a + _WRITE_ROWS].tolist(), traj.start_frame + a) for a in starts)
        text = itertools.chain(["frame," + ",".join("xyz"[: traj.dim]) + "\n"],
                               ("".join([row % (n, *p) for n, p in block]) for block in blocks))
    elif format == "json":   # the first block's pieces end "[", nl, its rows, "\n  ]", "\n}"
        *head, nl, rows, close_points, close = laid_out(0)   # the later rows follow "," and nl
        text = itertools.chain(head, [nl, rows], itertools.chain.from_iterable(
            [",", nl, laid_out(a)[-3]] for a in starts[1:]), [close_points, close, "\n"])
    else:
        raise ValueError(f"unknown trajectory format {format!r}")
    write_text(dest, text)


