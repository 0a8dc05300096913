"""The files trajkf reads and writes, on the standard library alone.

Text I/O, the one JSON layout rule and 9-digit floats; annotation and
keyframe files, read into named tuples, with the one keyframe ranking rule
and the one budget rule; the method and curve kind tags the command line
accepts.  ``trajkf evaluate`` needs nothing else, so it imports no numpy.
Trajectory files hold arrays: ``trajectory`` reads and writes them with the
helpers here.

Trajectory CSV:  header "frame,x,y[,z]", one row per frame, frame indices
                 consecutive and strictly increasing; frame rate supplied out
                 of band.
Trajectory JSON: {"fps": number, "start_frame": int, "points": [[x,y(,z)],..]}
Annotations:     {"intervals": [{"start": int, "end": int}, ...],
                  "keyframes": [int, ...], "n_frames": int (optional)}
Keyframes:       {"method": str, "frames": [int], "scores": [float],
                  "shortfall": bool, "n_frames": int (optional)}
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections import namedtuple
from enum import Enum
from operator import neg


class ParseError(ValueError):
    """A trajectory or annotation file violates its schema."""


def read_bytes(source):
    """The bytes of a path (str or any os.PathLike), bytes as given, or a stream's ``read()``
    (str from a text stream), uncopied: load_trajectory parses ASCII from them."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source if isinstance(source, bytes) else source.read()


def read_text(data) -> str:
    """``data`` from ``read_bytes`` as text, by one rule for every source: UTF-8, with
    universal newlines (CR LF and a lone CR each read as LF) and leading byte order
    marks removed.  It holds the bytes and the text together, 2x an ASCII file, so
    load_trajectory decodes only text streams and files not in ASCII."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n").lstrip("\ufeff")


def write_text(dest, text: str) -> None:
    """Write ``text`` to a stream, or atomically to a path (str or any os.PathLike).

    A path gets a temp file in its directory, renamed over it once written,
    so a failed write leaves any old file whole.  The temp file is created
    with mode 0o666, which the umask narrows as for any new file.
    """
    if not isinstance(dest, (str, os.PathLike)):
        dest.write(text)
        return
    target = os.fsdecode(dest)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".tmp-{os.urandom(8).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise


def parse_json(text: str):
    """``json.loads`` with every failure as a ParseError: a JSONDecodeError, the
    ValueError of an over-long integer literal, or deep nesting's RecursionError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def json_finite_number(v) -> bool:
    """A JSON number inside the float range; bools and strings are not numbers."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


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


MAX_N_FRAMES = 2**62   # longest video a file may name: its frames fit in int64


def json_n_frames(obj: dict) -> int | None:
    """The optional "n_frames" field of a JSON object: an integer in [1, MAX_N_FRAMES]."""
    n_frames = obj.get("n_frames")
    if n_frames is not None and (type(n_frames) is not int
                                 or not 0 < n_frames <= MAX_N_FRAMES):
        raise ParseError('"n_frames" must be a positive integer at most 2**62')
    return n_frames


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


def float9(x: float) -> float:
    """Round to 9 significant digits (canonical precision for emitted files)."""
    return float(format(float(x), ".9g"))


def float9s(xs) -> list[float]:
    """``[float9(x) for x in xs]``, formatted by one % pass."""
    return list(map(float, ("%.9g " * len(xs) % tuple(xs)).split()))


class SigningInterval(namedtuple("SigningInterval", "start end")):
    """Inclusive sample-index range [start, end] (ints) covering one rest-to-rest motion."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"invalid interval [{start}, {end}]")
        return super().__new__(cls, start, end)

    @classmethod
    def _make(cls, iterable):   # _replace builds through _make: check as __new__ does
        return cls(*iterable)

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def contains(self, frame: int) -> bool:   # kept for perfbench/tracing.py
        return self.start <= frame <= self.end


class Annotations(namedtuple("Annotations", "intervals keyframes n_frames",
                             defaults=((), (), None))):
    """Ground-truth signing intervals and keyframe indices for one video: tuples
    ``intervals`` of SigningInterval and ``keyframes`` of int, and ``n_frames``, int or None."""

    __slots__ = ()


def load_annotations(source) -> Annotations:
    """Read an interval/keyframe annotation JSON file."""
    obj = parse_json(read_text(read_bytes(source)))
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


def save_annotations(ann: Annotations, dest, extra: dict | None = None) -> None:
    """Write an annotation file, ``extra``'s fields last, as ``json.dumps(obj, indent=2)``."""
    obj: dict = {"intervals": [{"start": i.start, "end": i.end} for i in ann.intervals],
                 "keyframes": list(ann.keyframes)}
    if ann.n_frames is not None:
        obj["n_frames"] = ann.n_frames
    obj.update(extra or {})
    write_text(dest, json_text(obj) + "\n")


class MeritMethod(Enum):
    """Descriptor used to rank frames; values match the CLI / file tags."""

    MT = "mt"
    K2DT = "k2dt"
    K3DT = "k3dt"
    KAPPA2DS = "k2ds"
    KAPPA3DS = "k3ds"


class KeyframeSet(namedtuple("KeyframeSet", "frames scores method shortfall",
                             defaults=(None, False))):
    """Selected frames with their prominence scores, sorted by frame; the frames
    select_keyframes picks are distinct (a keyframe file's are as it lists them).
    Tuples ``frames`` of int and ``scores`` of float, ``method`` a MeritMethod or
    None, ``shortfall`` a bool."""

    __slots__ = ()


def rank_order(frames, scores) -> list[int]:
    """Positions of ``frames`` by descending score, ties to the earlier frame and
    then to the earlier position: the order in which keyframes are chosen.

    Scores compare as floats, so 0.0 ties -0.0; they must not be NaN.
    """
    order = sorted(range(len(frames)), key=frames.__getitem__)
    negated = list(map(neg, map(float, scores)))
    order.sort(key=negated.__getitem__)   # stable: equal scores keep frame order
    return order


def budget_for_ratio(r_c: float, total_truth: int) -> int:
    """Keyframe budget at ratio r_c: round half away from zero."""
    return int(r_c * total_truth + 0.5)


def keyframes_to_json(ks: KeyframeSet, start_frame: int = 0, n_frames: int | None = None) -> str:
    """The keyframe file, laid out as ``json.dumps(obj, indent=2)`` writes it, plus a newline.

    Its frames are video frame indices (``start_frame`` added); "n_frames" is optional.
    """
    obj = {"method": ks.method.value if ks.method else None,
           "frames": [start_frame + f for f in ks.frames],
           "scores": float9s(ks.scores), "shortfall": ks.shortfall}
    if n_frames is not None:
        obj["n_frames"] = int(n_frames)
    return json_text(obj) + "\n"


def keyframes_from_json(source) -> tuple[KeyframeSet, int | None]:
    """Read a keyframe file; returns the set and its n_frames field if any."""
    obj = parse_json(read_text(read_bytes(source)))
    if not isinstance(obj, dict) or "frames" not in obj:
        raise ParseError('keyframe file must hold an object with a "frames" list')
    frames = json_frames(obj, "frames")
    scores = json_list(obj, "scores") if "scores" in obj else [0.0] * len(frames)
    if len(scores) != len(frames):
        raise ParseError('"scores" and "frames" lengths differ')
    if not (set(map(type, scores)) <= {float} and all(map(math.isfinite, scores))):
        for i, sc in enumerate(scores):
            if not json_finite_number(sc):
                raise ParseError(f"scores[{i}]: must be a finite number")
    shortfall = obj.get("shortfall", False)
    if type(shortfall) is not bool:
        raise ParseError('"shortfall" must be true or false')
    try:
        method = None if obj.get("method") is None else MeritMethod(obj["method"])
    except ValueError:
        raise ParseError(f'"method": unknown method {obj["method"]!r}') from None
    ks = KeyframeSet(
        frames=tuple(frames),
        scores=tuple(map(float, scores)),
        method=method,
        shortfall=shortfall,
    )
    return ks, json_n_frames(obj)


# the curve and phase kinds `trajkf synth` generates
CURVE_KINDS = ("circle", "helix", "line", "planar_polynomial", "piecewise_signing")
PHASE_KINDS = ("linear", "quadratic", "burst")
