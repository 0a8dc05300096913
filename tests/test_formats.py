"""Every file format read back as written, and the CLI on mutated files.

The round-trip tests check that each writer's output, read back by its
loader, gives the same data (coordinates and scores at the 9 significant
digits the writers emit).  The mutation fuzz runs ``cli.main`` in-process
on byte-level mutations of small valid files: each run must succeed, or
exit 2 with a message that names the mutated file.  ``json_text``, the one
layout every JSON writer uses, is checked against ``json.dumps(obj, indent=2)``.
"""

import contextlib
import enum
import io
import json
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajkf import (
    Annotations,
    CurveSpec,
    EvaluationReport,
    KeyframeSet,
    MeritMethod,
    ParseError,
    Peak,
    SigningInterval,
    TimedTrajectory,
    generate,
    load_annotations,
    load_trajectory,
    save_annotations,
    save_trajectory,
)
from trajkf.cli import main
from trajkf.formats import MAX_N_FRAMES, float9, float9s, json_text, keyframes_from_json, \
    keyframes_to_json, write_text
from oracles import ODD_FLOATS, brute_keyframes_json

finite = st.floats(allow_nan=False, allow_infinity=False)


def written(save, *args) -> bytes:
    out = io.StringIO()
    save(*args, out)
    return out.getvalue().encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fmt=st.sampled_from(["csv", "json"]), dim=st.sampled_from([2, 3]),
       start=st.one_of(st.sampled_from([0, 2**31, 2**63 - 3]), st.integers(0, 2**64)),
       fps=st.floats(1e-3, 1e6), data=st.data())
def test_trajectory_round_trip(fmt, dim, start, fps, data):
    rows = data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                              min_size=1, max_size=8))
    traj = TimedTrajectory(np.array(rows), fps, start)
    back = load_trajectory(written(lambda out: save_trajectory(traj, out, fmt)), fmt, fps)
    assert back.start_frame == start
    assert back.frame_rate == (fps if fmt == "csv" else float9(fps))
    assert back.points.tolist() == [[float9(x) for x in row] for row in rows]


frame = st.integers(0, 2**62)


# the fields `trajkf synth` adds: the frame rate, and for some curves their constants
synth_extra = st.one_of(
    st.none(),
    st.fixed_dictionaries({"fps": finite}),
    st.fixed_dictionaries({"fps": finite, "analytic": st.fixed_dictionaries(
        {"kappa": finite, "tau_abs": st.one_of(st.none(), finite)})}),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(intervals=st.lists(st.tuples(frame, frame).map(sorted), max_size=5),
       keyframes=st.lists(frame, max_size=8),
       n_frames=st.one_of(st.none(), st.integers(1, MAX_N_FRAMES)), extra=synth_extra)
def test_annotations_round_trip(intervals, keyframes, n_frames, extra):
    ann = Annotations(tuple(SigningInterval(*itv) for itv in intervals), tuple(keyframes),
                      n_frames)
    text = written(lambda out: save_annotations(ann, out, extra=extra))
    assert load_annotations(text) == ann
    obj = {"intervals": [{"start": a, "end": b} for a, b in intervals], "keyframes": keyframes,
           **({} if n_frames is None else {"n_frames": n_frames}), **(extra or {})}
    assert text.decode() == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frames=st.lists(frame, max_size=8), data=st.data(),
       method=st.one_of(st.none(), st.sampled_from(MeritMethod)), shortfall=st.booleans(),
       n_frames=st.one_of(st.none(), st.integers(1, MAX_N_FRAMES)))
def test_keyframes_round_trip(frames, data, method, shortfall, n_frames):
    scores = data.draw(st.lists(finite, min_size=len(frames), max_size=len(frames)))
    ks = KeyframeSet(tuple(frames), tuple(scores), method, shortfall)
    back, back_n = keyframes_from_json(keyframes_to_json(ks, 0, n_frames).encode())
    assert back == KeyframeSet(tuple(frames), tuple(map(float9, scores)), method, shortfall)
    assert back_n == n_frames


@pytest.mark.parametrize("frames", [(), (3,), tuple(range(len(ODD_FLOATS)))])
@pytest.mark.parametrize("method", [None, MeritMethod.MT])
@pytest.mark.parametrize("start_frame,n_frames", [(0, None), (0, 2**62), (7, None), (2**40, 2**41)])
@pytest.mark.parametrize("shortfall", [False, True])
def test_keyframes_json_equals_indent_encoder(frames, method, start_frame, n_frames, shortfall):
    ks = KeyframeSet(frames, tuple(ODD_FLOATS[:len(frames)]), method, shortfall)
    assert keyframes_to_json(ks, start_frame, n_frames) == \
        brute_keyframes_json(ks, start_frame, n_frames)


def test_records_keep_what_callers_rely_on(monkeypatch):
    for make in (SigningInterval, SigningInterval(0, 9)._replace):   # as dataclasses.replace
        for start, end in [(5, 3), (-1, 2)]:
            with pytest.raises(ValueError) as exc:
                make(start=start, end=end)
            assert str(exc.value) == f"invalid interval [{start}, {end}]"
    with pytest.raises(ParseError) as exc:
        load_annotations(b'{"intervals": [{"start": 0, "end": 1}, {"start": 5, "end": 3}]}')
    assert str(exc.value) == "intervals[1]: invalid interval [5, 3]"

    itv = SigningInterval(2, 4)
    records = [itv, Annotations((itv,), (3,), 10),
               KeyframeSet((3,), (0.5,), MeritMethod.MT, True),
               EvaluationReport(0.5, 0.25, 0.3, 5, r_c=1.0, c_s=0.0,
                                per_sign=({"start": 2, "end": 4, "l_x": 1, "l_s": 1},)),
               Peak(3, 0.5, 0.25)]
    # field order and defaults: positional construction and _replace rely on them
    assert [(type(r)._fields, type(r)._field_defaults) for r in records] == [
        (("start", "end"), {}),
        (("intervals", "keyframes", "n_frames"),
         {"intervals": (), "keyframes": (), "n_frames": None}),
        (("frames", "scores", "method", "shortfall"), {"method": None, "shortfall": False}),
        (("recall", "precision", "f2", "delta", "r_c", "c_s", "per_sign", "degenerate"),
         {"r_c": None, "c_s": None, "per_sign": None, "degenerate": False}),
        (("frame", "value", "prominence"), {}),
    ]
    for record, field in zip(records, ["end", "keyframes", "frames", "f2", "value"]):
        with pytest.raises(AttributeError):   # frozen: dataclasses' error was a subclass
            setattr(record, field, None)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
    # equal intervals hash equal, so pipeline's dict.fromkeys drops a repeat
    assert hash(SigningInterval(2, 4)) == hash(itv)
    assert list(dict.fromkeys([itv, SigningInterval(2, 4), SigningInterval(2, 5)])) == \
        [itv, SigningInterval(2, 5)]
    # perfbench/tracing.py counts interval checks by patching the class
    monkeypatch.setattr(SigningInterval, "contains", lambda self, frame: "patched")
    assert itv.contains(3) == "patched"


def test_paths_may_be_any_path_like(tmp_path):
    ann = Annotations((SigningInterval(0, 4),), (2,), 5)
    save_annotations(Annotations(), tmp_path / "ann.json")
    (entry,) = os.scandir(tmp_path)   # an os.DirEntry: a path, not a stream
    save_annotations(ann, entry)
    assert load_annotations(entry) == ann
    assert [e.name for e in os.scandir(tmp_path)] == ["ann.json"]   # no temp file left


class Recorder(io.StringIO):
    """A text stream that keeps each str it is asked to write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def test_write_text_writes_a_str_as_one_piece():
    stream = Recorder()
    write_text(stream, '{\n  "a": 1\n}\n')
    assert stream.writes == ['{\n  "a": 1\n}\n']


def test_write_text_writes_pieces_one_at_a_time(tmp_path):
    pieces = ["[", "\n  ", "", "1.5", ",\n  ", '"%s"', "\n]", "\n"]
    stream = Recorder()
    write_text(stream, iter(pieces))
    write_text(tmp_path / "out.json", iter(pieces))
    assert stream.writes == pieces
    assert stream.getvalue() == (tmp_path / "out.json").read_text() == "".join(pieces)
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_text_piece_that_raises_leaves_old_file_whole(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")

    def pieces():
        yield "[\n"
        raise RuntimeError("no second piece")

    with pytest.raises(RuntimeError, match="no second piece"):
        write_text(path, pieces())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.json"]   # no .tmp-* file left


# --- the one JSON layout ----------------------------------------------------

# strings the encoder escapes, and the % and newline a template or a split could misread
strings = st.one_of(st.text(max_size=6),
                    st.lists(st.sampled_from(['a', '%', '%s', '\n', '"', '\\', '\t', '\x00', 'é',
                                              '\u2028', '\U0001f600', ',', ': ']), max_size=4)
                    .map("".join))
scalar = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                   st.sampled_from(ODD_FLOATS), st.floats(), strings)


def rows_of(values, n_min=1):
    """Equal-shaped rows: dicts with one key order, or lists and tuples of one length."""
    keyed = st.lists(strings, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.lists(values, min_size=len(keys), max_size=len(keys))
                              .map(lambda vs: dict(zip(keys, vs))), min_size=n_min, max_size=5))
    listed = st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(values, min_size=k, max_size=k)
                           .flatmap(lambda row: st.sampled_from([row, tuple(row)])),
                           min_size=n_min, max_size=5))
    return st.one_of(keyed, listed)


# rows that are nearly equal-shaped: dicts of few keys, so often one length in another
# order, and lists of one to three scalars
near_rows = st.one_of(
    st.lists(st.dictionaries(st.sampled_from(["a", "b", "c"]), scalar, max_size=3),
             min_size=2, max_size=4),
    st.lists(st.lists(scalar, min_size=1, max_size=3), min_size=2, max_size=4))


def containers(children):
    return st.one_of(st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
                     st.dictionaries(strings, children, max_size=5),
                     rows_of(scalar), rows_of(children), near_rows)


tree = st.recursive(st.one_of(scalar, rows_of(scalar)), containers, max_leaves=25)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(obj=tree, shared=st.lists(st.one_of(scalar, tree), max_size=4))
def test_json_text_equals_indent_encoder(obj, shared):
    assert json_text(obj) == json.dumps(obj, indent=2)
    # one list at two places of one depth, and at a third place one level deeper
    obj = [shared, obj, shared, {"again": shared}]
    assert json_text(obj) == json.dumps(obj, indent=2)


class Color(enum.IntEnum):
    RED = 1
    BLUE = 3


class Tenth(float):
    pass


@pytest.mark.parametrize("obj", [
    [np.float64(0.5), Tenth(0.1), Color.RED, True],
    {1: "int", 2.5: "float", None: "null", False: "bool", Color.BLUE: "enum"},
    [{1: 0}, {True: 0}],
    [{"k": Color.RED}, {"k": 2}],
    [object()],
    {"a": [1, {2, 3}]},
    {(1, 2): "tuple key"},
    [[1, np.int64(2)], [3, 4]],
])
def test_json_text_odd_types_as_json_dumps(obj):
    try:
        want = json.dumps(obj, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            json_text(obj)
    else:
        assert json_text(obj) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(xs=st.lists(st.one_of(st.floats(), st.sampled_from(ODD_FLOATS),
                             st.integers(-2**60, 2**60)), max_size=20))
def test_float9s_rounds_each_as_float9(xs):
    want = [float9(x) for x in xs]
    assert list(map(repr, float9s(xs))) == list(map(repr, want))


# --- mutation fuzz ---------------------------------------------------------

ROLES = ["csv", "json", "annotations", "keyframes"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 30-sample one-sign clip in both trajectory formats, its truth and its keyframes."""
    work = tmp_path_factory.mktemp("valid")
    clip = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=0.3,
                              rest_duration=0.1, n_segments=1, noise_sigma=0.001), seed=1)
    traj = clip.trajectory
    files = {"csv": work / "clip.csv", "json": work / "clip.json",
             "annotations": work / "truth.json", "keyframes": work / "keys.json"}
    save_trajectory(traj, files["csv"], "csv")
    save_trajectory(traj, files["json"], "json")
    save_annotations(Annotations(clip.intervals, clip.keyframes, traj.n_samples),
                     files["annotations"])
    assert main(["extract", str(files["csv"]), "--count", "2",
                 "-o", str(files["keyframes"])]) == 0
    return work, files


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def commands(role, mutated, files, out):
    """The extract and evaluate runs that read the mutated file."""
    if role in ("csv", "json"):
        return [["extract", mutated, "--format", role, "--count", "2", "-o", out],
                ["extract", mutated, "--format", role, "--r-c", "1",
                 "--annotations", files["annotations"], "-o", out]]
    if role == "annotations":
        return [["extract", files["csv"], "--r-c", "1", "--annotations", mutated, "-o", out],
                ["evaluate", "--pred", files["keyframes"], "--truth", mutated, "-o", out],
                ["evaluate", "--pred", files["keyframes"], "--truth", mutated,
                 "--per-gloss", "-o", out]]
    return [["evaluate", "--pred", mutated, "--truth", files["annotations"], "-o", out],
            ["evaluate", "--pred", mutated, "--truth", files["annotations"],
             "--per-gloss", "--r-c", "0.5,2", "--delta", "0,3", "-o", out]]


TOKENS = [b",", b"\n", b"\r", b"\r\n", b'"', b"-", b".", b"e", b"0", b"9" * 20, b"nan",
          b"1e999", b"[", b"]", b"{", b"}", b":", b"true", b"null", b"\xef\xbb\xbf",
          b"\x00", b"\xff", b"\xc3", b" "]


def mutate(data, text: bytes) -> bytes:
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
        if op == "truncate":
            text = text[:at]
            continue
        token = data.draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=2)))
        cut = data.draw(st.integers(1, 8)) if op == "delete" else int(op == "replace")
        text = text[:at] + (b"" if op == "delete" else token) + text[at + cut:]
    return text


def check_runs(role, text, valid_files):
    work, files = valid_files
    mutated = work / f"mutated-{role}{files[role].suffix}"
    mutated.write_bytes(text)
    for argv in commands(role, mutated, files, work / "out.json"):
        code, err = run_quietly(argv)
        assert code == 0 or (code == 2 and str(mutated) in err), (argv, code, err)


@pytest.mark.parametrize("role", ROLES)
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_file_exits_0_or_2_naming_it(valid_files, role, data):
    _, files = valid_files
    check_runs(role, mutate(data, files[role].read_bytes()), valid_files)


@pytest.mark.parametrize("role,text", [
    pytest.param("csv", b"\x80frame,x,y\n0,1,2\n", id="not_utf8"),
    # the truth's interval [6, 23] lies past the one-sample clip
    pytest.param("csv", b"frame,x,y,z\n0,-0.000736454087,-0.000162909948,-0", id="one_sample"),
    pytest.param("annotations", b'{"keyframes": [15], "n_frames": 30}', id="no_intervals"),
    pytest.param("annotations", b'{"intervals": [{"start": 6, "end": 23}], "n_frames": 30}',
                 id="no_keyframes"),
    pytest.param("annotations", b'{"intervals": [{"start": 6, "end": 23}], "keyframes": [115], '
                                b'"n_frames": 30}', id="keyframe_past_the_end"),
])
def test_found_mutation_exits_0_or_2_naming_it(valid_files, role, text):
    check_runs(role, text, valid_files)
