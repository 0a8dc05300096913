"""Tests for trajectory containers, file I/O, smoothing, and differentiation."""

import gc
import io
import json
import math
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajkf import (
    Annotations,
    DerivativeStack,
    ParseError,
    SigningInterval,
    TimedTrajectory,
    differentiate,
    gaussian_smooth,
    load_trajectory,
    save_annotations,
    save_trajectory,
    speed,
)
import trajkf.trajectory
from oracles import (
    brute_differentiate,
    brute_load_csv,
    brute_load_json,
    brute_trajectory_text,
    random_rotation,
)
from trajkf.formats import read_text
from trajkf.trajectory import MIN_SAMPLES, derivative, frozen


def make_traj(points, fps=60.0, start=0):
    return TimedTrajectory(np.asarray(points, dtype=float), fps, start)


class TestTimedTrajectory:
    def test_basic_construction(self):
        traj = make_traj([[0, 0], [1, 1], [2, 2]], fps=30.0, start=5)
        assert traj.n_samples == 3
        assert traj.dim == 2
        assert traj.times() == pytest.approx([5 / 30, 6 / 30, 7 / 30])

    def test_rejects_empty_and_bad_dim(self):
        with pytest.raises(ValueError):
            TimedTrajectory(np.zeros((0, 2)), 60.0)
        with pytest.raises(ValueError):
            TimedTrajectory(np.zeros((4, 4)), 60.0)
        with pytest.raises(ValueError):
            TimedTrajectory(np.zeros((4, 2)), 0.0)

    def test_points_are_immutable(self):
        traj = make_traj([[0, 0], [1, 1], [2, 2]])
        with pytest.raises(ValueError):
            traj.points[0, 0] = 9.0

    def test_frame_rates_keep_the_step_cube_finite_and_normal(self):
        lo, hi = trajkf.trajectory.FRAME_RATES
        pts = np.cumsum(np.ones((8, 3)), axis=0) ** 2
        for rate in (lo, hi, 60.0):
            assert sys.float_info.min <= (1 / rate) ** 3 < math.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                differentiate(make_traj(pts, fps=rate), 3)
        # the bounds are that rule to 3 digits: one step further out breaks it
        with pytest.raises(OverflowError):
            (1 / 1.77e-103) ** 3
        assert (1 / 3.56e102) ** 3 < sys.float_info.min

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, 1.77e-103, 1e-200,
                                      1e-320, 3.56e102, 1e110, 10**400])
    def test_frame_rate_outside_the_range_rejected(self, rate):
        want = r"frame_rate .* is outside \[1.78e-103, 3.55e\+102\]$"
        with pytest.raises(ValueError, match=want):
            TimedTrajectory(np.zeros((4, 2)), rate)


class TestContainerChecks:
    @pytest.mark.parametrize("start,end", [(5, 3), (-1, 3)])
    def test_interval_bounds_rejected(self, start, end):
        with pytest.raises(ValueError, match=rf"invalid interval \[{start}, {end}\]"):
            SigningInterval(start, end)

    def test_contains_holds_both_ends(self):
        # contains is kept only for the benchmark: it must stay the closed span
        for start, end in [(0, 0), (3, 7)]:
            itv = SigningInterval(start, end)
            assert [f for f in range(10) if itv.contains(f)] == list(range(start, end + 1))

    @pytest.mark.parametrize("name", ["d2", "d3"])
    def test_derivative_shapes_must_match(self, name):
        d1 = np.zeros((5, 3))
        with pytest.raises(ValueError, match=rf"{name} shape \(4, 3\) != d1 shape \(5, 3\)"):
            DerivativeStack(d1, **{"d2": d1, name: np.zeros((4, 3))})


class TestTrajectoryFiles:
    def test_csv_two_dim(self):
        text = "frame,x,y\n0,1.0,2.0\n1,1.5,2.5\n2,2.0,3.0\n"
        traj = load_trajectory(io.StringIO(text), "csv", frame_rate=60.0)
        assert traj.dim == 2
        assert traj.n_samples == 3
        assert traj.start_frame == 0

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trajectory format 'xml'"):
            load_trajectory(io.StringIO("frame,x,y\n0,1,2\n"), "xml")
        with pytest.raises(ValueError, match="unknown trajectory format 'xml'"):
            save_trajectory(make_traj([[0, 0], [1, 1]]), tmp_path / "t.xml", "xml")
        assert not list(tmp_path.iterdir())

    def test_json_empty_points_rejected(self):
        with pytest.raises(ParseError, match='"points" must be a non-empty list'):
            load_trajectory(io.StringIO('{"fps": 60, "points": []}'), "json")

    @pytest.mark.parametrize("fps", ["1e-200", "1e-320", "1e110", "1e300", "0", "true"])
    def test_json_fps_outside_the_frame_rates_rejected(self, fps):
        want = r'"fps" must be a number in \[1.78e-103, 3.55e\+102\], got '
        with pytest.raises(ParseError, match=want):
            load_trajectory(io.StringIO(f'{{"fps": {fps}, "points": [[1, 2], [3, 4]]}}'), "json")

    def test_csv_z_column_gives_3d(self):
        text = "frame,x,y,z\n4,1,2,3\n5,1,2,3\n"
        traj = load_trajectory(io.StringIO(text), "csv")
        assert traj.dim == 3
        assert traj.start_frame == 4

    def test_csv_repeated_frame_rejected(self):
        text = "frame,x,y\n0,1,2\n0,1,2\n"
        with pytest.raises(ParseError, match="row 3"):
            load_trajectory(io.StringIO(text), "csv")

    def test_csv_gap_rejected(self):
        text = "frame,x,y\n0,1,2\n3,1,2\n"
        with pytest.raises(ParseError, match="consecutive"):
            load_trajectory(io.StringIO(text), "csv")

    def test_csv_malformed_row_names_row(self):
        text = "frame,x,y\n0,1,2\n1,oops,2\n"
        with pytest.raises(ParseError, match="row 3"):
            load_trajectory(io.StringIO(text), "csv")

    def test_csv_wrong_width_rejected(self):
        text = "frame,x,y\n0,1,2\n1,1,2,3\n"
        with pytest.raises(ParseError, match="row 3"):
            load_trajectory(io.StringIO(text), "csv")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            load_trajectory(io.StringIO(""), "csv")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_csv_non_finite_coordinate_names_row(self, bad):
        text = f"frame,x,y,z\n0,1,2,3\n1,1,{bad},3\n2,1,2,3\n"
        with pytest.raises(ParseError, match="row 3: non-finite"):
            load_trajectory(io.StringIO(text), "csv")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_json_non_finite_coordinate_names_point(self, bad):
        text = f'{{"fps": 60, "points": [[1, 2, 3], [1, 2, 3], [{bad}, 2, 3]]}}'
        with pytest.raises(ParseError, match="points\\[2\\]: non-finite"):
            load_trajectory(io.StringIO(text), "json")

    def test_json_round_trip(self, tmp_path):
        traj = make_traj([[0.125, 1.5, -2.25], [0.25, 1.0, 3.0]], fps=30.0, start=7)
        path = tmp_path / "t.json"
        save_trajectory(traj, path, "json")
        back = load_trajectory(path, "json")
        assert back.frame_rate == 30.0
        assert back.start_frame == 7
        assert np.array_equal(back.points, traj.points)
        # byte-identical re-serialization
        save_trajectory(back, tmp_path / "t2.json", "json")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    def test_csv_round_trip(self, tmp_path):
        traj = make_traj([[0.5, 1.25], [0.75, 2.0], [1.0, 2.75]], start=2)
        path = tmp_path / "t.csv"
        save_trajectory(traj, path, "csv")
        back = load_trajectory(path, "csv", frame_rate=60.0)
        assert back.start_frame == 2
        assert np.array_equal(back.points, traj.points)
        save_trajectory(back, tmp_path / "t2.csv", "csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_json_mixed_dimensionality_rejected(self):
        text = '{"fps": 60, "points": [[1, 2], [1, 2, 3]]}'
        with pytest.raises(ParseError, match="points\\[1\\]"):
            load_trajectory(io.StringIO(text), "json")


def csv_outcome(load, text):
    """Points bytes, shape and start frame, or the exception's type and text."""
    try:
        points, start = load(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return points.tobytes(), points.shape, start


def library_csv(text):
    traj = load_trajectory(io.StringIO(text), "csv")
    return traj.points, traj.start_frame


def oracle_csv(text):
    # as read_text hands it over: universal newlines, no byte order mark
    return brute_load_csv(text.replace("\r\n", "\n").replace("\r", "\n").lstrip("\ufeff"))


def assert_loads_like_row_loop(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = csv_outcome(library_csv, text)
    assert got == csv_outcome(oracle_csv, text)


H2 = "frame,x,y\n"
CSV_EDGE_CASES = {
    "plain": H2 + "0,1.5,2\n1,2,3\n",
    "plain_3d": "frame,x,y,z\n4,1,2,3\n5,1,2,3\n",
    "quoted_fields": H2 + '"0","1.5",2\n1,2,"3"\n',
    "quoted_header": '"frame","x","y"\n0,1,2\n',
    "plus_frame": H2 + "+5,1,2\n6,1,2\n",
    "float_frame": H2 + "5.0,1,2\n",
    "exponent_frame": H2 + "1e3,1,2\n",
    "20_digit_frame": H2 + "12345678901234567890,1,2\n12345678901234567891,1,2\n",
    "int64_wrap": H2 + "9223372036854775807,1,2\n-9223372036854775808,1,2\n",
    "spaces_and_tabs": H2 + " 0 ,\t1.5\t, 2 \n\t1, 2 ,3\t\n",
    "crlf": "frame,x,y\r\n0,1,2\r\n1,2,3\r\n",
    "blank_line": H2 + "0,1,2\n\n1,2,3\n",
    "blank_crlf_line": "frame,x,y\r\n0,1,2\r\n\r\n1,2,3\r\n",
    "whitespace_only_line": H2 + "0,1,2\n  \n1,2,3\n",
    "comment_line": H2 + "0,1,2\n# note\n1,2,3\n",
    "comment_after_value": H2 + "0,1,2 # note\n",
    "underscore_frame": H2 + "1_0,1,2\n11,1,2\n",
    "underscore_value": H2 + "0,1_5,2\n",
    "nan": H2 + "0,1,2\n1,nan,2\n",
    "infinity": H2 + "0,1,Infinity\n",
    "trailing_comma": H2 + "0,1,2,\n",
    "short_row": H2 + "0,1,2\n1,2\n",
    "gap": H2 + "0,1,2\n2,1,2\n",
    "repeat": H2 + "0,1,2\n0,1,2\n",
    "header_only": H2,
    "header_only_no_newline": "frame,x,y",
    "empty": "",
    "bom": "\ufeff" + H2 + "0,1,2\n",
    "bom_in_value": H2 + "0,\ufeff1,2\n",
    "nbsp_padding": H2 + "\xa00\xa0,1,2\n",
    # characters numpy's parsers read as whitespace or digits and int() does not
    "file_separator_padding": H2 + "\x1c0,1,2\n",
    "non_ascii_letters": H2 + "\u01fe5\u01fe,1,2\n",
    "lone_cr_in_header": "frame,x\r,y\n0,1,2\n",
    "lone_cr_in_row": H2 + "0,1,2\r1,2,3\n",
    # a field over csv.field_size_limit() (131072 characters), bare and quoted
    "over_long_field": H2 + "0,0." + "0" * 200_000 + "1,2\n1,1,2\n",
    "over_long_quoted_field": H2 + '0,"0.' + "0" * 200_000 + '1",2\n1,1,2\n',
    "long_field_within_limit": H2 + "0,0." + "0" * 131_000 + "1,2\n1,1,2\n",
}


class TestCsvLoaderMatchesRowLoop:
    @pytest.mark.parametrize("text", CSV_EDGE_CASES.values(), ids=CSV_EDGE_CASES.keys())
    def test_edge_case(self, text):
        assert_loads_like_row_loop(text)

    @pytest.mark.parametrize("text", CSV_EDGE_CASES.values(), ids=CSV_EDGE_CASES.keys())
    def test_edge_case_a_piece_a_row(self, text, monkeypatch):
        # every cut is after the next row's "\n"
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 1)
        assert_loads_like_row_loop(text)

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_text(self, data, monkeypatch):
        # pieces of a few characters: the frames must run on across every cut, the wrap too
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", data.draw(st.integers(1, 16)))
        dim = data.draw(st.sampled_from([2, 3]))
        start = data.draw(st.sampled_from([0, 7, -3, 2**63 - 2]))
        value = st.one_of(st.integers(-9, 9).map(float),
                          st.floats(allow_nan=False, allow_infinity=False))
        rows = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), max_size=5))
        # frames count on like an int64 counter, so 2**63 - 1 is followed by -2**63
        text = "\n".join(["frame,x,y,z"[: 5 + 2 * dim]]
                         + [",".join([str((start + i + 2**63) % 2**64 - 2**63), *map(repr, row)])
                            for i, row in enumerate(rows)])
        text += data.draw(st.sampled_from(["", "\n", "\r\n"]))
        tokens = st.sampled_from([",", '"', "+", "_", "#", ".", "e", "-", "\r", "\n", "\t",
                                  " ", "nan", "\ufeff", "\r\n", "0", "1", "9" * 19,
                                  "\x1c", "\xa0", "\u01fe"])
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(text)))
            op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            token = "" if op == "delete" else data.draw(tokens)
            text = text[:at] + token + text[at + (op != "insert"):]
        assert_loads_like_row_loop(text)

    def test_peak_memory_is_bounded(self):
        # 20k rows of 3-D text (0.86 MB): a string per field would peak near 15 MB
        traj = make_traj(np.random.default_rng(6).uniform(-1, 1, (20_000, 3)))
        out = io.StringIO()
        save_trajectory(traj, out, "csv")
        data = out.getvalue().encode()
        load_trajectory(data, "csv")   # warm-up: first-call allocations are not the load's
        tracemalloc.start()
        try:
            back = load_trajectory(data, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.n_samples == 20_000
        assert peak < 12e6


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim", [2, 3])
def test_writer_bytes_equal_per_value_writer(fmt, dim, monkeypatch):
    # random bit patterns: every sign and exponent, 1e-300 and 1e300 alike; the CSV is
    # formatted in pieces of 150 rows, the last one short
    monkeypatch.setattr(trajkf.trajectory, "_WRITE_ROWS", 150)
    bits = np.random.default_rng(dim).integers(0, 2**64, size=(400, dim), dtype=np.uint64)
    pts = bits.view(np.float64)
    pts[~np.isfinite(pts)] = -0.0
    pts[:8, 0] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308, 0.1]
    traj = make_traj(pts, fps=29.97, start=17)
    out = io.StringIO()
    save_trajectory(traj, out, fmt)
    assert out.getvalue() == brute_trajectory_text(traj, fmt)


def json_outcome(load, text):
    """Points bytes, shape, frame rate and start frame, or the exception's type and text."""
    try:
        traj = load(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return traj.points.tobytes(), traj.points.shape, traj.frame_rate, traj.start_frame


# JSON numbers at the edges of the float range: ints past it (2**1024 - 2**970 is
# the first that rounds up out of it), subnormals, signed zero
EDGE_NUMBERS = [0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 2**53 + 1, -(2**64),
                2**1024 - 2**970 - 1, 2**1024 - 2**970, -(10**400), float("nan"), float("inf")]


# header values: in range, out of range, of the wrong type, too long an integer to parse
FPS_TEXTS = ["30", "29.97", "1e-100", "1e-200", "1e200", "0", "-5", "true", '"30"',
             "1" + "0" * 400, "1" + "0" * 5000]
START_FRAME_TEXTS = [None, "4", "0", "-1", "true", "1.5"]
# members with "points" in them that are not the trajectory's points
DECOY_MEMBERS = ['"meta": {"points": [[1, 2]]}', '"name": "points"', '"points": [[7, 8]]',
                 '"a\\"points": [[5, 6]]', '"a\\"points": []']
# how each layout writes a value, and the text between two members
LAYOUTS = {"compact": ({"separators": (",", ":")}, ","),
           "indent": ({"indent": 2}, ",\n  "),
           "spaced": ({"separators": (" \t,\n ", " : ")}, " ,\n  ")}


class TestJsonLoaderMatchesOracle:
    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_points_or_same_error(self, data, monkeypatch):
        # pieces of a few characters: a piece ends at every row's "]", or every few
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", data.draw(st.integers(1, 16)))
        number = st.one_of(st.floats(), st.integers(-(2**70), 2**70),
                           st.sampled_from(EDGE_NUMBERS))
        width = data.draw(st.sampled_from([2, 3]))
        points = data.draw(st.lists(st.lists(number, min_size=width, max_size=width),
                                    min_size=1, max_size=6))
        bad = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                        st.lists(number, max_size=2), number,
                        st.dictionaries(st.text(max_size=2), number, max_size=3))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(points) - 1))
            how = data.draw(st.sampled_from(["value", "width", "row"]))
            if how == "row":
                points[i] = data.draw(bad)
            elif how == "width":
                points[i] = data.draw(st.lists(number, max_size=4))
            elif isinstance(points[i], list) and points[i]:
                points[i][data.draw(st.integers(0, len(points[i]) - 1))] = data.draw(bad)
        dumps, between = LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)))]
        body = json.dumps(points, **dumps)
        defect = data.draw(st.sampled_from([None] * 6 + ["trailing comma", " ", ";", "]"]))
        if defect == "trailing comma":
            body = body[:-1] + ",]"
        elif defect:   # the comma after the first row in its place
            body = re.sub(r"(\][ \t\n]*),", lambda m: m[1] + defect, body, count=1)
        members = [f'"fps": {data.draw(st.sampled_from(FPS_TEXTS))}']
        if (start_frame := data.draw(st.sampled_from(START_FRAME_TEXTS))) is not None:
            members.append(f'"start_frame": {start_frame}')
        members += data.draw(st.lists(st.sampled_from(DECOY_MEMBERS), max_size=2))
        place = data.draw(st.sampled_from(["first", "middle", "last"]))
        members.insert({"first": 0, "middle": len(members) // 2, "last": len(members)}[place],
                       f'"points": {body}')
        text = "{" + between.join(members) + "}"
        expected = json_outcome(brute_load_json, text)
        # a text stream is decoded and re-encoded; ASCII bytes with no CR are parsed as given
        assert json_outcome(lambda t: load_trajectory(io.StringIO(t), "json"), text) == expected
        assert json_outcome(lambda t: load_trajectory(t.encode(), "json"), text) == expected

    # a piece per row; two rows, the empty last piece refused by its shape, then the whole
    # document; the whole document alone
    @pytest.mark.parametrize("text, calls", [
        ('{"fps": 60, "points": [[1, 2], [3, 4]]}', 3),
        ('{"fps": 60, "points": [[1, 2], [3, 4], ]}', 4),
        ('{"points": [[1, 2], [3, 4]], "fps": 60, "tags": [1]}', 1)])
    def test_collector_paused_while_the_lists_live(self, monkeypatch, text, calls):
        states = []
        parse = trajkf.trajectory.parse_json

        def recording(text):
            states.append(gc.isenabled())
            return parse(text)

        monkeypatch.setattr(trajkf.trajectory, "parse_json", recording)
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 1)
        try:
            load_trajectory(io.StringIO(text), "json")
        except ParseError:
            pass
        assert states == [False] * calls and gc.isenabled()

    @pytest.mark.parametrize("text", ['{"fps": 60, "points": [[1, 2], [3, 4], [5, 6]]}',
                                      '{"fps": 60, "points": [[1, 2], [3, "x"]]}',
                                      '{"fps": 60, "points": [[1, 2], '])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, text, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_trajectory(io.StringIO(text), "json")
            except ParseError:
                pass
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("writer", ["save 2-D", "save 3-D", "dumps", "dumps indent 2",
                                        "dumps indent 4"])
    def test_written_files_are_parsed_in_pieces(self, monkeypatch, writer):
        # a silent fallback to the whole document would give the same points, so look at the
        # texts parsed: the members before "points", then pieces of rows, never the document
        rng = np.random.default_rng(11)
        dim = 2 if writer == "save 2-D" else 3
        pts = rng.normal(size=(6000, dim)) * 10.0 ** rng.integers(-300, 300, (6000, dim))
        if writer.startswith("save"):
            out = io.StringIO()
            save_trajectory(make_traj(pts, fps=29.97, start=3), out, "json")
            text = out.getvalue()
        else:
            rows = pts.tolist()
            rows[:3] = [[1, -2, 0][:dim], [-0.0] * dim, [2**53 + 1, 7, -(10**30)][:dim]]
            indent = int(writer[-1]) if writer[-1].isdigit() else None
            text = json.dumps({"fps": 29.97, "start_frame": 3, "points": rows}, indent=indent)
        texts = []
        parse = trajkf.trajectory.parse_json
        monkeypatch.setattr(trajkf.trajectory, "parse_json",
                            lambda t: texts.append(t) or parse(t))
        expected = json_outcome(brute_load_json, text)
        assert json_outcome(lambda t: load_trajectory(t.encode(), "json"), text) == expected
        assert len(texts) > 3 and texts[0].endswith('"points": []}')
        assert all(t.startswith("[") for t in texts[1:])


# raw tokens spliced into the rows' text: in place of a value, in place of a row, or anywhere
VALUE_TOKENS = ["01", "+1", ".5", "1.", "1e", "-", "1 2", "1e5.3", "1\f", "--1", "[]", "[[1]]",
                "-0", "1E+5", "2e-3", "1e400", "-1e999", "123456789012345678901234567890"]
ROW_TOKENS = ["[0, ]1e5", "1e5[0,1]", "[0,1]1e5", "[0, 1e5]", "[]", "[[1]]", "[[0, 1]]",
              "[0,,1]", "[0,\f1]", "[0, 1, 2]", "[0, 1]]", "[[0, 1]"]
SPLICED = [" ", "\f", ",", "[", "]", "[]", "e", "1", ".", "-", "+"]


class TestJsonLoaderTokens:
    @settings(max_examples=1500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_points_or_same_error(self, data, monkeypatch):
        # the rows' text as no json.dumps writes it: numbers JSON refuses or reads otherwise,
        # numbers outside their brackets, empty and nested rows, and whitespace JSON refuses
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", data.draw(st.integers(1, 24)))
        width = data.draw(st.sampled_from([2, 3]))
        number = st.one_of(st.integers(-999, 999), st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_NUMBERS[:10]))
        rows = [[json.dumps(x) for x in row] for row in data.draw(
            st.lists(st.lists(number, min_size=width, max_size=width), min_size=1, max_size=6))]
        texts = ["[" + ", ".join(row) + "]" for row in rows]
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(rows) - 1))
            if data.draw(st.booleans()):
                j = data.draw(st.integers(0, width - 1))
                rows[i][j] = data.draw(st.sampled_from(VALUE_TOKENS))
                texts[i] = "[" + ", ".join(rows[i]) + "]"
            else:
                texts[i] = data.draw(st.sampled_from(ROW_TOKENS))
        body = data.draw(st.sampled_from([",", ", ", ",\n  "])).join(texts)
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            at = data.draw(st.integers(0, len(body)))
            body = body[:at] + data.draw(st.sampled_from(SPLICED)) + body[at:]
        text = '{"fps": 30, "start_frame": 2, "points": [' + body + "]}"
        expected = json_outcome(brute_load_json, text)
        assert json_outcome(lambda t: load_trajectory(t.encode(), "json"), text) == expected


def brute_load(text: str, fmt: str) -> TimedTrajectory:
    """The oracle's trajectory from a file's text, at 60 fps for CSV."""
    if fmt == "json":
        return brute_load_json(text)
    points, start = brute_load_csv(text)
    return TimedTrajectory(points, 60.0, start)


def load_outcome(load):
    """Points bytes, shape, frame rate and start frame of load(), or its ParseError's text."""
    try:
        traj = load()
    except ParseError as exc:
        return str(exc)
    return traj.points.tobytes(), traj.points.shape, traj.frame_rate, traj.start_frame


# inserted anywhere: controls numpy skips, non-ASCII digits and letters, a BOM, structure
SOURCE_TOKENS = ["\x00", "\r", "\r\n", "\n", "\ufeff", "\x1c", "\xe9", "\u0661", ",", "]",
                 '"', " "]
# bytes no UTF-8 text holds: a stray continuation byte, a cut sequence, an encoded surrogate
INVALID_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80"]


class TestEverySourceLoadsAlike:
    @settings(max_examples=500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_points_or_same_error(self, data, monkeypatch, tmp_path):
        # a path, bytes and a binary stream give the oracle's result on read_text's text of
        # the bytes; a text stream, where an invalid byte is a lone surrogate, on its text
        monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", data.draw(st.integers(1, 16)))
        fmt, dim = data.draw(st.sampled_from(["csv", "json"])), data.draw(st.sampled_from([2, 3]))
        rows = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
                                  min_size=1, max_size=5))
        out = io.StringIO()
        save_trajectory(make_traj(rows, start=data.draw(st.sampled_from([0, 7]))), out, fmt)
        text = out.getvalue()
        if data.draw(st.booleans()):   # a non-ASCII member before "points", or CSV value
            text = text.replace("{", '{\n  "\u03a9 na\xefve": "\u03c0",', 1) if fmt == "json" \
                else text[:text.rindex(",") + 1] + "\u0661.5\n"
        text = "\ufeff" * data.draw(st.sampled_from([0, 0, 0, 1, 2])) \
            + text.replace("\n", data.draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])))
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(SOURCE_TOKENS)) + text[at:]
        raw = text.encode()
        if invalid := data.draw(st.sampled_from([b""] * 8 + INVALID_UTF8)):
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + invalid + raw[at:]
        path = tmp_path / f"clip.{fmt}"
        path.write_bytes(raw)
        expected = load_outcome(lambda: brute_load(read_text(raw), fmt))
        for source in (path, str(path), raw, io.BytesIO(raw)):
            assert load_outcome(lambda: load_trajectory(source, fmt)) == expected, source
        chars = raw.decode("utf-8", "surrogateescape")
        assert load_outcome(lambda: load_trajectory(io.StringIO(chars), fmt)) \
            == load_outcome(lambda: brute_load(read_text(chars), fmt))


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        from trajkf import Annotations, load_annotations, save_annotations

        ann = Annotations(
            intervals=(SigningInterval(3, 10), SigningInterval(20, 40)),
            keyframes=(5, 30),
            n_frames=50,
        )
        path = tmp_path / "ann.json"
        save_annotations(ann, path)
        back = load_annotations(path)
        assert back == ann

    def test_missing_sections_default_empty(self):
        from trajkf import load_annotations

        ann = load_annotations(io.StringIO("{}"))
        assert ann.intervals == () and ann.keyframes == () and ann.n_frames is None

    def test_malformed_interval_names_index(self):
        from trajkf import load_annotations

        with pytest.raises(ParseError, match="intervals\\[1\\]"):
            load_annotations(io.StringIO(
                '{"intervals": [{"start": 1, "end": 2}, {"start": 5}]}'
            ))

    def test_non_object_file_rejected(self):
        from trajkf import load_annotations

        with pytest.raises(ParseError, match="annotation file must hold a JSON object"):
            load_annotations(io.StringIO("[1, 2]"))

    def test_reversed_interval_names_index(self):
        from trajkf import load_annotations

        text = '{"intervals": [{"start": 1, "end": 2}, {"start": 5, "end": 3}]}'
        with pytest.raises(ParseError, match=r"^intervals\[1\]: invalid interval \[5, 3\]$"):
            load_annotations(io.StringIO(text))

    def test_non_integer_keyframe_rejected(self):
        from trajkf import load_annotations

        with pytest.raises(ParseError, match="keyframes\\[0\\]"):
            load_annotations(io.StringIO('{"keyframes": ["ten"]}'))

    @pytest.mark.parametrize("bound", ['"3"', "2.9", "true"])
    def test_interval_bounds_must_be_integers(self, bound):
        from trajkf import load_annotations

        text = f'{{"intervals": [{{"start": 1, "end": 9}}, {{"start": {bound}, "end": 9}}]}}'
        with pytest.raises(ParseError, match="intervals\\[1\\]"):
            load_annotations(io.StringIO(text))

    @pytest.mark.parametrize("text", ['{"keyframes": [4, true]}', '{"keyframes": 5}',
                                      '{"intervals": {"start": 1}}'])
    def test_keyframes_and_intervals_must_be_lists_of_the_right_type(self, text):
        from trajkf import load_annotations

        with pytest.raises(ParseError, match="keyframes|intervals"):
            load_annotations(io.StringIO(text))


class TestGaussianSmooth:
    def test_sigma_zero_is_identity(self):
        traj = make_traj(np.random.default_rng(0).normal(size=(50, 3)))
        assert gaussian_smooth(traj, 0.0) is traj

    def test_constant_unchanged(self):
        traj = make_traj(np.full((40, 2), 3.5))
        out = gaussian_smooth(traj, 3.0)
        assert np.allclose(out.points, 3.5, atol=1e-12)

    def test_impulse_matches_kernel_weights(self):
        # oracle: normalized truncated Gaussian weights exp(-k^2/2)/sum
        weights = [math.exp(-(k * k) / 2.0) for k in range(-4, 5)]
        total = sum(weights)
        n = 21
        pts = np.zeros((n, 2))
        pts[10, 0] = 1.0
        out = gaussian_smooth(make_traj(pts), 1.0)
        assert out.points[10, 0] == pytest.approx(math.exp(0.0) / total, abs=1e-12)
        assert out.points[9, 0] == pytest.approx(math.exp(-0.5) / total, abs=1e-12)
        assert out.points[14, 0] == pytest.approx(math.exp(-8.0) / total, abs=1e-12)
        assert out.points[15, 0] == pytest.approx(0.0, abs=1e-15)

    def test_boundary_renormalization_preserves_constants(self):
        traj = make_traj(np.full((10, 2), 2.0))
        out = gaussian_smooth(traj, 2.0)
        assert np.allclose(out.points, 2.0, atol=1e-12)

    def test_shape_preserved(self):
        traj = make_traj(np.random.default_rng(1).normal(size=(33, 3)))
        out = gaussian_smooth(traj, 1.7)
        assert out.points.shape == traj.points.shape
        assert out.frame_rate == traj.frame_rate

    def test_kernel_longer_than_signal(self):
        # 17-tap kernel over 10 samples must still give 10 samples back
        traj = make_traj(np.random.default_rng(2).normal(size=(10, 2)))
        out = gaussian_smooth(traj, 2.0)
        assert out.points.shape == (10, 2)
        constant = gaussian_smooth(make_traj(np.full((6, 2), 1.25)), 3.0)
        assert constant.points.shape == (6, 2)
        assert np.allclose(constant.points, 1.25, atol=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_smooth(make_traj(np.zeros((5, 2))), -1.0)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-160])
    def test_tiny_sigma_is_identity_without_warnings(self, sigma):
        # 1e-300 squares to 0 (a 0/0 centre tap); 1e-160 to a subnormal
        traj = make_traj(np.random.default_rng(4).normal(size=(20, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gaussian_smooth(traj, sigma)
        assert np.array_equal(out.points, traj.points)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_are_the_whole_clips_bit_for_bit(self, data):
        # any step-1 range, empty or holding either end, under kernels from the unit impulse
        # (sigma 0, and 1e-160 whose off-centre taps are 0) to one longer than the clip
        n, dim = data.draw(st.integers(1, 400)), data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        traj = make_traj(scale * np.cumsum(rng.normal(size=(n, dim)), axis=0),
                         start=data.draw(st.sampled_from([0, 5, 2**62])))
        sigma = data.draw(st.sampled_from([0.0, 1e-160, 0.5, 2.0, 7.0, 1e9]))
        start = data.draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
        stop = data.draw(st.sampled_from([start, start + 1, n])
                         .filter(lambda b: start <= b <= n) | st.integers(start, n))
        if start == stop:   # no trajectory is empty
            with pytest.raises(ValueError, match="non-empty"):
                gaussian_smooth(traj, sigma, range(start, stop))
            return
        whole = gaussian_smooth(traj, sigma)
        part = gaussian_smooth(traj, sigma, range(start, stop))
        assert part.points.tobytes() == whole.points[start:stop].tobytes()
        assert (part.frame_rate, part.start_frame) == (60.0, traj.start_frame + start)
        # only the points within the kernel's reach of the rows are read
        reach = math.ceil(min(4 * sigma, n - 1))
        poisoned = np.full((n, dim), np.nan)
        kept = slice(max(0, start - reach), stop + reach)
        poisoned[kept] = traj.points[kept]
        got = gaussian_smooth(make_traj(poisoned), sigma, range(start, stop))
        assert got.points.tobytes() == part.points.tobytes()

    @pytest.mark.parametrize("sigma", [1e5, 1e300])
    def test_huge_sigma_averages_the_clip(self, sigma):
        # taps stop at n - 1 each way, so no 8e5- or 8e300-tap kernel is built
        pts = np.random.default_rng(3).normal(size=(2000, 3))
        out = gaussian_smooth(make_traj(pts), sigma)
        assert np.allclose(out.points, pts.mean(axis=0), atol=1e-4)


class TestDifferentiate:
    def test_linear_motion_exact(self):
        t = np.arange(10, dtype=float)
        traj = make_traj(np.column_stack([t, 2 * t, 3 * t]), fps=1.0)
        d = differentiate(traj, 3)
        assert np.allclose(d.d1, [1.0, 2.0, 3.0], atol=1e-12)
        assert np.allclose(d.d2, 0.0, atol=1e-12)
        assert np.allclose(d.d3, 0.0, atol=1e-12)

    def test_quadratic_second_derivative_exact(self):
        t = np.arange(12, dtype=float)
        traj = make_traj(np.column_stack([t**2, np.zeros_like(t), np.zeros_like(t)]), fps=1.0)
        d = differentiate(traj, 2)
        assert np.allclose(d.d2[:, 0], 2.0, atol=1e-10)
        assert np.allclose(d.d2[:, 1:], 0.0, atol=1e-10)

    def test_cubic_third_derivative_exact(self):
        t = np.arange(12, dtype=float)
        traj = make_traj(np.column_stack([t**3, np.zeros_like(t), np.zeros_like(t)]), fps=1.0)
        d = differentiate(traj, 3)
        assert np.allclose(d.d3[:, 0], 6.0, atol=1e-8)

    def test_circle_velocity_close_to_analytic(self):
        t = np.arange(0, 120) / 60.0
        traj = make_traj(np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)]), fps=60.0)
        d = differentiate(traj, 1)
        expected = np.column_stack([-np.sin(t), np.cos(t), np.zeros_like(t)])
        assert np.max(np.abs(d.d1[1:-1] - expected[1:-1])) < 1e-4

    def test_too_few_samples(self):
        traj = make_traj(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="at least 7"):
            differentiate(traj, 3)
        differentiate(make_traj(np.zeros((7, 3))), 3)  # boundary case is fine

    def test_order_max_validated(self):
        with pytest.raises(ValueError):
            differentiate(make_traj(np.zeros((10, 2))), 4)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_are_the_whole_stack_gathered_bit_for_bit(self, data):
        # derivative() at some rows, each end row among them or not, in any order and
        # with repeats, against differentiate() and the stencils written out by hand
        n, dim = data.draw(st.integers(4, 400)), data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        traj = make_traj(scale * np.cumsum(rng.normal(size=(n, dim)), axis=0),
                         fps=data.draw(st.sampled_from([1.0, 29.97, 60.0, 240.0])))
        ends = data.draw(st.lists(st.sampled_from([0, 1, n - 2, n - 1]), unique=True))
        rows = np.array([*ends, *data.draw(st.lists(st.integers(0, n - 1), max_size=40))],
                        dtype=np.intp)
        rng.shuffle(rows)
        if n < 7:
            short = f"need at least 7 samples for order 3, got {n}"
            for call in (lambda: differentiate(traj, 3), lambda: derivative(traj, 3, rows)):
                with pytest.raises(ValueError, match=short):
                    call()
        order_max = 3 if n >= 7 else 2
        whole = differentiate(traj, order_max)
        brute = brute_differentiate(traj.points, traj.frame_rate, order_max)
        for order, (full, by_hand) in enumerate(zip((whole.d1, whole.d2, whole.d3), brute), 1):
            assert full.tobytes() == by_hand.tobytes()
            at = derivative(traj, order, rows)
            assert at.shape == (len(rows), dim) and not at.flags.writeable
            assert at.tobytes() == full[rows].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_range_is_its_rows_bit_for_bit(self, data):
        # derivative() at a range of samples, through slices, against the same rows gathered;
        # the range may hold either end, lie in one end's one-sided stencils, or be empty
        n, dim = data.draw(st.integers(3, 400)), data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        traj = make_traj(np.cumsum(rng.normal(size=(n, dim)), axis=0),
                         fps=data.draw(st.sampled_from([1.0, 29.97, 60.0])))
        start = data.draw(st.sampled_from([0, 1, 2, n - 2, n - 1, n]) | st.integers(0, n))
        stop = data.draw(st.sampled_from([start, start + 1, start + 2, n - 1, n])
                         .filter(lambda b: start <= b <= n) | st.integers(start, n))
        for order in (1, 2, 3):
            if n < MIN_SAMPLES[order]:
                with pytest.raises(ValueError, match=f"for order {order}"):
                    derivative(traj, order, range(start, stop))
                continue
            at = derivative(traj, order, range(start, stop))
            assert at.shape == (stop - start, dim) and not at.flags.writeable
            assert at.tobytes() == derivative(traj, order, np.arange(start, stop)).tobytes()

    def test_containers_keep_frozen_arrays_and_copy_the_rest(self):
        built = frozen(np.ones((5, 3)))
        assert DerivativeStack(built).d1 is built and make_traj(built).points is built
        given_ = np.ones((5, 3))
        view = given_[:, :]
        view.flags.writeable = False   # read-only, but its base is not
        owning = np.ones((5, 3))
        owning.flags.writeable = False   # read-only over its own memory, yet not marked
        for arr, base in [(given_, given_), (view, given_), (owning, owning)]:
            for kept in (DerivativeStack(arr).d1, make_traj(arr).points):
                assert kept is not arr and not kept.flags.writeable
                base.flags.writeable = True   # numpy allows it for an owning array
                base[0, 0] = 7.0
                assert kept[0, 0] == 1.0
                base[0, 0] = 1.0


class TestSpeed:
    def test_pythagorean(self):
        d = DerivativeStack(np.array([[3.0, 4.0, 0.0]]))
        assert speed(d)[0] == pytest.approx(5.0)

    def test_zero(self):
        d = DerivativeStack(np.zeros((3, 3)))
        assert np.all(speed(d) == 0.0)

    def test_circle_speed_matches_r_omega(self):
        t = np.arange(0, 180) / 60.0
        traj = make_traj(np.column_stack([2 * np.cos(t), 2 * np.sin(t), np.zeros_like(t)]),
                         fps=60.0)
        v = speed(differentiate(traj, 1))
        assert np.max(np.abs(v[1:-1] - 2.0)) < 1e-3

    def test_rotation_invariance(self):
        rng = np.random.default_rng(42)
        t = np.arange(0, 100) / 60.0
        pts = np.column_stack([np.cos(3 * t), np.sin(2 * t), 0.5 * t])
        v0 = speed(differentiate(make_traj(pts), 1))
        for _ in range(5):
            rot = random_rotation(rng)
            v1 = speed(differentiate(make_traj(pts @ rot.T), 1))
            assert np.allclose(v0, v1, atol=1e-9)
        assert np.all(v0 >= 0)


@pytest.mark.parametrize("save", [
    lambda path: save_trajectory(make_traj([[0, 0], [1, 1], [2, 2]]), path),
    lambda path: save_annotations(Annotations(keyframes=(1,)), path),
], ids=["save_trajectory", "save_annotations"])
def test_failed_rename_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, save):
    target = tmp_path / "out"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save(target)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
