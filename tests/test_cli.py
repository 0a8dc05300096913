"""End-to-end tests of the extract / evaluate / synth subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajkf
from trajkf import load_annotations, reports_to_json, sweep
from trajkf.cli import main
from trajkf.selection import keyframes_from_json


def run(*argv):
    return main(list(argv))


class TestSynth:
    def test_circle_csv_sample_count(self, tmp_path, capsys):
        out = tmp_path / "circle"
        assert run("synth", "--kind", "circle", "--a", "2", "--omega", "1",
                   "--fps", "60", "--dur", "5", "--out", str(out)) == 0
        lines = (tmp_path / "circle.csv").read_text().strip().splitlines()
        assert lines[0] == "frame,x,y,z"
        assert len(lines) - 1 == 300

    def test_deterministic_output(self, tmp_path):
        for name in ("one", "two"):
            assert run("synth", "--kind", "piecewise_signing", "--noise", "0.001",
                       "--seed", "7", "--out", str(tmp_path / name)) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.annotations.json").read_bytes() == \
            (tmp_path / "two.annotations.json").read_bytes()

    def test_helix_annotation_carries_analytic_constants(self, tmp_path):
        out = tmp_path / "helix"
        assert run("synth", "--kind", "helix", "--a", "1", "--b", "1",
                   "--out", str(out)) == 0
        ann = json.loads((tmp_path / "helix.annotations.json").read_text())
        assert ann["analytic"]["kappa"] == pytest.approx(0.5)
        assert ann["analytic"]["tau_abs"] == pytest.approx(0.5)
        assert ann["n_frames"] == 300

    def test_usage_error_exit_code(self, capsys):
        assert run("synth", "--kind", "wavy", "--out", "x") == 1
        assert run("synth") == 1
        assert run("bogus-subcommand") == 1


class TestExtract:
    @pytest.fixture
    def signing_files(self, tmp_path):
        out = tmp_path / "vid"
        assert run("synth", "--kind", "piecewise_signing", "--a", "0.25",
                   "--dur", "1.0", "--rest-dur", "0.5", "--segments", "3",
                   "--noise", "0.001", "--seed", "11", "--out", str(out)) == 0
        return tmp_path / "vid.csv", tmp_path / "vid.annotations.json"

    def test_extract_hits_ground_truth(self, tmp_path, signing_files):
        traj_path, ann_path = signing_files
        truth = json.loads(ann_path.read_text())["keyframes"]
        out_path = tmp_path / "kf.json"
        assert run("extract", str(traj_path), "--count", str(len(truth)),
                   "--output", str(out_path)) == 0
        got = json.loads(out_path.read_text())
        assert got["method"] == "mt"
        assert not got["shortfall"]
        assert len(got["frames"]) == len(truth)
        for frame, true_frame in zip(got["frames"], truth):
            assert abs(frame - true_frame) <= 5

    def test_extract_json_schema_and_stdout(self, signing_files, capsys):
        traj_path, _ = signing_files
        assert run("extract", str(traj_path), "--count", "2") == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"method", "frames", "scores", "shortfall", "n_frames"}
        assert obj["frames"] == sorted(obj["frames"])
        assert len(obj["scores"]) == len(obj["frames"])

    def test_deterministic_bytes(self, tmp_path, signing_files):
        traj_path, _ = signing_files
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run("extract", str(traj_path), "--count", "3",
                       "--output", str(path)) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_budget_from_ratio_and_annotations(self, tmp_path, signing_files):
        traj_path, ann_path = signing_files
        truth = json.loads(ann_path.read_text())["keyframes"]
        out_path = tmp_path / "kf.json"
        assert run("extract", str(traj_path), "--r-c", "1",
                   "--annotations", str(ann_path), "--output", str(out_path)) == 0
        got = json.loads(out_path.read_text())
        assert len(got["frames"]) == len(truth)

    def test_annotation_intervals_bypass_detection(self, tmp_path, signing_files):
        traj_path, ann_path = signing_files
        full = json.loads(ann_path.read_text())
        only_second = dict(full, intervals=[full["intervals"][1]])
        partial_ann = tmp_path / "partial.json"
        partial_ann.write_text(json.dumps(only_second))
        out_path = tmp_path / "kf.json"
        assert run("extract", str(traj_path), "--count", "3",
                   "--annotations", str(partial_ann),
                   "--output", str(out_path)) == 0
        got = json.loads(out_path.read_text())
        # only the annotated interval can contribute candidates
        lo, hi = full["intervals"][1]["start"], full["intervals"][1]["end"]
        assert got["frames"] and all(lo <= f <= hi for f in got["frames"])

    def test_count_and_ratio_mutually_exclusive(self, signing_files):
        traj_path, ann_path = signing_files
        assert run("extract", str(traj_path), "--count", "2", "--r-c", "1",
                   "--annotations", str(ann_path)) == 2
        assert run("extract", str(traj_path)) == 2

    def test_empty_trajectory_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert run("extract", str(bad), "--count", "1") == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_non_finite_coordinate_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "helix"
        assert run("synth", "--kind", "helix", "--a", "1", "--b", "1",
                   "--out", str(out)) == 0
        path = tmp_path / "helix.csv"
        lines = path.read_text().splitlines()
        frame = lines[150].split(",")[0]
        lines[150] = f"{frame},nan,0.5,0.5"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("extract", str(path), "--count", "3") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "row 151" in err

    def test_short_nonplanar_interval_is_validation_error(self, tmp_path, capsys):
        t = 2.0 * np.arange(5)
        path = tmp_path / "short.csv"
        rows = [f"{i},{np.cos(a):.17g},{np.sin(a):.17g},{a / 4:.17g}" for i, a in enumerate(t)]
        path.write_text("frame,x,y,z\n" + "\n".join(rows) + "\n")
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({"intervals": [{"start": 0, "end": 4}]}))
        assert run("extract", str(path), "--annotations", str(ann), "--count", "1",
                   "--sigma", "0") == 2
        assert "need at least 7 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,where", [
        ({"fps": "60"}, '"fps"'),
        ({"fps": True}, '"fps"'),
        ({"fps": 1e-200}, '"fps"'),
        ({"fps": 1e-320}, '"fps"'),
        ({"fps": 1e110}, '"fps"'),
        ({"fps": 1e300}, '"fps"'),
        ({"start_frame": 2.5}, '"start_frame"'),
        ({"start_frame": "3"}, '"start_frame"'),
        ({"points": []}, '"points" must be a non-empty list'),
        ({"points": [5, 6]}, "points[0]"),
        ({"points": [[1, 2, 3], [1, "x", 1], [1, 2, 3]]}, "points[1]"),
        ({"points": [[1, 2, 3], [1, [1], 1], [1, 2, 3]]}, "points[1]"),
        ({"points": [[1, 2, 3], [1, 2, 3], [1, False, 3]]}, "points[2]"),
    ])
    def test_malformed_trajectory_json_names_file_and_field(self, tmp_path, capsys,
                                                            payload, where):
        obj = {"fps": 60, "points": [[0.1 * i, i % 3, 0.0] for i in range(12)]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**obj, **payload}))
        assert run("extract", str(path), "--count", "1") == 2
        err = capsys.readouterr().err
        assert str(path) in err and where in err

    def test_missing_file_is_validation_error(self):
        assert run("extract", "/nonexistent/x.csv", "--count", "1") == 2

    def test_baseline_method_flag(self, signing_files, capsys):
        traj_path, _ = signing_files
        assert run("extract", str(traj_path), "--count", "2", "--method", "k3dt") == 0
        assert json.loads(capsys.readouterr().out)["method"] == "k3dt"

    def test_burst_circle_single_keyframe_at_analytic_maximum(self, tmp_path):
        out = tmp_path / "c"
        assert run("synth", "--kind", "circle", "--a", "2", "--phase", "burst",
                   "--omega", "1.5", "--dur", "4", "--out", str(out)) == 0
        truth = json.loads((tmp_path / "c.annotations.json").read_text())["keyframes"]
        kf = tmp_path / "k.json"
        assert run("extract", str(tmp_path / "c.csv"), "--count", "1",
                   "--output", str(kf)) == 0
        got = json.loads(kf.read_text())["frames"]
        assert len(got) == 1
        assert abs(got[0] - truth[0]) <= 1

    def test_two_dim_trajectory_end_to_end(self, tmp_path):
        out = tmp_path / "flat"
        assert run("synth", "--kind", "circle", "--a", "1.5", "--phase", "burst",
                   "--omega", "2", "--dur", "3", "--embed", "2",
                   "--out", str(out)) == 0
        header = (tmp_path / "flat.csv").read_text().splitlines()[0]
        assert header == "frame,x,y"
        truth = json.loads((tmp_path / "flat.annotations.json").read_text())["keyframes"]
        kf = tmp_path / "kf.json"
        assert run("extract", str(tmp_path / "flat.csv"), "--count", "1",
                   "--output", str(kf)) == 0
        got = json.loads(kf.read_text())["frames"]
        assert abs(got[0] - truth[0]) <= 1

    def test_nonzero_start_frame_offsets_everything(self, tmp_path, signing_files):
        traj_path, ann_path = signing_files
        offset = 1000

        lines = traj_path.read_text().strip().splitlines()
        shifted = [lines[0]] + [
            f"{int(row.split(',')[0]) + offset},{','.join(row.split(',')[1:])}"
            for row in lines[1:]
        ]
        shifted_traj = tmp_path / "shifted.csv"
        shifted_traj.write_text("\n".join(shifted) + "\n")

        ann = json.loads(ann_path.read_text())
        ann["intervals"] = [{"start": i["start"] + offset, "end": i["end"] + offset}
                            for i in ann["intervals"]]
        ann["keyframes"] = [k + offset for k in ann["keyframes"]]
        ann["n_frames"] = ann["n_frames"] + offset
        shifted_ann = tmp_path / "shifted_ann.json"
        shifted_ann.write_text(json.dumps(ann))

        kf = tmp_path / "kf.json"
        assert run("extract", str(shifted_traj), "--count", "3",
                   "--annotations", str(shifted_ann), "--output", str(kf)) == 0
        got = json.loads(kf.read_text())["frames"]
        for frame, truth in zip(got, ann["keyframes"]):
            assert abs(frame - truth) <= 5


class TestEvaluate:
    @pytest.fixture
    def files(self, tmp_path):
        pred = tmp_path / "pred.json"
        truth = tmp_path / "truth.json"
        pred.write_text(json.dumps({
            "method": "mt",
            "frames": [30, 90, 150],
            "scores": [3.0, 2.0, 1.0],
            "shortfall": False,
            "n_frames": 200,
        }))
        truth.write_text(json.dumps({
            "intervals": [{"start": 20, "end": 100}, {"start": 120, "end": 180}],
            "keyframes": [30, 90, 150],
            "n_frames": 200,
        }))
        return pred, truth

    def test_perfect_prediction_scores_one(self, files, capsys):
        pred, truth = files
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--r-c", "1", "--delta", "5") == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["recall"] == 1.0
        assert reports[0]["f2"] == 1.0
        assert reports[0]["c_s"] == 0.0

    def test_grid_shape_and_csv(self, files, tmp_path, capsys):
        pred, truth = files
        csv_path = tmp_path / "table.csv"
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--r-c", "0.5,1", "--delta", "0,5,10",
                   "--csv", str(csv_path)) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 6
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "r_c,delta,recall,precision,f2,c_s"
        assert len(lines) == 7
        for r_c in (0.5, 1.0):
            by_delta = {r["delta"]: r["recall"] for r in reports if r["r_c"] == r_c}
            assert by_delta[5] >= by_delta[0]

    @pytest.mark.parametrize("payload,where", [
        ({"frames": 5}, '"frames"'),
        ({"frames": [1.7, 2]}, "frames[0]"),
        ({"frames": [3, True]}, "frames[1]"),
        ({"frames": [3, 4], "scores": [1.0, "high"]}, "scores[1]"),
        ({"frames": [3, 4], "scores": [1.0, float("nan")]}, "scores[1]"),
        ({"frames": [3, 4], "scores": [1.0, 10**400]}, "scores[1]"),
        ({"frames": [3, 4], "scores": 2.0}, '"scores"'),
        ({"frames": [3, 4], "scores": [1.0]}, '"scores" and "frames" lengths differ'),
        ({"frames": [3], "n_frames": "200"}, '"n_frames"'),
        ({"frames": [3], "method": "fast"}, '"method"'),
        ({"frames": [3], "method": 0}, '"method"'),
        ({"frames": [3], "method": False}, '"method"'),
        ({"frames": [3], "method": ""}, '"method"'),
        ({"frames": [3], "method": []}, '"method"'),
        ({"frames": [3], "method": {}}, '"method"'),
        ({"frames": [3], "shortfall": "nope"}, '"shortfall"'),
        ({"frames": [3], "shortfall": 0}, '"shortfall"'),
        ({"frames": [3], "shortfall": []}, '"shortfall"'),
        ({"frames": [3], "shortfall": None}, '"shortfall"'),
    ])
    def test_malformed_prediction_names_file_and_field(self, files, tmp_path, capsys,
                                                       payload, where):
        _, truth = files
        pred = tmp_path / "bad.json"
        pred.write_text(json.dumps(payload))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert str(pred) in err and where in err

    def test_bom_prefixed_prediction_reads_as_plain(self, files, tmp_path, capsys):
        pred, truth = files
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + pred.read_bytes())
        outs = []
        for path in (pred, bom):
            assert run("evaluate", "--pred", str(path), "--truth", str(truth),
                       "--r-c", "0.5,1", "--delta", "0,5") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_malformed_truth_names_file(self, files, tmp_path, capsys):
        pred, _ = files
        truth = tmp_path / "bad_truth.json"
        truth.write_text(json.dumps({"intervals": [{"start": "20", "end": 100}],
                                     "keyframes": [30]}))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "intervals[0]" in err

    def test_interval_past_the_video_names_file_and_interval(self, files, tmp_path, capsys):
        pred, _ = files
        truth = tmp_path / "long_interval.json"
        truth.write_text(json.dumps({"intervals": [{"start": 20, "end": 100},
                                                   {"start": 150, "end": 250}],
                                     "keyframes": [30, 90, 150], "n_frames": 200}))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "[150, 250]" in err and "200-frame" in err

    def test_inferred_length_covers_intervals(self, tmp_path, capsys):
        # the last interval ends past every keyframe: the inferred video holds it,
        # and the scores are those of any longer video
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        pred.write_text(json.dumps({"frames": [30, 90, 150], "scores": [3.0, 2.0, 1.0]}))
        truth.write_text(json.dumps({
            "intervals": [{"start": 20, "end": 100}, {"start": 120, "end": 400}],
            "keyframes": [30, 90, 150]}))
        outs = []
        for extra in ([], ["--n-frames", "406"], ["--n-frames", "100000"]):
            assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                       "--r-c", "0.5,1", "--delta", "0,5", *extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])[0]["per_sign"][1]["end"] == 400
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--r-c", "1", "--delta", "0,5", "--n-frames", "400") == 2
        assert "[120, 400]" in capsys.readouterr().err

    def test_mismatched_lengths_rejected(self, files, tmp_path, capsys):
        pred, truth = files
        other = tmp_path / "truth2.json"
        obj = json.loads(truth.read_text())
        obj["n_frames"] = 999
        other.write_text(json.dumps(obj))
        assert run("evaluate", "--pred", str(pred), "--truth", str(other)) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_length_inferred_when_files_carry_none(self, files, tmp_path, capsys):
        pred, truth = files
        for path in (pred, truth):
            obj = json.loads(path.read_text())
            obj.pop("n_frames")
            path.write_text(json.dumps(obj))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--r-c", "1", "--delta", "5") == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["recall"] == 1.0

    def test_per_gloss_mode(self, files, capsys):
        pred, truth = files
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
                   "--per-gloss", "--r-c", "1", "--delta", "5") == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["recall"] == 1.0

    @staticmethod
    def repeats_and_ties(tmp_path):
        """A prediction with repeated frames and tied scores, and its truth."""
        pred = tmp_path / "pred.json"
        truth = tmp_path / "truth.json"
        pred.write_text(json.dumps({
            "frames": [10, 10, 25, 30, 30, 30, 55, 80, 80, 95],
            "scores": [1.0, 2.0, 2.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.5, 2.0],
            "n_frames": 100,
        }))
        # overlapping, nested and keyframe-free intervals
        truth.write_text(json.dumps({
            "intervals": [{"start": 0, "end": 40}, {"start": 20, "end": 60},
                          {"start": 50, "end": 99}, {"start": 70, "end": 75}],
            "keyframes": [33, 12, 28, 56, 91, 90, 28],
            "n_frames": 100,
        }))
        return pred, truth

    @staticmethod
    def reference_json(pred, truth, r_cs, deltas):
        """Per-gloss reports with each pick taken by a comprehension over the ranked frames."""
        keys, _ = keyframes_from_json(pred)
        ranked = [f for f, _ in sorted(zip(keys.frames, keys.scores),
                                       key=lambda fs: (-fs[1], fs[0]))]
        ann = load_annotations(truth)
        reports = sweep(lambda count, itv: [f for f in ranked if itv.start <= f <= itv.end][:count],
                        ann.keyframes, 100, r_cs, deltas,
                        intervals=ann.intervals, per_gloss=True)
        return reports_to_json(reports)

    def test_per_gloss_repeats_and_ties_match_reference(self, tmp_path, capsys):
        pred, truth = self.repeats_and_ties(tmp_path)
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth), "--per-gloss",
                   "--r-c", "0.2,0.5,1,2", "--delta", "0,5") == 0
        assert capsys.readouterr().out == \
            self.reference_json(pred, truth, [0.2, 0.5, 1.0, 2.0], [0, 5])

    # 1e300 budgets every interval far past the 10 predicted frames; 0.01 budgets 0
    @pytest.mark.parametrize("r_c", [1e300, 0.01])
    def test_per_gloss_extreme_ratios_match_reference(self, tmp_path, capsys, r_c):
        pred, truth = self.repeats_and_ties(tmp_path)
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth), "--per-gloss",
                   "--r-c", repr(r_c), "--delta", "0,5") == 0
        assert capsys.readouterr().out == self.reference_json(pred, truth, [r_c], [0, 5])

    def test_round_trip_with_extract(self, tmp_path, capsys):
        out = tmp_path / "vid"
        assert run("synth", "--kind", "piecewise_signing", "--a", "0.25",
                   "--dur", "1.0", "--rest-dur", "0.5",
                   "--noise", "0.001", "--seed", "5", "--out", str(out)) == 0
        kf = tmp_path / "kf.json"
        ann = tmp_path / "vid.annotations.json"
        truth_count = len(json.loads(ann.read_text())["keyframes"])
        assert run("extract", str(tmp_path / "vid.csv"), "--count", str(truth_count),
                   "--output", str(kf)) == 0
        capsys.readouterr()  # drop the synth/extract progress lines
        assert run("evaluate", "--pred", str(kf), "--truth", str(ann),
                   "--r-c", "1", "--delta", "5") == 0
        reports = json.loads(capsys.readouterr().out)
        # every selected frame within delta of a truth frame: per-frame
        # windowed recall only loses the few frames of residual offset
        truth = json.loads(ann.read_text())["keyframes"]
        pred_frames = json.loads(kf.read_text())["frames"]
        assert all(min(abs(f - t) for t in truth) <= 5 for f in pred_frames)
        assert reports[0]["recall"] > 0.85
        assert reports[0]["c_s"] == 0.0


HUGE_INT = "1" * 5000   # beyond the interpreter's int-string digit limit
DEEP_NEST = "[" * 200_000


@pytest.mark.parametrize("role", ["trajectory", "annotations", "keyframes"])
@pytest.mark.parametrize("text", [
    pytest.param({"trajectory": '{"fps": 60, "points": [[1, 2], [%s, 2]]}' % HUGE_INT,
                  "annotations": '{"keyframes": [%s]}' % HUGE_INT,
                  "keyframes": '{"frames": [%s]}' % HUGE_INT}, id="huge_int"),
    pytest.param(dict.fromkeys(["trajectory", "annotations", "keyframes"], DEEP_NEST),
                 id="deep_nesting"),
])
def test_unparseable_json_exits_2_naming_file(tmp_path, capsys, role, text):
    pred = tmp_path / "pred.json"
    truth = tmp_path / "truth.json"
    pred.write_text(json.dumps({"frames": [5], "n_frames": 20}))
    truth.write_text(json.dumps({"intervals": [], "keyframes": [5], "n_frames": 20}))
    bad = tmp_path / f"bad_{role}.json"
    bad.write_text(text[role])
    if role == "trajectory":
        argv = ["extract", str(bad), "--count", "1"]
    else:
        argv = ["evaluate", "--pred", str(bad if role == "keyframes" else pred),
                "--truth", str(bad if role == "annotations" else truth)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "invalid JSON" in err


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, trajkf.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = {**os.environ, "PYTHONPATH": str(Path(trajkf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def small_clip(tmp_path):
    assert run("synth", "--kind", "piecewise_signing", "--segments", "2", "--dur", "1",
               "--noise", "0.001", "--seed", "3", "--out", str(tmp_path / "clip")) == 0
    return tmp_path / "clip.csv", tmp_path / "clip.annotations.json"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_get_mode_from_umask(tmp_path, small_clip, umask):
    traj, truth = small_clip
    kf, report, table = tmp_path / "kf.json", tmp_path / "r.json", tmp_path / "r.csv"
    old = os.umask(umask)
    try:
        assert run("synth", "--kind", "helix", "--out", str(tmp_path / "helix")) == 0
        assert run("extract", str(traj), "--count", "2", "-o", str(kf)) == 0
        assert run("evaluate", "--pred", str(kf), "--truth", str(truth),
                   "-o", str(report), "--csv", str(table)) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()
             if p.name.startswith(("helix", "kf", "r."))}
    assert modes == dict.fromkeys(
        ["helix.csv", "helix.annotations.json", "kf.json", "r.json", "r.csv"], 0o666 & ~umask)
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]


@pytest.mark.parametrize("command,flag,value", [
    *[("extract", flag, value) for flag, value in [
        ("--sigma", "inf"), ("--sigma", "nan"), ("--sigma", "-1"),
        ("--fps", "inf"), ("--fps", "nan"), ("--fps", "0"), ("--fps", "1e-200"),
        ("--fps", "1e-320"), ("--fps", "1e110"), ("--fps", "1e300"),
        ("--f-error", "nan"), ("--speed-threshold", "nan"), ("--speed-threshold", "-1"),
        ("--r-c", "inf"), ("--r-c", "nan"), ("--r-c", "0"), ("--r-c", "1e308"),
        ("--min-gap", "0"), ("--min-len", "0")]],
    *[("evaluate", flag, value) for flag, value in [
        ("--delta", "inf"), ("--delta", "nan"), ("--delta", "2.7"), ("--delta", "5,-1"),
        ("--r-c", "inf"), ("--r-c", "nan"), ("--r-c", "-1"), ("--r-c", "1,0"),
        ("--r-c", "1e308"), ("--n-frames", "0"), ("--n-frames", "-5"),
        ("--n-frames", "10000000000000000000"), ("--delta", "5,x"), ("--r-c", "one")]],
    *[("synth", flag, value) for flag, value in [
        ("--dur", "inf"), ("--dur", "1e308"), ("--dur", "0"), ("--rest-dur", "inf"),
        ("--fps", "nan"), ("--fps", "1e308"), ("--fps", "1e-200"), ("--a", "nan"),
        ("--a", "0"), ("--b", "nan"),
        ("--omega", "inf"), ("--omega", "1e308"), ("--n-bursts", "0"),
        ("--n-bursts", "1" + "0" * 400), ("--noise", "nan"), ("--noise", "-1"),
        ("--noise", "1e308"), ("--segments", "0"), ("--seed", "-1")]],
])
def test_bad_number_exits_2_naming_flag(small_clip, tmp_path, capsys, command, flag, value):
    traj, truth = small_clip
    kf = tmp_path / "kf.json"
    assert run("extract", str(traj), "--count", "2", "-o", str(kf)) == 0
    if command == "extract":
        budget = ["--annotations", str(truth)] if flag == "--r-c" else ["--count", "2"]
        argv = ["extract", str(traj), *budget]
    elif command == "evaluate":
        argv = ["evaluate", "--pred", str(kf), "--truth", str(truth)]
    else:
        argv = ["synth", "--kind", "helix", "--phase", "burst", "--out", str(tmp_path / "s")]
    with np.errstate(all="ignore"):   # a curve that overflows warns before it is refused
        assert run(*argv, flag, value) == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))


def test_over_long_csv_field_names_file_and_row(tmp_path, capsys):
    # beyond csv.field_size_limit() (131072 characters by default)
    path = tmp_path / "long.csv"
    path.write_text("frame,x,y\n0,1,2\n1," + "1" * 200_000 + ",2\n")
    assert run("extract", str(path), "--count", "1") == 2
    err = capsys.readouterr().err
    assert str(path) in err and "row 3" in err


def test_underflowing_sigma_smooths_like_sigma_zero(small_clip, tmp_path, recwarn):
    # 1e-300 squares to 0: the kernel is the unit impulse, as with no smoothing
    traj, _ = small_clip
    outs = [tmp_path / f"kf-{sigma}.json" for sigma in ("0", "1e-300")]
    for sigma, out in zip(("0", "1e-300"), outs):
        assert run("extract", str(traj), "--count", "2", "--sigma", sigma, "-o", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(json.loads(outs[1].read_text())["frames"]) == 2
    assert not recwarn.list


@pytest.mark.parametrize("source", ["pred", "truth", "--delta"])
def test_video_length_above_2_62_names_its_source(tmp_path, capsys, source):
    # --n-frames is a case of test_bad_number_exits_2_naming_flag
    pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
    too_long = {"n_frames": 2**62 + 1}
    pred.write_text(json.dumps({"frames": [5], **(too_long if source == "pred" else {})}))
    truth.write_text(json.dumps({"keyframes": [5], **(too_long if source == "truth" else {})}))
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth)]
    if source == "--delta":   # no file gives a length, so it is inferred
        argv += ["--delta", "10000000000000000000"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert {"pred": str(pred), "truth": str(truth)}.get(source, source) in err
    assert "2**62" in err


def test_video_length_of_2_62_is_accepted(tmp_path):
    pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
    pred.write_text(json.dumps({"frames": [5], "n_frames": 2**62}))
    truth.write_text(json.dumps({"keyframes": [5], "n_frames": 2**62}))
    assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
               "-o", str(tmp_path / "r.json")) == 0


def zigzag_clip(start_frame):
    """200 samples of a 2-D zigzag of rising amplitude, from ``start_frame``."""
    t = np.arange(200) / 60.0
    return trajkf.TimedTrajectory(np.column_stack([t, (1 + t) * np.abs((t * 6) % 2 - 1)]),
                                  60.0, start_frame)


@pytest.mark.parametrize("start,fmt", [(-50, "csv"), (2**62 - 100, "json")])
def test_frames_a_keyframe_file_cannot_hold_exit_2_naming_file(tmp_path, capsys, start, fmt):
    # the loaders accept these frames; extract must not write a file evaluate refuses
    path, out = tmp_path / f"clip.{fmt}", tmp_path / "kf.json"
    trajkf.save_trajectory(zigzag_clip(start), path, fmt)
    assert run("extract", str(path), "--count", "3", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"frames {start} to {start + 199}" in err
    assert not out.exists()


def test_frames_up_to_2_62_extract_and_evaluate(tmp_path):
    clip, keys, truth = tmp_path / "clip.json", tmp_path / "kf.json", tmp_path / "truth.json"
    start = 2**62 - 200   # the last frame is 2**62 - 1
    trajkf.save_trajectory(zigzag_clip(start), clip, "json")
    assert run("extract", str(clip), "--count", "3", "-o", str(keys)) == 0
    pred = json.loads(keys.read_text())
    assert pred["n_frames"] == 2**62 and len(pred["frames"]) == 3
    truth.write_text(json.dumps({"keyframes": pred["frames"]}))
    report = tmp_path / "r.json"
    assert run("evaluate", "--pred", str(keys), "--truth", str(truth), "-o", str(report)) == 0
    assert json.loads(report.read_text())[0]["recall"] == 1.0


def numpy_ma_loaded_after(argv) -> bool:
    """Whether ``trajkf.cli.main(argv)`` in a fresh interpreter imports numpy.ma."""
    code = f"import sys, trajkf.cli; trajkf.cli.main({argv!r}); print('numpy.ma' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(trajkf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip() != "False"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_extract_leaves_numpy_ma_unloaded(tmp_path, fmt):
    # np.percentile imports numpy.ma on its first call; no stage of extract needs it
    assert run("synth", "--kind", "piecewise_signing", "--segments", "2", "--dur", "1",
               "--noise", "0.001", "--format", fmt, "--out", str(tmp_path / "clip")) == 0
    argv = ["extract", str(tmp_path / f"clip.{fmt}"), "--count", "2",
            "-o", str(tmp_path / "kf.json")]
    assert not numpy_ma_loaded_after(argv)
    assert json.loads((tmp_path / "kf.json").read_text())["frames"]


@pytest.mark.parametrize("budget", [[], ["--per-gloss"]], ids=["global", "per_gloss"])
def test_cli_evaluate_leaves_numpy_ma_unloaded(tmp_path, budget):
    # a plain np.unique imports numpy.ma on its first call; evaluate needs none
    clip = tmp_path / "clip"
    assert run("synth", "--kind", "piecewise_signing", "--segments", "2", "--dur", "1",
               "--noise", "0.001", "--out", str(clip)) == 0
    assert run("extract", f"{clip}.csv", "--count", "4", "-o", str(tmp_path / "kf.json")) == 0
    argv = ["evaluate", "--pred", str(tmp_path / "kf.json"),
            "--truth", f"{clip}.annotations.json", "--r-c", "0.5,1", *budget,
            "-o", str(tmp_path / "r.json")]
    assert not numpy_ma_loaded_after(argv)
    assert json.loads((tmp_path / "r.json").read_text())[0]["per_sign"]


def write_helix(path, scale):
    """600 samples of x = cos 3t, y = sin 3t, z = t/10 at 60 fps, times ``scale``."""
    t = np.arange(600) / 60.0
    pts = np.column_stack([np.cos(3 * t), np.sin(3 * t), t / 10]) * scale
    path.write_text("frame,x,y,z\n" + "".join(f"{i},{x!r},{y!r},{z!r}\n"
                                              for i, (x, y, z) in enumerate(pts.tolist())))


def test_overflowing_coordinates_exit_2_naming_file(tmp_path, capsys, recwarn):
    # |d1 x d2| squares past the float range
    path = tmp_path / "huge.csv"
    write_helix(path, 1e80)
    assert run("extract", str(path), "--count", "5") == 2
    err = capsys.readouterr().err
    assert str(path) in err and "coordinates too large" in err
    assert not recwarn.list


def test_large_coordinates_that_do_not_overflow_keep_their_keyframes(tmp_path, recwarn):
    path, out = tmp_path / "large.csv", tmp_path / "kf.json"
    write_helix(path, 1e70)
    assert run("extract", str(path), "--count", "5", "-o", str(out)) == 0
    assert json.loads(out.read_text()) == {   # nothing overflows, so nothing changes
        "method": "mt", "frames": [429, 487, 529, 569, 587],
        "scores": [2.79424262e-11, 3.13200854e-11, 3.08921499e-11, 0.155304772, 2.7336633e-11],
        "shortfall": False, "n_frames": 600}
    assert not recwarn.list


@pytest.mark.parametrize("fps", ["1e-200", "1e-320", "1e110", "1e300"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unusable_frame_rate_exits_2_without_warning(small_clip, tmp_path, capsys, recwarn,
                                                     fps, fmt):
    # the step 1/fps cubed overflows, or underflows past the normal floats
    traj, _ = small_clip
    argv = ["--fps", fps]
    if fmt == "json":
        obj = {"fps": float(fps), "points": trajkf.load_trajectory(traj).points.tolist()}
        traj = tmp_path / "clip.json"
        traj.write_text(json.dumps(obj))
        argv = []
    capsys.readouterr()
    assert run("extract", str(traj), "--count", "3", *argv) == 2
    err = capsys.readouterr().err
    want = "--fps must lie in" if fmt == "csv" else f'{traj}: "fps" must be a number in'
    assert f"{want} [1.78e-103, 3.55e+102], got " in err
    assert not recwarn.list


@pytest.mark.parametrize("fps,code", [("1.78e-103", 0), ("1e-50", 0), ("1e40", 0),
                                      ("1e102", 2), ("3.55e102", 2)])
def test_frame_rates_in_the_range_end_without_warning(small_clip, capsys, recwarn, fps, code):
    # at the top of the range the clip's derivatives overflow: exit 2 naming the file and
    # the rate, since no coordinate of the clip is large
    traj, _ = small_clip
    assert run("extract", str(traj), "--count", "3", "--fps", fps) == code
    err = capsys.readouterr().err
    assert (str(traj) in err) == (code == 2)
    assert (f"coordinates too large for its frame rate of {float(fps)!r} fps" in err) == (code == 2)
    assert not recwarn.list


@pytest.mark.parametrize("flag,value", [("--delta", "0,five"), ("--r-c", "1;2"),
                                        ("--delta", "[5]")])
def test_list_flag_that_is_not_numbers_names_flag(small_clip, tmp_path, capsys, flag, value):
    traj, truth = small_clip
    kf = tmp_path / "kf.json"
    assert run("extract", str(traj), "--count", "2", "-o", str(kf)) == 0
    assert run("evaluate", "--pred", str(kf), "--truth", str(truth), flag, value) == 2
    assert f"{flag} expects a comma-separated list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--delta", ""], ["--r-c", ","], ["--delta", " , "]])
def test_empty_list_flags_rejected(small_clip, tmp_path, capsys, argv):
    traj, truth = small_clip
    kf = tmp_path / "kf.json"
    assert run("extract", str(traj), "--count", "2", "-o", str(kf)) == 0
    assert run("evaluate", "--pred", str(kf), "--truth", str(truth), *argv) == 2
    assert "--delta and --r-c must be non-empty" in capsys.readouterr().err


def test_empty_files_without_a_video_length_rejected(tmp_path, capsys):
    pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
    pred.write_text(json.dumps({"frames": []}))
    truth.write_text(json.dumps({"keyframes": []}))
    assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
    assert "cannot infer video length from empty files; pass --n-frames" in \
        capsys.readouterr().err
    assert run("evaluate", "--pred", str(pred), "--truth", str(truth),
               "--n-frames", "50", "-o", str(tmp_path / "r.json")) == 0
