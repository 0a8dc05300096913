"""End-to-end tests of the extract / evaluate / synth subcommands."""

import json

import numpy as np
import pytest

from trajkf.cli import main


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
        ({"frames": [3, 4], "scores": 2.0}, '"scores"'),
        ({"frames": [3], "n_frames": "200"}, '"n_frames"'),
        ({"frames": [3], "method": "fast"}, '"method"'),
    ])
    def test_malformed_prediction_names_file_and_field(self, files, tmp_path, capsys,
                                                       payload, where):
        _, truth = files
        pred = tmp_path / "bad.json"
        pred.write_text(json.dumps(payload))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert str(pred) in err and where in err

    def test_malformed_truth_names_file(self, files, tmp_path, capsys):
        pred, _ = files
        truth = tmp_path / "bad_truth.json"
        truth.write_text(json.dumps({"intervals": [{"start": "20", "end": 100}],
                                     "keyframes": [30]}))
        assert run("evaluate", "--pred", str(pred), "--truth", str(truth)) == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "intervals[0]" in err

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
