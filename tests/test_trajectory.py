"""Tests for trajectory containers, file I/O, smoothing, and differentiation."""

import io
import math
import os

import numpy as np
import pytest

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
from oracles import random_rotation


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


class TestTrajectoryFiles:
    def test_csv_two_dim(self):
        text = "frame,x,y\n0,1.0,2.0\n1,1.5,2.5\n2,2.0,3.0\n"
        traj = load_trajectory(io.StringIO(text), "csv", frame_rate=60.0)
        assert traj.dim == 2
        assert traj.n_samples == 3
        assert traj.start_frame == 0

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
