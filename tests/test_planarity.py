"""Tests for PCA plane fitting and plane projection."""

import numpy as np
import pytest

from trajkf import SigningInterval, TimedTrajectory, fit_plane, project_to_plane
from trajkf.merit import fit_planes, segment_layout
from oracles import random_rotation


def dense_svd_fitting_error(points):
    """Oracle: fitting error straight from the SVD of the centered data matrix."""
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    sq = s**2  # covariance singular values scale as data singular values squared
    return sq[2] / sq.sum()


class TestFitPlanes:
    def test_batch_equals_one_fit_per_interval(self):
        rng = np.random.default_rng(4)
        pts = np.cumsum(rng.normal(size=(200, 3)), axis=0)
        intervals = [SigningInterval(0, 0), SigningInterval(0, 11), SigningInterval(5, 7),
                     SigningInterval(40, 120), SigningInterval(100, 199)]
        offsets, lengths, rows = segment_layout(intervals)
        seg = pts[rows]
        errors, bases, centroids = fit_planes(seg, offsets, lengths)
        assert np.array_equal(seg, pts[rows])   # the caller's points are left as they were
        assert errors.shape == (5,) and bases.shape == (5, 2, 3) and centroids.shape == (5, 3)
        for itv, error, basis, centroid in zip(intervals, errors, bases, centroids):
            want = fit_plane(pts[itv.start : itv.end + 1], 0.02)
            assert error == want.fitting_error
            assert (error < 0.02) == want.is_planar
            assert np.array_equal(basis, want.basis)
            assert np.array_equal(centroid, want.centroid)
            if itv.length >= 3:
                assert error == pytest.approx(
                    dense_svd_fitting_error(pts[itv.start : itv.end + 1]), rel=1e-9)


class TestFitPlane:
    def test_flat_cloud_has_zero_error(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.normal(size=100), rng.normal(size=100), np.zeros(100)])
        result = fit_plane(pts)
        assert result.fitting_error < 1e-12
        assert result.is_planar

    def test_isotropic_octahedron_is_exactly_one_third(self):
        pts = np.array([
            [1, 0, 0], [-1, 0, 0],
            [0, 1, 0], [0, -1, 0],
            [0, 0, 1], [0, 0, -1],
        ], dtype=float)
        result = fit_plane(pts)
        assert result.fitting_error == pytest.approx(1 / 3, abs=1e-12)
        assert not result.is_planar

    def test_isotropic_gaussian_cloud_near_one_third(self):
        rng = np.random.default_rng(1)
        result = fit_plane(rng.normal(size=(10000, 3)))
        assert abs(result.fitting_error - 1 / 3) < 5e-2
        assert not result.is_planar

    def test_shallow_helix_matches_svd_oracle(self):
        t = np.linspace(0, 2 * np.pi, 400)
        pts = np.column_stack([np.cos(t), np.sin(t), 0.1 * t])
        result = fit_plane(pts)
        oracle = dense_svd_fitting_error(pts)
        assert result.fitting_error == pytest.approx(oracle, abs=1e-9)
        assert result.is_planar == (oracle < 5e-2)

    def test_degenerate_point_sets_are_planar(self):
        assert fit_plane(np.array([[1.0, 2.0, 3.0]])).is_planar
        two = fit_plane(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert two.is_planar and two.fitting_error == 0.0

    def test_collinear_points_are_planar(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        result = fit_plane(pts)
        assert result.is_planar
        assert result.fitting_error < 1e-12

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(200, 3)) * [2.0, 1.0, 0.3]
        base = fit_plane(pts)
        for _ in range(3):
            rot = random_rotation(rng)
            moved = fit_plane(pts @ rot.T + rng.normal(size=3))
            assert moved.fitting_error == pytest.approx(base.fitting_error, abs=1e-9)

    def test_uniform_scale_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 3)) * [2.0, 1.0, 0.3]
        assert fit_plane(5.5 * pts).fitting_error == pytest.approx(
            fit_plane(pts).fitting_error, abs=1e-9
        )

    def test_fitting_error_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(3, 50), 3)) * rng.uniform(0.1, 5, size=3)
            err = fit_plane(pts).fitting_error
            assert 0.0 <= err <= 1 / 3 + 1e-12

    @pytest.mark.parametrize("points,shape", [
        (np.zeros((0, 3)), r"\(0, 3\)"),
        (np.zeros((5, 2)), r"\(5, 2\)"),
        (np.zeros(3), r"\(3,\)"),
        (np.zeros((2, 3, 1)), r"\(2, 3, 1\)"),
        ([], r"\(0,\)"),
    ])
    def test_needs_a_non_empty_n_by_3_array(self, points, shape):
        want = rf"points must be a non-empty \(N, 3\) array, got shape {shape}$"
        with pytest.raises(ValueError, match=want):
            fit_plane(points)

    def test_basis_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 3))
        result = fit_plane(pts)
        b = result.basis
        assert np.allclose(b @ b.T, np.eye(2), atol=1e-9)
        for row in b:
            assert row[np.argmax(np.abs(row))] > 0


class TestProjectToPlane:
    def test_already_flat_reduces_to_centered_xy(self):
        rng = np.random.default_rng(6)
        xy = rng.normal(size=(60, 2))
        pts = np.column_stack([xy, np.zeros(60)])
        traj = TimedTrajectory(pts, 60.0, start_frame=3)
        result = fit_plane(pts)
        flat = project_to_plane(traj, result)
        assert flat.dim == 2
        assert flat.start_frame == 3
        # projection is onto span{e1, e2} up to basis orientation
        recon = flat.points @ result.basis[:, :2]
        assert np.allclose(recon, xy - xy.mean(axis=0), atol=1e-9)

    def test_rotated_circle_keeps_radius(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        circle = np.column_stack([3 * np.cos(t), 3 * np.sin(t), np.zeros_like(t)])
        rot = random_rotation(rng)
        pts = circle @ rot.T + np.array([1.0, -2.0, 0.5])
        traj = TimedTrajectory(pts, 60.0)
        flat = project_to_plane(traj, fit_plane(pts))
        radii = np.linalg.norm(flat.points - flat.points.mean(axis=0), axis=1)
        assert np.allclose(radii, 3.0, atol=1e-9)

    def test_projection_idempotent_in_plane(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(80, 3))
        result = fit_plane(pts)
        flat = project_to_plane(TimedTrajectory(pts, 60.0), result)
        embedded = np.column_stack([flat.points, np.zeros(80)])
        assert fit_plane(embedded).fitting_error < 1e-12

    def test_isometry_for_planar_input(self):
        rng = np.random.default_rng(9)
        xy = rng.normal(size=(40, 2))
        pts = np.column_stack([xy, np.zeros(40)]) @ random_rotation(rng).T
        traj = TimedTrajectory(pts, 60.0)
        flat = project_to_plane(traj, fit_plane(pts))
        d3 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d2 = np.linalg.norm(flat.points[:, None] - flat.points[None, :], axis=2)
        assert np.allclose(d3, d2, atol=1e-9)

    def test_requires_3d(self):
        traj = TimedTrajectory(np.zeros((10, 2)), 60.0)
        rng = np.random.default_rng(10)
        result = fit_plane(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            project_to_plane(traj, result)
