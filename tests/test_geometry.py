"""Tests for curvature/torsion descriptors.

Closed-form circle/helix values come from radius r (curvature 1/r) and the
helix constants a/(a^2+b^2), b/(a^2+b^2); everything else is checked against
the arc-length-route oracle in oracles.py.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trajkf.geometry
from trajkf import (
    CurveSpec,
    DerivativeStack,
    DescriptorCurve,
    TimedTrajectory,
    curvature_s,
    curvature_t,
    differentiate,
    generate,
    speed,
    torsion_s,
    torsion_t,
    warp_time,
)
from oracles import arclength_of, random_rotation, s_route_rates, unit_speed_resample, s_curvature_torsion


def interior(values, margin=4):
    return values[margin:-margin]


def circle_traj(radius=2.0, omega=1.0, fps=60.0, duration=5.0):
    res = generate(CurveSpec(kind="circle", radius=radius, rate=omega,
                             duration=duration, fps=fps), seed=0)
    return res


def helix_traj(a=1.0, b=1.0, omega=1.0, fps=60.0, duration=6.0):
    return generate(CurveSpec(kind="helix", radius=a, pitch=b, rate=omega,
                              duration=duration, fps=fps), seed=0)


class TestCurvatureS:
    def test_circle_curvature_is_inverse_radius(self):
        d = differentiate(circle_traj(radius=2.0, omega=1.5).trajectory, 2)
        kappa = curvature_s(d)
        assert np.max(np.abs(interior(kappa.values) - 0.5)) < 1e-3

    def test_straight_line_curvature_zero(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([t, t, t]), 60.0)
        kappa = curvature_s(differentiate(traj, 2))
        assert np.max(np.abs(interior(kappa.values))) < 1e-9
        assert kappa.valid_mask.all()

    def test_helix_closed_form(self):
        d = differentiate(helix_traj(a=1.0, b=1.0).trajectory, 2)
        kappa = curvature_s(d)
        assert np.max(np.abs(interior(kappa.values) - 0.5)) < 1e-3

    def test_unit_speed_oracle_agreement(self):
        # non-constant curvature curve: compare against the arc-length route
        res = generate(CurveSpec(kind="planar_polynomial", poly_coeffs=(0.0, 0.0, 0.4, 0.1),
                                 duration=3.0, fps=60.0), seed=0)
        d = differentiate(res.trajectory, 2)
        kappa = curvature_s(d)
        s_grid, pts = unit_speed_resample(res.position_fn, 0.0, res.trajectory.times()[-1])
        kappa_oracle, _ = s_curvature_torsion(pts, s_grid[1] - s_grid[0])
        s_samples = arclength_of(res.trajectory.points)
        expected = np.interp(s_samples, s_grid, kappa_oracle)
        assert np.max(np.abs(interior(kappa.values) - interior(expected))) < 1e-3


class TestTorsionS:
    def test_planar_circle_torsion_zero(self):
        d = differentiate(circle_traj().trajectory, 3)
        tau = torsion_s(d)
        assert np.max(np.abs(interior(tau.values))) < 1e-6
        assert interior(tau.valid_mask).all()

    def test_helix_closed_form(self):
        d = differentiate(helix_traj(a=1.0, b=1.0).trajectory, 3)
        tau = torsion_s(d)
        assert np.max(np.abs(interior(tau.values) - 0.5)) < 1e-3

    def test_straight_line_masked(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([t, 2 * t, 3 * t]), 60.0)
        tau = torsion_s(differentiate(traj, 3))
        assert not tau.valid_mask.any()
        assert np.all(tau.values == 0.0)

    def test_two_dim_input_rejected(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([np.cos(t), np.sin(t)]), 60.0)
        with pytest.raises(ValueError, match="3-D"):
            torsion_s(differentiate(traj, 3))


class TestCurvatureT:
    def test_circle_turn_rate_is_omega_independent_of_radius(self):
        for radius in (2.0, 7.0):
            d = differentiate(circle_traj(radius=radius, omega=1.5).trajectory, 2)
            k = curvature_t(d)
            assert np.max(np.abs(interior(k.values) - 1.5)) < 1e-3

    def test_accelerating_circle_tracks_phase_rate(self):
        res = generate(CurveSpec(kind="circle", radius=2.0, phase="quadratic",
                                 rate=0.2, duration=5.0, fps=60.0), seed=0)
        d = differentiate(res.trajectory, 2)
        k = curvature_t(d)
        t = res.trajectory.times()
        sl = slice(30, -5)
        assert np.max(np.abs(k.values[sl] - 2 * 0.2 * t[sl])) < 1e-2

    def test_line_zero(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([3 * t, 4 * t]), 60.0)
        k = curvature_t(differentiate(traj, 2))
        assert np.max(np.abs(k.values)) < 1e-9


class TestTorsionT:
    def test_helix_twist_rate_scales_with_omega(self):
        omega = 2.0
        res = helix_traj(a=1.0, b=1.0, omega=omega, duration=4.0)
        d = differentiate(res.trajectory, 3)
        t_abs = torsion_t(d)
        expected = omega * np.sqrt(2) / 2   # tau * v = (1/2) * omega*sqrt(2)
        assert np.max(np.abs(interior(t_abs.values, 6) - expected)) < 1e-2
        # independent arc-length-route oracle at the same samples
        times = res.trajectory.times()
        _, twist_oracle, _, _ = s_route_rates(res.position_fn, times)
        assert np.max(np.abs(interior(t_abs.values, 8) - interior(twist_oracle, 8))) < 1e-2

    def test_planar_motion_zero(self):
        d = differentiate(circle_traj().trajectory, 3)
        t_abs = torsion_t(d)
        assert np.max(np.abs(interior(t_abs.values))) < 1e-6

    def test_straight_line_masked(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([t, t, np.zeros_like(t)]), 60.0)
        t_abs = torsion_t(differentiate(traj, 3))
        assert not t_abs.valid_mask.any()

    def test_two_dim_input_rejected(self):
        t = np.arange(40) / 60.0
        traj = TimedTrajectory(np.column_stack([np.cos(t), np.sin(t)]), 60.0)
        with pytest.raises(ValueError, match="3-D"):
            torsion_t(differentiate(traj, 3))


class TestInvariances:
    def _descriptors(self, pts, fps=60.0):
        d = differentiate(TimedTrajectory(pts, fps), 3)
        return (curvature_s(d).values, torsion_s(d).values,
                curvature_t(d).values, torsion_t(d).values)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        t = np.arange(200) / 60.0
        pts = np.column_stack([np.cos(t), np.sin(t), 0.2 * np.sin(3 * t)])
        base = self._descriptors(pts)
        for _ in range(3):
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            moved = self._descriptors(pts @ rot.T + shift)
            for a, b in zip(base, moved):
                assert np.allclose(a, b, atol=1e-9)

    def test_uniform_scaling_covariance(self):
        t = np.arange(200) / 60.0
        pts = np.column_stack([np.cos(t), np.sin(t), 0.2 * np.sin(3 * t)])
        kappa0, tau0, k0, t0 = self._descriptors(pts)
        c = 3.7
        kappa1, tau1, k1, t1 = self._descriptors(c * pts)
        assert np.allclose(kappa1 * c, kappa0, atol=1e-9)
        assert np.allclose(tau1 * c, tau0, atol=1e-9)
        assert np.allclose(k1, k0, atol=1e-9)
        assert np.allclose(t1, t0, atol=1e-9)
        assert np.argmax(k1[4:-4]) == np.argmax(k0[4:-4])


class TestReparameterization:
    """Shape descriptors survive monotone time warps; rate descriptors do not."""

    @staticmethod
    def _resampled_curve(result, descriptor_fn, order):
        traj = result.trajectory
        d = differentiate(traj, order)
        curve = descriptor_fn(d)
        s = arclength_of(traj.points)
        m = curve.valid_mask.copy()
        m[:4] = m[-4:] = False
        return s[m], curve.values[m]

    def test_shape_descriptors_match_after_warp(self):
        for kind, pitch in (("circle", 0.0), ("helix", 1.0)):
            res = generate(CurveSpec(kind=kind, radius=1.0, pitch=pitch,
                                     duration=5.0, fps=120.0), seed=0)
            span = res.trajectory.times()[-1]
            warp = lambda t, _s=span: _s * (t / _s) ** 2
            warped_traj = warp_time(res.trajectory, warp, res.position_fn)

            for fn, order in ((curvature_s, 2),) + (((torsion_s, 3),) if kind == "helix" else ()):
                s0, v0 = self._resampled_curve(res, fn, order)
                d = differentiate(warped_traj, order)
                curve = fn(d)
                s1 = arclength_of(warped_traj.points)
                m = curve.valid_mask.copy()
                m[:4] = m[-4:] = False
                s1, v1 = s1[m], curve.values[m]
                lo = max(s0.min(), s1.min())
                hi = min(s0.max(), s1.max())
                grid = np.linspace(lo, hi, 400)
                resampled0 = np.interp(grid, s0, v0)
                resampled1 = np.interp(grid, s1, v1)
                assert np.max(np.abs(resampled0 - resampled1)) < 1e-2

    def test_rate_descriptor_changes_under_warp(self):
        res = generate(CurveSpec(kind="circle", radius=2.0, duration=5.0, fps=60.0), seed=0)
        span = res.trajectory.times()[-1]
        warped = warp_time(res.trajectory, lambda t: span * (t / span) ** 2,
                           res.position_fn)
        k = curvature_t(differentiate(warped, 2))
        vals = k.values[k.valid_mask]
        # constant-speed original has constant turn rate; the warp spreads it
        assert vals.max() - vals.min() > 0.1


class TestDescriptorKernel:
    def test_reads_the_speed_it_is_given(self, monkeypatch):
        d = differentiate(helix_traj().trajectory, 3)
        v = speed(d)
        want_k, want_tau = curvature_t(d), torsion_t(d)
        monkeypatch.setattr(trajkf.geometry, "speed", lambda d: pytest.fail("speed computed"))
        k, tau = trajkf.geometry.descriptor_kernel(d, v, True, torsion=True)
        assert np.array_equal(k.values, want_k.values)
        assert np.array_equal(tau.values, want_tau.values)
        # twice the speed: a quarter of the turn rate, twice the twist rate, bit for bit
        k2, tau2 = trajkf.geometry.descriptor_kernel(d, 2 * v, True, torsion=True)
        assert np.array_equal(k2.values, k.values / 4)
        assert np.array_equal(tau2.values, 2 * tau.values)
        assert trajkf.geometry.descriptor_kernel(d, v, False)[1] is None

    @pytest.mark.parametrize("descriptor,order,match", [
        (curvature_s, 1, "curvature needs second derivatives"),
        (curvature_t, 1, "curvature needs second derivatives"),
        (torsion_s, 2, "torsion needs third derivatives"),
        (torsion_t, 2, "torsion needs third derivatives"),
    ])
    def test_missing_derivatives_rejected(self, descriptor, order, match):
        d = differentiate(helix_traj().trajectory, order)
        with pytest.raises(ValueError, match=match):
            descriptor(d)


class TestCrossProduct:
    """descriptor_kernel's d1 x d2, written out as np.cross's three component products in its
    order, and its norm as np.linalg.norm's sum, give the kernel as np.cross and
    np.linalg.norm gave it, bit for bit, near overflow too; under extract's errstate an
    overflowing product still raises FloatingPointError."""

    @staticmethod
    def np_cross_kernel(d1, d2, d3, v):   # descriptor_kernel's rates spelled with np.cross
        cross = np.cross(d1, d2)
        mag = np.linalg.norm(cross, axis=1)
        moving = v >= trajkf.geometry.SPEED_EPS
        k, tau = np.zeros(len(v)), np.zeros(len(v))
        np.divide(mag, v**2, out=k, where=moving)
        np.divide(np.abs(np.einsum("ij,ij->i", cross, d3)) * v, mag**2, out=tau,
                  where=moving & (mag >= trajkf.geometry.CROSS_EPS))
        return k.tobytes() + tau.tobytes()

    @staticmethod
    def kernel(d1, d2, d3, v):
        k, tau = trajkf.geometry.descriptor_kernel(DerivativeStack(d1, d2, d3), v, True, True)
        return k.values.tobytes() + tau.values.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    @example(data=None)   # a product overflows, the speed does not
    def test_is_np_cross_bit_for_bit(self, data):
        if data is None:
            d1, d2, d3 = np.array([[1e10, 2e10, 0.0]]), np.array([[0.0, 1e300, 1e300]]), \
                np.ones((1, 3))
        else:
            n = data.draw(st.integers(1, 30))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            scale = st.sampled_from([0.0, 1e-300, 1e-160, 1.0, 1e100, 1e150, 1e154, 1e155, 1e160])
            d1, d2, d3 = (rng.normal(size=(n, 3)) * data.draw(scale) for _ in range(3))
            parallel = rng.random(n) < 0.2   # a cross product of exact zeros
            d2[parallel] = 2 * d1[parallel]
            d1[rng.random((n, 3)) < 0.2] = 0.0   # zero components
        with np.errstate(all="ignore"):
            v = speed(DerivativeStack(d1))
            assert self.kernel(d1, d2, d3, v) == self.np_cross_kernel(d1, d2, d3, v)
        got, want = [], []
        for out, call in ((got, self.kernel), (want, self.np_cross_kernel)):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    out.append(call(d1, d2, d3, v))
                except FloatingPointError:
                    out.append("raised")
        assert got == want
        if data is None:
            assert got == ["raised"]


@pytest.mark.parametrize("values,mask", [
    (np.zeros(3), np.zeros(4, dtype=bool)),
    (np.zeros((2, 3)), np.zeros((2, 3), dtype=bool)),
])
def test_descriptor_curve_needs_equal_1d_values_and_mask(values, mask):
    with pytest.raises(ValueError, match="values and valid_mask must be 1-D arrays of equal len"):
        DescriptorCurve(values, mask)
