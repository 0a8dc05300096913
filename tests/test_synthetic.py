"""Tests for the synthetic curve generator and time warping."""

import numpy as np
import pytest

from trajkf import (
    CurveSpec,
    MeritMethod,
    curvature_t,
    detect_intervals,
    differentiate,
    generate,
    merit_curves,
    warp_time,
)
from trajkf.geometry import BRANCH_NONPLANAR, BRANCH_PLANAR


class TestGenerate:
    def test_circle_analytic_values(self):
        res = generate(CurveSpec(kind="circle", radius=2.0, rate=1.0,
                                 duration=5.0, fps=60.0), seed=0)
        assert res.trajectory.n_samples == 300
        assert np.allclose(res.curvature_s.values, 0.5)
        assert np.allclose(res.curvature_t.values, 1.0)
        assert np.allclose(res.torsion_s.values, 0.0)
        # samples actually lie on the circle
        radii = np.linalg.norm(res.trajectory.points[:, :2], axis=1)
        assert np.allclose(radii, 2.0, atol=1e-12)

    def test_helix_analytic_values(self):
        res = generate(CurveSpec(kind="helix", radius=1.0, pitch=1.0, rate=1.0,
                                 duration=5.0, fps=60.0), seed=0)
        assert np.allclose(res.curvature_s.values, 0.5)
        assert np.allclose(res.torsion_s.values, 0.5)
        assert np.allclose(res.curvature_t.values, np.sqrt(2) / 2)
        assert np.allclose(res.torsion_t.values, np.sqrt(2) / 2)

    def test_line_curvature_zero_torsion_undefined(self):
        res = generate(CurveSpec(kind="line", rate=2.0, duration=3.0, fps=60.0), seed=0)
        assert np.all(res.curvature_s.values == 0.0)
        assert res.curvature_s.valid_mask.all()
        assert not res.torsion_s.valid_mask.any()

    def test_computed_descriptors_match_analytic(self):
        res = generate(CurveSpec(kind="helix", radius=1.5, pitch=0.8, rate=1.2,
                                 duration=5.0, fps=60.0), seed=0)
        d = differentiate(res.trajectory, 3)
        k = curvature_t(d)
        sl = slice(5, -5)
        assert np.max(np.abs(k.values[sl] - res.curvature_t.values[sl])) < 2e-2

    def test_seeded_noise_reproducible(self):
        spec = CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0,
                         noise_sigma=0.01)
        a = generate(spec, seed=42)
        b = generate(spec, seed=42)
        assert np.array_equal(a.trajectory.points, b.trajectory.points)
        c = generate(spec, seed=43)
        assert not np.array_equal(a.trajectory.points, c.trajectory.points)

    def test_burst_phase_keyframes_at_burst_centers(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, phase="burst", rate=2.0,
                                 n_bursts=2, duration=4.0, fps=60.0), seed=0)
        assert res.keyframes == (60, 180)

    def test_burst_keyframes_are_distinct_when_bursts_crowd_the_frames(self):
        spec = CurveSpec(kind="circle", phase="burst", n_bursts=300, duration=5, fps=60)
        frames = generate(spec).keyframes
        assert list(frames) == sorted(set(frames))
        assert len(frames) == 154 and frames[:3] == (2, 4, 6)

    def test_orientation_preserves_descriptors(self):
        flat = generate(CurveSpec(kind="circle", radius=2.0, duration=3.0, fps=60.0), seed=0)
        tilted = generate(CurveSpec(kind="circle", radius=2.0, duration=3.0, fps=60.0,
                                    orientation=(0.7, -0.4, 1.2)), seed=0)
        assert np.allclose(flat.curvature_t.values, tilted.curvature_t.values)
        d = differentiate(tilted.trajectory, 2)
        assert np.max(np.abs(curvature_t(d).values[4:-4] - 1.0)) < 1e-3

    def test_embed_2d(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0,
                                 embed=2), seed=0)
        assert res.trajectory.dim == 2
        assert res.torsion_s is None
        with pytest.raises(ValueError):
            CurveSpec(kind="helix", radius=1.0, pitch=1.0, embed=2)

    @pytest.mark.parametrize("fields,match", [
        ({"kind": "blob"}, "kind"),
        ({"radius": -1.0}, "radius"),
        ({"fps": 0.0}, "fps"),
        ({"noise_sigma": -0.1}, "noise_sigma"),
        ({"phase": "cubic"}, "phase"),
        *[({name: bad}, name) for name in ("radius", "pitch", "rate", "duration", "fps",
                                           "noise_sigma", "rest_duration")
          for bad in (np.nan, np.inf, -np.inf)],
        ({"orientation": (0.0, np.nan, 0.0)}, "orientation"),
        ({"poly_coeffs": (0.0, np.inf)}, "poly_coeffs"),
        ({"duration": 1e308}, "duration \\* fps"),
        ({"rest_duration": 1e308}, "rest_duration \\* fps"),
        ({"n_bursts": 0}, "n_bursts"),
        ({"n_bursts": 10**400}, "n_bursts"),
        ({"n_segments": 0}, "n_segments"),
        ({"duration": 0.01}, "duration \\* fps"),
        ({"kind": "piecewise_signing", "duration": 0.1}, "duration \\* fps"),
        ({"segment_kinds": ("arc", "loop", "arc")}, "segment_kinds"),
        ({"segment_kinds": ("arc", "helix")}, "segment_kinds length must equal n_segments"),
        ({"embed": 4}, "embed must be 2 or 3"),
        ({"fps": 1e-200, "duration": 1e201}, r"fps must lie in \[1.78e-103, 3.55e\+102\]"),
        ({"fps": 1e110}, r"fps must lie in \[1.78e-103, 3.55e\+102\], got 1e\+110"),
    ])
    def test_invalid_specs_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            CurveSpec(**{"kind": "circle", **fields})

    @pytest.mark.parametrize("fields", [{"rate": 1e308}, {"pitch": 1e308, "rate": 10.0},
                                        {"noise_sigma": 1e308}])
    def test_curve_beyond_the_float_range_rejected(self, fields):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="float range"):
            generate(CurveSpec(kind="helix", **fields))


class TestPiecewiseSigning:
    def spec(self, **kw):
        defaults = dict(kind="piecewise_signing", radius=0.25, duration=1.0,
                        rest_duration=0.5, n_segments=3, fps=60.0)
        defaults.update(kw)
        return CurveSpec(**defaults)

    def test_structure(self):
        res = generate(self.spec(), seed=1)
        n_rest, n_mot = 30, 60
        assert res.trajectory.n_samples == n_rest + 3 * (n_mot + n_rest)
        assert len(res.intervals) == 3
        assert len(res.keyframes) == 3
        for itv, kf in zip(res.intervals, res.keyframes):
            assert itv.length == n_mot
            assert itv.contains(kf)
            assert kf == itv.start + n_mot // 2

    def test_rests_are_stationary_and_continuous(self):
        res = generate(self.spec(), seed=2)
        pts = res.trajectory.points
        for itv in res.intervals:
            # rest block before the interval holds one position, and the
            # motion starts where the rest sits
            rest = pts[itv.start - 5 : itv.start]
            assert np.allclose(rest, rest[0], atol=1e-12)
            assert np.allclose(pts[itv.start], rest[0], atol=1e-12)
        # rest after the last interval matches the segment's endpoint limit
        last = res.intervals[-1]
        jump = np.linalg.norm(pts[last.end + 1] - pts[last.end])
        assert jump < 0.01   # speed ~ 0 at the junction

    def test_detected_intervals_align_with_construction(self):
        res = generate(self.spec(), seed=3)
        detected = detect_intervals(res.trajectory, speed_threshold=1e-4,
                                    min_gap=5, min_len=12)
        assert len(detected) == len(res.intervals)
        for got, true in zip(detected, res.intervals):
            assert abs(got.start - true.start) <= 2
            assert abs(got.end - true.end) <= 2

    def test_segment_kinds_control_branches(self):
        res = generate(self.spec(segment_kinds=("arc", "helix"), n_segments=2), seed=4)
        branches = [c.branch for c in
                    merit_curves(res.trajectory, res.intervals, MeritMethod.MT)]
        assert branches == [BRANCH_PLANAR, BRANCH_NONPLANAR]

    def test_analytic_curves_masked_at_rests(self):
        res = generate(self.spec(), seed=5)
        mask = res.curvature_t.valid_mask
        for itv in res.intervals:
            assert not mask[itv.start - 3]
            assert mask[(itv.start + itv.end) // 2]

    def test_position_fn_matches_samples(self):
        res = generate(self.spec(), seed=6)
        times = res.trajectory.times()
        recon = res.position_fn(times)
        assert np.allclose(recon, res.trajectory.points, atol=1e-9)

    def test_position_fn_holds_the_end_rests_outside_the_clip(self):
        res = generate(self.spec(n_segments=2), seed=6)
        pts = res.trajectory.points
        end = res.trajectory.times()[-1]
        out = res.position_fn(np.array([-0.5, -1e-3, end + 1e-3, end + 0.5]))
        assert np.array_equal(out, [pts[0], pts[0], pts[-1], pts[-1]])


class TestWarpTime:
    def test_identity_warp_is_identity(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=3.0, fps=60.0), seed=0)
        out = warp_time(res.trajectory, lambda t: t, res.position_fn)
        assert np.allclose(out.points, res.trajectory.points, atol=1e-12)

    def test_quadratic_warp_scales_turn_rate(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, rate=1.0,
                                 duration=5.0, fps=60.0), seed=0)
        span = res.trajectory.times()[-1]
        warped = warp_time(res.trajectory, lambda t: t**2 / span, res.position_fn)
        k = curvature_t(differentiate(warped, 2))
        t = warped.times()
        sl = slice(40, -6)
        assert np.max(np.abs(k.values[sl] - 2 * t[sl] / span)) < 1e-2

    def test_non_monotone_warp_rejected(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0), seed=0)
        span = res.trajectory.times()[-1]
        wiggly = lambda t: t + 1.5 * span / (2 * np.pi) * np.sin(2 * np.pi * t / span)
        with pytest.raises(ValueError, match="increasing"):
            warp_time(res.trajectory, wiggly, res.position_fn)

    def test_endpoint_moving_warp_rejected(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0), seed=0)
        with pytest.raises(ValueError, match="endpoints"):
            warp_time(res.trajectory, lambda t: 0.5 * t, res.position_fn)

    def test_two_dim_trajectory_warps_in_the_plane(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0,
                                 embed=2), seed=0)
        span = res.trajectory.times()[-1]
        out = warp_time(res.trajectory, lambda t: t**2 / span, res.position_fn)
        assert out.dim == 2 and out.frame_rate == 60.0 and out.start_frame == 0
        warped = res.trajectory.times() ** 2 / span
        assert np.array_equal(out.points, res.position_fn(warped)[:, :2])

    def test_wrong_shape_warp_rejected(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0, fps=60.0), seed=0)
        with pytest.raises(ValueError, match="shape"):
            warp_time(res.trajectory, lambda t: t[:-1], res.position_fn)
