"""Tests for the harmonic-mean merit and the per-interval merit curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import padded_window_merit, random_rotation
from trajkf import (
    BRANCH_NONPLANAR,
    BRANCH_PLANAR,
    CurveSpec,
    DerivativeStack,
    DescriptorCurve,
    MeritMethod,
    SigningInterval,
    TimedTrajectory,
    curvature_s,
    curvature_t,
    differentiate,
    extract_keyframes,
    gaussian_smooth,
    generate,
    harmonic_mean_curve,
    merit_curves,
    speed,
)
import trajkf.merit
import trajkf.pipeline
from trajkf.merit import (
    merit_batches,
    merit_curve,
    segment_percentile,
    segmented_merit,
    speed_profile,
)


def curve(values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return DescriptorCurve(values, mask)


def balanced_helix(duration=8.0, fps=60.0, turns=3.0):
    """Helix whose vertical spread matches the radial spread (clearly non-planar)."""
    total = turns * 2 * np.pi
    pitch = np.sqrt(6.0) / total
    rate = total / duration
    return generate(CurveSpec(kind="helix", radius=1.0, pitch=pitch, rate=rate,
                              duration=duration, fps=fps), seed=0), pitch, rate


class TestHarmonicMean:
    def test_equal_inputs(self):
        h = harmonic_mean_curve(curve([3.0, 3.0]), curve([3.0, 3.0]))
        assert np.allclose(h.values, 3.0)

    def test_zero_annihilates(self):
        h = harmonic_mean_curve(curve([4.0]), curve([0.0]))
        assert h.values[0] == 0.0
        assert h.valid_mask[0]

    def test_direct_formula(self):
        h = harmonic_mean_curve(curve([2.0]), curve([6.0]))
        assert h.values[0] == pytest.approx(3.0)  # 2*2*6/8

    def test_masked_inputs_mask_output(self):
        k = curve([1.0, 2.0], mask=[True, False])
        t = curve([1.0, 2.0])
        h = harmonic_mean_curve(k, t)
        assert h.valid_mask.tolist() == [True, False]
        assert h.values[1] == 0.0

    def test_tiny_sum_masked(self):
        h = harmonic_mean_curve(curve([1e-15]), curve([1e-15]))
        assert not h.valid_mask[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            harmonic_mean_curve(curve([1.0]), curve([1.0, 2.0]))

    def test_algebraic_identity_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0, 10, size=64)
            b = rng.uniform(0, 10, size=64)
            h = harmonic_mean_curve(curve(a), curve(b))
            m = h.valid_mask
            assert np.allclose(h.values[m] * (a + b)[m], (2 * a * b)[m], atol=1e-10)
            assert np.all(h.values[m] <= 2 * np.minimum(a, b)[m] + 1e-12)
            assert np.all(h.values[m] <= np.maximum(a, b)[m] + 1e-12)


class TestMeritCurve:
    def test_planar_circle_takes_planar_branch(self):
        res = generate(CurveSpec(kind="circle", radius=2.0, rate=1.0,
                                 duration=4.0, fps=60.0,
                                 orientation=(0.4, 0.3, 0.1)), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        m = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
        assert m.branch == BRANCH_PLANAR
        assert np.max(np.abs(m.values[5:-5] - 1.0)) < 1e-3

    def test_nonplanar_helix_takes_harmonic_branch(self):
        (res, pitch, rate), = [balanced_helix()]
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        m = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
        assert m.branch == BRANCH_NONPLANAR
        c2 = 1.0 + pitch**2
        v = rate * np.sqrt(c2)
        k_exp = v / c2
        t_exp = pitch * v / c2
        h_exp = 2 * k_exp * t_exp / (k_exp + t_exp)
        assert np.max(np.abs(m.values[8:-8] - h_exp)) < 2e-2 * max(1.0, h_exp)

    def test_branch_follows_f_error_threshold(self):
        (res, _, _), = [balanced_helix()]
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        loose = merit_curves(res.trajectory, [itv], MeritMethod.MT, f_error=0.33)[0]
        tight = merit_curves(res.trajectory, [itv], MeritMethod.MT, f_error=1e-4)[0]
        assert loose.branch == BRANCH_PLANAR
        assert tight.branch == BRANCH_NONPLANAR

    def test_straight_line_interval_all_zero(self):
        t = np.arange(60) / 60.0
        traj = TimedTrajectory(np.column_stack([t, 2 * t, -t]), 60.0)
        itv = SigningInterval(0, 59)
        for method in MeritMethod:
            m = merit_curves(traj, [itv], method)[0]
            assert np.max(np.abs(m.values)) < 1e-9

    def test_2d_trajectory_uses_planar_branch_directly(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, rate=2.0, duration=3.0,
                                 fps=60.0, embed=2), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        m = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
        assert m.branch == BRANCH_PLANAR
        assert np.max(np.abs(m.values[5:-5] - 2.0)) < 1e-2

    def test_k2dt_uses_first_two_coordinates(self):
        # helix whose xy-shadow is a unit circle at the phase rate
        res = generate(CurveSpec(kind="helix", radius=1.0, pitch=0.8, rate=1.5,
                                 duration=4.0, fps=60.0), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        m = merit_curves(res.trajectory, [itv], MeritMethod.K2DT)[0]
        assert np.max(np.abs(m.values[5:-5] - 1.5)) < 1e-3

    def test_3d_methods_reject_2d_input(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=2.0,
                                 fps=60.0, embed=2), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        for method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS):
            with pytest.raises(ValueError, match="3-D"):
                merit_curves(res.trajectory, [itv], method)[0]
            with pytest.raises(ValueError, match="3-D"):   # also with no interval to score
                merit_curves(res.trajectory, [], method)

    def test_baselines_are_their_descriptors(self):
        res = generate(CurveSpec(kind="helix", radius=1.0, pitch=1.0,
                                 duration=4.0, fps=60.0), seed=0)
        itv = SigningInterval(10, res.trajectory.n_samples - 20)
        d = differentiate(res.trajectory, 2)
        xy = DerivativeStack(d.d1[:, :2], d.d2[:, :2])
        for method, want in [(MeritMethod.K3DT, curvature_t(d)),
                             (MeritMethod.KAPPA3DS, curvature_s(d)),
                             (MeritMethod.KAPPA2DS, curvature_s(xy)),
                             (MeritMethod.K2DT, curvature_t(xy))]:
            got = merit_curves(res.trajectory, [itv], method)[0]
            span = slice(itv.start, itv.end + 1)
            assert np.array_equal(got.values, want.values[span])
            assert np.array_equal(got.valid_mask, want.valid_mask[span])
            assert got.branch is None

    def test_interval_alignment(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, duration=4.0, fps=60.0), seed=0)
        itv = SigningInterval(20, 99)
        m = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
        assert len(m) == itv.length

    def test_merit_curve_is_merit_curves_on_one_interval(self):
        # merit_curve is kept only for the benchmark: it must stay the one-interval case
        planar = generate(CurveSpec(kind="circle", radius=2.0, rate=1.0, duration=4.0,
                                    fps=60.0, orientation=(0.4, 0.3, 0.1)), seed=0)
        flat = generate(CurveSpec(kind="circle", radius=1.0, rate=2.0, duration=3.0,
                                  fps=60.0, embed=2), seed=0)
        branches = []
        for res in (planar, balanced_helix()[0], flat):
            itv = SigningInterval(10, res.trajectory.n_samples - 20)
            one = merit_curve(res.trajectory, itv, MeritMethod.MT)
            many = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
            assert np.array_equal(one.values, many.values)
            assert np.array_equal(one.valid_mask, many.valid_mask)
            assert one.branch == many.branch
            branches.append(one.branch)
        assert branches == [BRANCH_PLANAR, BRANCH_NONPLANAR, BRANCH_PLANAR]


class TestKinematicSensitivity:
    def test_accelerating_circle_merit_rises_but_shape_curvature_flat(self):
        res = generate(CurveSpec(kind="circle", radius=2.0, phase="quadratic",
                                 rate=0.1, duration=5.0, fps=60.0), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        m = merit_curves(res.trajectory, [itv], MeritMethod.MT)[0]
        sl = slice(40, -6)
        diffs = np.diff(m.values[sl])
        assert np.all(diffs > 0)

        kappa = merit_curves(res.trajectory, [itv], MeritMethod.KAPPA3DS)[0]
        vals = kappa.values[sl]
        assert np.max(np.abs(vals - 0.5)) < 1e-3

    def test_spatial_scale_leaves_merit_and_argmax_unchanged(self):
        res = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                 rest_duration=0.4, n_segments=2,
                                 segment_kinds=("arc", "helix")), seed=3)
        traj = res.trajectory
        scaled = TimedTrajectory(traj.points * 7.0, traj.frame_rate, traj.start_frame)
        for itv in res.intervals:
            m0 = merit_curves(traj, [itv], MeritMethod.MT)[0]
            m1 = merit_curves(scaled, [itv], MeritMethod.MT)[0]
            assert m0.branch == m1.branch
            assert np.allclose(m0.values, m1.values, atol=1e-9)
            assert np.argmax(m0.values) == np.argmax(m1.values)


def assert_matches_reference(curve, reference):
    values, mask, branch = reference
    assert curve.branch == branch
    assert np.array_equal(curve.valid_mask, mask)
    np.testing.assert_allclose(curve.values, values, rtol=1e-9,
                               atol=1e-9 * np.abs(values).max())


@st.composite
def walk_and_intervals(draw):
    """A random walk, 2-D or 3-D and flat to fully spatial, with 1-6 intervals
    of 1-12 samples, many touching the first or the last sample."""
    n = draw(st.integers(7, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # step lengths spread over orders of magnitude, so the slow-sample guards engage
    steps = rng.normal(size=(n, 3)) * rng.exponential(size=(n, 1)) ** 2
    steps[:, 2] *= draw(st.sampled_from([0.0, 0.05, 1.0]))
    points = np.cumsum(steps, axis=0) @ random_rotation(rng).T
    intervals = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, min(12, n)))
        start = draw(st.sampled_from([0, n - length]) | st.integers(0, n - length))
        intervals.append(SigningInterval(start, start + length - 1))
    return TimedTrajectory(points[:, : draw(st.sampled_from([2, 3]))], 60.0), intervals


class TestSinglePassEngine:
    """merit_curves against the per-interval padded-window reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=walk_and_intervals(), f_error=st.sampled_from([0.005, 0.05]))
    def test_matches_padded_window_reference(self, case, f_error):
        traj, intervals = case
        for method in MeritMethod:
            if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim == 2:
                with pytest.raises(ValueError, match="3-D"):
                    merit_curves(traj, intervals, method)
                continue
            curves = merit_curves(traj, intervals, method, f_error)
            for itv, curve in zip(intervals, curves):
                assert_matches_reference(curve, padded_window_merit(traj, itv, method, f_error))

    @staticmethod
    def short_points(n, kind):
        t = 2.0 * np.arange(n)
        if kind == "2d":
            return np.column_stack([np.cos(t), np.sin(t)])
        if kind == "planar":
            flat = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
            return flat @ random_rotation(np.random.default_rng(n)).T
        return np.column_stack([np.cos(t), np.sin(t), 0.25 * t])

    @pytest.mark.parametrize("kind", ["2d", "planar", "nonplanar"])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_short_trajectory_differentiates_to_the_order_it_allows(self, n, kind):
        traj = TimedTrajectory(self.short_points(n, kind), 60.0)
        whole = [SigningInterval(0, n - 1)]
        if kind == "nonplanar" and n < 7:
            with pytest.raises(ValueError, match="need at least 7 samples"):
                extract_keyframes(traj, intervals=whole, sigma=0.0)
            return
        extract_keyframes(traj, intervals=whole, sigma=0.0)
        curve, = merit_curves(traj, whole, MeritMethod.MT)
        assert curve.branch == (BRANCH_NONPLANAR if kind == "nonplanar" else BRANCH_PLANAR)
        assert_matches_reference(curve, padded_window_merit(traj, whole[0], MeritMethod.MT))

    def test_speed_threshold_masks_slow_samples(self):
        res = generate(CurveSpec(kind="circle", radius=1.0, phase="quadratic", rate=0.5,
                                 duration=4.0, fps=60.0), seed=0)
        itv = SigningInterval(0, res.trajectory.n_samples - 1)
        free, = merit_curves(res.trajectory, [itv], MeritMethod.MT)
        guarded, = merit_curves(res.trajectory, [itv], MeritMethod.MT, speed_threshold=1.0)
        slow = np.linalg.norm(np.gradient(res.trajectory.points, 1 / 60.0, axis=0), axis=1) < 0.99
        assert not guarded.valid_mask[slow].any()
        assert np.array_equal(guarded.values[guarded.valid_mask], free.values[guarded.valid_mask])

    def test_interval_outside_trajectory_rejected(self):
        traj = TimedTrajectory(np.random.default_rng(0).normal(size=(20, 3)), 60.0)
        with pytest.raises(ValueError, match="outside trajectory"):
            merit_curves(traj, [SigningInterval(5, 20)], MeritMethod.MT)


class TestSuppliedIntervals:
    """Annotation intervals may overlap, repeat and come in any order."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=walk_and_intervals(), f_error=st.sampled_from([0.005, 0.05]))
    def test_overlapping_unsorted_and_repeated_intervals(self, case, f_error):
        traj, intervals = case
        first = intervals[0]
        # a repeat, an interval overlapping the first, and the list reversed
        intervals = [first, *intervals,
                     SigningInterval(max(0, first.start - 2), first.end)][::-1]
        for method in (MeritMethod.MT, MeritMethod.K2DT):
            curves = merit_curves(traj, intervals, method, f_error)
            assert len(curves) == len(intervals)
            for itv, curve in zip(intervals, curves):
                assert_matches_reference(curve, padded_window_merit(traj, itv, method, f_error))


@st.composite
def clip_and_layout(draw):
    """A 2-D or 3-D random walk of 1-80 samples, flat to fully spatial, with 1-8
    intervals: anywhere, touching either end, nested in or overlapping the one
    before, or repeating an earlier one."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.normal(size=(n, 3)) * rng.exponential(size=(n, 1)) ** 2
    steps[:, 2] *= draw(st.sampled_from([0.0, 0.05, 1.0]))
    points = np.cumsum(steps, axis=0) @ random_rotation(rng).T
    intervals = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["any", "first", "last", "nested", "overlap", "repeat"]))
        prev = intervals[-1] if intervals else SigningInterval(0, n - 1)
        if kind == "repeat" and intervals:
            intervals.append(draw(st.sampled_from(intervals)))
            continue
        if kind in ("nested", "overlap"):
            start = draw(st.integers(prev.start, prev.end))
        else:
            start = 0 if kind == "first" else draw(st.integers(0, n - 1))
        end = n - 1 if kind == "last" else draw(
            st.integers(start, prev.end if kind == "nested" else n - 1))
        intervals.append(SigningInterval(start, end))
    return TimedTrajectory(points[:, : draw(st.sampled_from([2, 3]))], 60.0), intervals


def batched(size, call):
    """``call()`` with segmented_merit's batch size set to ``size``, or its ValueError's text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajkf.merit, "_BATCH_ROWS", size)
        try:
            return call()
        except ValueError as err:
            return f"ValueError: {err}"


def merit_bytes(result):
    if isinstance(result, str):
        return result
    curve, branches, rows = result
    return (curve.values.tobytes(), curve.valid_mask.tobytes(), curve.offsets.tobytes(),
            branches, rows.tobytes())


def keyframe_bytes(result):
    if isinstance(result, str):
        return result
    return (result.frames, np.array(result.scores, dtype=float).tobytes(), result.method,
            result.shortfall)


class TestBatches:
    """segmented_merit and extract_keyframes give the same bytes one interval per batch
    as with all in one batch; extract searches each batch's curve for peaks.  Each batch
    smoothing only its own span gives the merit of the whole clip smoothed."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=clip_and_layout(), method=st.sampled_from(list(MeritMethod)),
           threshold=st.sampled_from([0.0, None]), f_error=st.sampled_from([0.005, 0.05]),
           sigma=st.sampled_from([0.5, 2.0, 7.0, 1e9]))
    def test_one_interval_per_batch_is_one_batch(self, case, method, threshold, f_error, sigma):
        traj, intervals = case
        whole = 10 * sum(itv.length for itv in intervals)
        merit = [batched(size, lambda: segmented_merit(traj, intervals, method, f_error,
                                                       threshold or 0.0)) for size in (1, whole)]
        assert merit_bytes(merit[0]) == merit_bytes(merit[1])
        if traj.n_samples < 4:   # too short for d2, whatever the method
            assert "order 2" in merit[0] or "3-D" in merit[0]
        # each interval's batch smoothed on its own, against the whole clip smoothed first
        windows = batched(1, lambda: [merit_bytes(part) for part in merit_batches(
            traj, intervals, method, f_error, threshold or 0.0, sigma)])
        smoothed = batched(1, lambda: [merit_bytes(segmented_merit(
            gaussian_smooth(traj, sigma), [itv], method, f_error, threshold or 0.0))
            for itv in intervals])
        assert windows == smoothed
        find_peaks, keys, segments = trajkf.pipeline.find_peaks, [], []
        for size in (1, whole):   # the segments of each curve find_peaks is called on
            segments.append([])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trajkf.pipeline, "find_peaks", lambda curve: (
                    segments[-1].append(len(curve.offsets)), find_peaks(curve))[1])
                keys.append(batched(size, lambda: extract_keyframes(
                    traj, method, count=len(traj.points), sigma=sigma, f_error=f_error,
                    intervals=intervals, speed_threshold=threshold)))
        assert keyframe_bytes(keys[0]) == keyframe_bytes(keys[1])
        distinct = len(set(intervals))
        if isinstance(keys[0], str):   # an argument or the clip refused before any batch
            assert segments == [[], []]
        else:   # one call per distinct interval, or one for all of them
            assert segments == [[1] * distinct, [distinct]]


class TestSpeedProfile:
    """speed_profile, each block of samples smoothed and its d1 evaluated on its own, is the
    speed of the whole clip smoothed."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_blocks_give_the_whole_clip_speed_bit_for_bit(self, data):
        n, dim = data.draw(st.integers(3, 400)), data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        traj = TimedTrajectory(scale * np.cumsum(rng.normal(size=(n, dim)), axis=0),
                               data.draw(st.sampled_from([1.0, 29.97, 60.0, 240.0])))
        sigma = data.draw(st.sampled_from([0.0, 1e-160, 0.5, 2.0, 7.0, 1e9]))
        want = speed(differentiate(gaussian_smooth(traj, sigma), 1)).tobytes()
        # blocks that end one or two samples from either clip end, and one block for all
        for block in (1, 2, 7, data.draw(st.integers(1, n)), n + data.draw(st.integers(0, 3))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trajkf.merit, "_BATCH_ROWS", block)
                assert speed_profile(traj, sigma).tobytes() == want


EXTREME = [0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308,
           -1.7976931348623157e308, -1.0, np.inf, -np.inf]


class TestSegmentPercentile:
    """segment_percentile against np.percentile on each segment alone, bit for bit."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(segments=st.lists(st.one_of(
        st.lists(st.integers(0, 3).map(float), min_size=1, max_size=40),   # ties
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
        st.lists(st.sampled_from(EXTREME), min_size=1, max_size=40),
    ), min_size=1, max_size=6), q=st.sampled_from([95, 0, 37.5, 50, 100]))
    def test_matches_numpy_percentile(self, segments, q):
        # +0.0: -0.0 and 0.0 tie, and either may come first in a sort
        segments = [[v + 0.0 for v in seg] for seg in segments]
        values = np.array([v for seg in segments for v in seg])
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf and overflow
            got = segment_percentile(values, np.array([len(seg) for seg in segments]), q)
            want = np.array([np.percentile(seg, q) for seg in segments])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_length_matches_with_repeats(self, n):
        rng = np.random.default_rng(n)
        segments = [rng.integers(0, 4, n).astype(float), rng.exponential(size=n)]
        values = np.concatenate(segments)
        got = segment_percentile(values, np.array([n, n]), 95)
        assert got.tobytes() == np.array([np.percentile(seg, 95) for seg in segments]).tobytes()

    @pytest.mark.parametrize("q", [0, 95, 100])
    def test_negative_zero_keeps_its_sign(self, q):
        # a lone sample goes through numpy's t >= 0.5 form, which keeps -0.0
        segments = [[-0.0], [-0.0, -0.0], [-1.0, -0.0], [-0.0, 1.0], [-0.0] * 5]
        values = np.array([v for seg in segments for v in seg])
        got = segment_percentile(values, np.array([len(seg) for seg in segments]), q)
        assert got.tobytes() == np.array([np.percentile(seg, q) for seg in segments]).tobytes()
