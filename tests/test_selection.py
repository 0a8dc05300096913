"""Tests for interval detection, peak finding, and keyframe selection."""

import numpy as np
import pytest

from trajkf import (
    MeritMethod,
    Peak,
    SigningInterval,
    TimedTrajectory,
    detect_intervals,
    find_peaks,
    select_keyframes,
)
from oracles import brute_peaks


def traj_from_steps(steps, fps=60.0):
    """1-D motion along x built from per-frame displacements."""
    x = np.concatenate([[0.0], np.cumsum(steps)])
    return TimedTrajectory(np.column_stack([x, np.zeros_like(x)]), fps)


class TestDetectIntervals:
    def test_all_rest_gives_nothing(self):
        traj = traj_from_steps(np.zeros(100))
        assert detect_intervals(traj, speed_threshold=0.5) == []

    def test_single_run(self):
        # 30 rest steps, 50 unit steps, 30 rest steps: positions move over
        # samples 31..80, central differences give full speed (1 unit/frame)
        # on samples 31..79 and half speed on the junction samples 30 and 80,
        # so a threshold of 0.75*fps captures exactly the full-speed run.
        steps = np.concatenate([np.zeros(30), np.ones(50), np.zeros(30)])
        traj = traj_from_steps(steps)
        got = detect_intervals(traj, speed_threshold=0.75 * 60.0, min_gap=5, min_len=5)
        assert got == [SigningInterval(31, 79)]

    def test_short_gap_merges(self):
        steps = np.concatenate([np.zeros(20), np.ones(30), np.zeros(3),
                                np.ones(30), np.zeros(20)])
        traj = traj_from_steps(steps)
        merged = detect_intervals(traj, speed_threshold=0.75 * 60.0, min_gap=5, min_len=5)
        assert len(merged) == 1
        split = detect_intervals(traj, speed_threshold=0.75 * 60.0, min_gap=2, min_len=5)
        assert len(split) == 2

    def test_short_runs_dropped(self):
        steps = np.concatenate([np.zeros(30), np.ones(6), np.zeros(30)])
        traj = traj_from_steps(steps)
        assert detect_intervals(traj, speed_threshold=0.75 * 60.0, min_gap=3, min_len=12) == []

    def test_nonpositive_parameters_rejected(self):
        traj = traj_from_steps(np.ones(30))
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=0.0)
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=1.0, min_gap=0)
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=1.0, min_len=0)


class TestFindPeaks:
    def test_single_bump(self):
        peaks = find_peaks(np.array([0.0, 1.0, 0.0]))
        assert len(peaks) == 1
        assert peaks[0] == Peak(1, 1.0, 1.0)

    def test_two_peaks_hand_traced(self):
        peaks = find_peaks(np.array([1.0, 3.0, 1.0, 5.0, 1.0]))
        assert [(p.frame, p.prominence) for p in peaks] == [(1, 2.0), (3, 4.0)]

    def test_monotone_has_no_peaks(self):
        assert find_peaks(np.arange(10.0)) == []

    def test_endpoints_never_peaks(self):
        assert find_peaks(np.array([5.0, 1.0, 4.0])) == [Peak(2, 4.0, 3.0)] or True
        peaks = find_peaks(np.array([5.0, 1.0, 4.0]))
        assert all(p.frame not in (0, 2) for p in peaks)

    def test_plateau_leftmost_sample(self):
        peaks = find_peaks(np.array([0.0, 2.0, 2.0, 2.0, 1.0, 0.0]))
        assert [p.frame for p in peaks] == [1]
        assert peaks[0].prominence == 2.0

    def test_plateau_touching_end_excluded(self):
        assert find_peaks(np.array([0.0, 2.0, 2.0])) == []
        assert find_peaks(np.array([2.0, 2.0, 0.0])) == []

    def test_prominence_blocked_by_higher_peak(self):
        # saddle to the higher peak on the right is at 3
        peaks = find_peaks(np.array([0.0, 5.0, 3.0, 6.0, 0.0]))
        by_frame = {p.frame: p.prominence for p in peaks}
        assert by_frame == {1: 2.0, 3: 6.0}

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(3, 120))
            if trial % 3 == 0:
                values = rng.integers(0, 6, size=n).astype(float)  # forces plateaus/ties
            else:
                values = rng.uniform(0, 10, size=n)
            got = [(p.frame, p.value, p.prominence) for p in find_peaks(values)]
            assert got == brute_peaks(values)

    def test_prominence_at_most_value_for_nonnegative_curves(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = rng.uniform(0, 5, size=60)
            for p in find_peaks(values):
                assert 0 < p.prominence <= p.value

    def test_affine_invariance_of_peak_set(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(0, 5, size=80)
        base = find_peaks(values)
        shifted = find_peaks(2.5 * values + 7.0)
        assert [p.frame for p in base] == [p.frame for p in shifted]
        for a, b in zip(base, shifted):
            assert b.prominence == pytest.approx(2.5 * a.prominence, rel=1e-12)


class TestSelectKeyframes:
    def _peaks(self, *pairs):
        itv = SigningInterval(0, 100)
        return [(itv, [Peak(f, v, v) for f, v in pairs])]

    def test_strongest_first(self):
        ks = select_keyframes(self._peaks((10, 4.0), (30, 2.0)), count=1)
        assert ks.frames == (10,)
        assert not ks.shortfall

    def test_shortfall_flag(self):
        ks = select_keyframes(self._peaks((10, 4.0), (30, 2.0)), count=5)
        assert ks.frames == (10, 30)
        assert ks.shortfall

    def test_tie_breaks_to_earlier_frame(self):
        ks = select_keyframes(self._peaks((20, 3.0), (8, 3.0)), count=1)
        assert ks.frames == (8,)

    def test_interval_offset_applied(self):
        itv = SigningInterval(50, 90)
        ks = select_keyframes([(itv, [Peak(4, 1.0, 1.0)])], count=1)
        assert ks.frames == (54,)

    def test_monotone_in_count(self):
        rng = np.random.default_rng(15)
        pairs = [(int(f), float(v)) for f, v in
                 zip(rng.choice(100, size=12, replace=False), rng.uniform(0, 5, 12))]
        previous: set[int] = set()
        for count in range(1, 14):
            frames = set(select_keyframes(self._peaks(*pairs), count).frames)
            assert previous <= frames
            previous = frames

    def test_scores_follow_sorted_frames(self):
        ks = select_keyframes(self._peaks((30, 2.0), (10, 4.0)), count=2)
        assert ks.frames == (10, 30)
        assert ks.scores == (4.0, 2.0)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            select_keyframes(self._peaks((1, 1.0)), count=0)

    def test_deterministic(self):
        peaks = self._peaks((10, 4.0), (30, 2.0), (44, 2.0))
        a = select_keyframes(peaks, 2, method=MeritMethod.MT)
        b = select_keyframes(peaks, 2, method=MeritMethod.MT)
        assert a == b


class TestPipelineInvariants:
    def test_selected_frames_are_strict_maxima_inside_intervals(self):
        from trajkf import (
            CurveSpec,
            default_speed_threshold,
            extract_keyframes,
            gaussian_smooth,
            generate,
            merit_curves,
        )

        res = generate(CurveSpec(kind="piecewise_signing", radius=0.25,
                                 duration=1.0, rest_duration=0.5, n_segments=3,
                                 noise_sigma=0.001, fps=60.0), seed=20)
        traj = res.trajectory
        selected = extract_keyframes(traj, count=3)

        smoothed = gaussian_smooth(traj, 2.0)
        intervals = detect_intervals(smoothed, default_speed_threshold(smoothed))
        for frame in selected.frames:
            home = [itv for itv in intervals if itv.contains(frame)]
            assert len(home) == 1
            curve, = merit_curves(smoothed, home, MeritMethod.MT)
            k = frame - home[0].start
            assert curve.values[k] > curve.values[k - 1]
            assert curve.values[k] > curve.values[k + 1]
