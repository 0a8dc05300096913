"""Tests for interval detection, peak finding, and keyframe selection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajkf import (
    CurveSpec,
    DescriptorCurve,
    KeyframeSet,
    MeritMethod,
    Peak,
    SigningInterval,
    TimedTrajectory,
    detect_intervals,
    differentiate,
    extract_keyframes,
    find_peaks,
    generate,
    merit_curves,
    select_keyframes,
    speed,
)
from trajkf.formats import rank_order
from oracles import (
    brute_intervals,
    brute_peaks,
    brute_rank_order,
    brute_select,
    extract_every_copy,
    random_rotation,
)


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

    @pytest.mark.parametrize("steps", [[], [1.0]], ids=["one_sample", "two_samples"])
    def test_fewer_than_three_samples_give_nothing(self, steps):
        # too short for a speed; a low threshold would otherwise take every sample
        assert detect_intervals(traj_from_steps(steps), speed_threshold=1e-9, min_len=1) == []

    def test_two_sample_clip_extracts_nothing(self):
        got = extract_keyframes(traj_from_steps([1.0]), count=3, speed_threshold=0.1)
        assert got == KeyframeSet((), (), MeritMethod.MT, shortfall=True)

    def test_nonpositive_parameters_rejected(self):
        traj = traj_from_steps(np.ones(30))
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=0.0)
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=1.0, min_gap=0)
        with pytest.raises(ValueError):
            detect_intervals(traj, speed_threshold=1.0, min_len=0)


@st.composite
def speed_profiles(draw):
    """``min_gap``, ``min_len`` and alternating fast (True) and slow runs, drawn at
    the lengths where merging and dropping flip; one run makes an all-slow or
    all-fast profile."""
    min_gap, min_len = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    edges = sorted({1, min_gap - 1, min_gap, min_len - 1, min_len} - {0})
    length = st.sampled_from(edges) | st.integers(1, 15)
    fast, profile = draw(st.booleans()), []
    for _ in range(draw(st.integers(1, 8))):
        profile += [fast] * draw(length)
        fast = not fast
    return min_gap, min_len, profile


class TestDetectIntervalsAgainstOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=speed_profiles(), data=st.data())
    def test_given_speed(self, case, data):
        # fast samples at or above the threshold of 1, slow ones below it or NaN
        min_gap, min_len, profile = case
        v = np.array([data.draw(st.sampled_from([1.0, 2.0] if fast else [0.0, 0.5, np.nan]))
                      for fast in profile])
        traj = TimedTrajectory(np.zeros((len(v), 2)), 60.0)
        assert detect_intervals(traj, 1.0, min_gap, min_len, v) == \
            brute_intervals(v, 1.0, min_gap, min_len)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=speed_profiles(), fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    def test_computed_speed(self, case, fraction):
        # unit steps where the profile is fast: central differences give full,
        # half or no speed
        min_gap, min_len, profile = case
        traj = traj_from_steps(np.array(profile, dtype=float))
        v = speed(differentiate(traj, 1)) if traj.n_samples >= 3 else []   # too short
        threshold = fraction * 60.0
        assert detect_intervals(traj, threshold, min_gap, min_len) == \
            brute_intervals(v, threshold, min_gap, min_len)


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
        assert find_peaks(np.array([5.0, 1.0, 4.0])) == []

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

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(values=st.one_of(
        st.lists(st.integers(-3, 3).map(float), max_size=40),   # plateaus and ties
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), max_size=40),
        st.lists(st.floats(-1e6, 1e6), max_size=40),
    ))
    @example(values=[])
    @example(values=[1.0])
    @example(values=[0.0, 1.0])
    @example(values=[0.0, 1.0, 0.0])
    @example(values=[2.0] * 7)
    @example(values=[3.0, 3.0, 1.0, 2.0, 0.0])
    @example(values=[0.0, 2.0, 1.0, 3.0, 3.0])
    @example(values=[-1.0, -0.0, -1.0, 0.0, -1.0])
    def test_matches_brute_force_exactly(self, values):
        got = [(p.frame, p.value, p.prominence) for p in find_peaks(np.array(values))]
        # repr also tells -0.0 from 0.0 and a numpy scalar from a Python one
        assert repr(got) == repr(brute_peaks(values))
        assert all(type(f) is int and type(v) is float for f, v, _ in got)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(-1e3, 1e3), max_size=60, unique=True))
    def test_matches_scipy_on_plateau_free_curves(self, values):
        from scipy.signal import find_peaks as scipy_find_peaks, peak_prominences

        x = np.array(values)
        peaks = find_peaks(x)
        idx = np.array([p.frame for p in peaks], dtype=np.intp)
        assert idx.tolist() == scipy_find_peaks(x)[0].tolist()
        assert [p.prominence for p in peaks] == peak_prominences(x, idx)[0].tolist()

    def test_rising_sawtooth_closed_form(self):
        # odd samples k, even samples k/2: each peak's left gap runs back to
        # sample 0, which costs a per-peak walk O(n) apiece; the saddle is the
        # next valley, so peak p has prominence p - (p + 1)/2
        n = 200_000
        k = np.arange(n, dtype=float)
        values = np.where(k % 2 == 1, k, k / 2)
        peaks = find_peaks(values)
        frames = np.arange(3, n - 2, 2)
        assert [p.frame for p in peaks] == frames.tolist()
        assert [p.prominence for p in peaks] == ((frames - 1) / 2).tolist()

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


def segmented(segments):
    """One curve holding the given value lists as its segments."""
    lengths = [len(seg) for seg in segments]
    values = np.array([v for seg in segments for v in seg], dtype=float)
    return DescriptorCurve(values, np.ones(values.size, dtype=bool),
                           offsets=np.cumsum([0, *lengths[:-1]]))


def per_segment_peaks(segments):
    """brute_peaks of each segment alone, its frames shifted to the whole curve."""
    out, offset = [], 0
    for seg in segments:
        out += [(offset + f, v, p) for f, v, p in brute_peaks(seg)]
        offset += len(seg)
    return out


class TestSegmentedPeaks:
    """find_peaks on a segmented curve against brute_peaks on each segment alone."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(segments=st.lists(st.one_of(
        st.lists(st.integers(0, 3).map(float), min_size=1, max_size=12),  # plateaus and ties
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
        st.lists(st.just(1.0), min_size=1, max_size=3),   # equal values across boundaries
    ), min_size=1, max_size=8))
    @example(segments=[[1.0], [2.0], [1.0]])                      # length 1
    @example(segments=[[0.0, 1.0], [1.0, 0.0], [5.0, 0.0]])        # length 2
    @example(segments=[[0.0, 2.0, 2.0], [2.0, 2.0, 0.0]])          # plateaus at a boundary
    @example(segments=[[0.0, 1.0, 3.0], [3.0, 1.0, 0.0]])          # a peak only if joined
    @example(segments=[[0.0, 5.0, 0.0, 9.0], [0.0, 1.0, 0.0]])     # higher peak next door
    @example(segments=[[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [4.0] * 5])  # no peaks at all
    def test_matches_brute_force_per_segment(self, segments):
        got = [(p.frame, p.value, p.prominence) for p in find_peaks(segmented(segments))]
        assert repr(got) == repr(per_segment_peaks(segments))

    def test_one_segment_is_a_bare_array(self):
        values = np.random.default_rng(3).integers(0, 5, size=200).astype(float)
        assert find_peaks(segmented([values.tolist()])) == find_peaks(values)

    @pytest.mark.parametrize("offsets", [[1], [0, 0], [0, 5, 3], [0, 10], [[0]]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            DescriptorCurve(np.zeros(10), np.ones(10, dtype=bool), offsets=offsets)


class TestSelectKeyframes:
    def _peaks(self, *pairs):
        """Candidate frames and prominences."""
        return [f for f, _ in pairs], [v for _, v in pairs]

    def test_strongest_first(self):
        ks = select_keyframes(*self._peaks((10, 4.0), (30, 2.0)), count=1)
        assert ks.frames == (10,)
        assert not ks.shortfall

    def test_shortfall_flag(self):
        ks = select_keyframes(*self._peaks((10, 4.0), (30, 2.0)), count=5)
        assert ks.frames == (10, 30)
        assert ks.shortfall

    def test_tie_breaks_to_earlier_frame(self):
        ks = select_keyframes(*self._peaks((20, 3.0), (8, 3.0)), count=1)
        assert ks.frames == (8,)

    def test_repeated_frame_is_one_candidate_at_its_best(self):
        peaks = self._peaks((30, 1.0), (10, 2.0), (30, 5.0))
        assert select_keyframes(*peaks, count=1).frames == (30,)
        ks = select_keyframes(*peaks, count=3)   # two distinct frames fall short of three
        assert ks.frames == (10, 30) and ks.scores == (2.0, 5.0) and ks.shortfall

    def test_no_candidates_is_a_shortfall(self):
        ks = select_keyframes([], [], count=2, method=MeritMethod.MT)
        assert ks.frames == () and ks.scores == () and ks.shortfall

    def test_monotone_in_count(self):
        rng = np.random.default_rng(15)
        pairs = [(int(f), float(v)) for f, v in
                 zip(rng.choice(100, size=12, replace=False), rng.uniform(0, 5, 12))]
        previous: set[int] = set()
        for count in range(1, 14):
            frames = set(select_keyframes(*self._peaks(*pairs), count).frames)
            assert previous <= frames
            previous = frames

    def test_scores_follow_sorted_frames(self):
        ks = select_keyframes(*self._peaks((30, 2.0), (10, 4.0)), count=2)
        assert ks.frames == (10, 30)
        assert ks.scores == (4.0, 2.0)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            select_keyframes(*self._peaks((1, 1.0)), count=0)

    def test_deterministic(self):
        peaks = self._peaks((10, 4.0), (30, 2.0), (44, 2.0))
        a = select_keyframes(*peaks, 2, method=MeritMethod.MT)
        b = select_keyframes(*peaks, 2, method=MeritMethod.MT)
        assert a == b

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    @example(data=None)   # no candidates
    def test_equals_brute_select(self, data):
        # few frames and prominences, so ties and repeats are common; 0.0 against -0.0, frames
        # near 2**63, and counts beyond the distinct frames
        frames, prominences, count = [], [], 3
        if data is not None:
            frame = st.integers(0, 6) | st.sampled_from([2**63 - 2, 2**63 - 1])
            prominence = st.sampled_from([0.0, -0.0, 1.0, 5e-324, float("inf")]) \
                | st.floats(allow_nan=False) | st.integers(0, 3).map(float)
            frames = data.draw(st.lists(frame, max_size=30))
            prominences = data.draw(st.lists(prominence, min_size=len(frames),
                                             max_size=len(frames)))
            count = data.draw(st.integers(1, len(set(frames)) + 3))
        got = select_keyframes(frames, prominences, count, method=MeritMethod.MT)
        want = brute_select(frames, prominences, count, method=MeritMethod.MT)
        assert got == want and all(type(f) is int for f in got.frames)
        # the same prominence of each frame, the sign of a zero too
        assert np.array(got.scores).tobytes() == np.array(want.scores).tobytes()


class TestRankOrder:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    @example(data=None)   # empty input
    def test_equals_lexsort(self, data):
        frames, scores = [], []
        if data is not None:
            # few frames and scores, so ties and repeats are common; 0.0 against -0.0
            frame = st.integers(0, 6) | st.sampled_from([2**62 - 1, 2**63 - 1])
            score = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, float("inf")]) \
                | st.floats(allow_nan=False) | st.integers(-3, 3)
            frames = data.draw(st.lists(frame, max_size=30))
            scores = data.draw(st.lists(score, min_size=len(frames), max_size=len(frames)))
        got = rank_order(frames, scores)
        assert got == brute_rank_order(frames, scores)
        assert all(type(i) is int for i in got)

    def test_zero_ties_negative_zero(self):
        assert rank_order([5, 3, 4], [0.0, -0.0, 0.0]) == [1, 2, 0]
        assert rank_order([4, 4, 2], [-0.0, 0.0, 1.0]) == [2, 0, 1]


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
            home = [itv for itv in intervals if itv.start <= frame <= itv.end]
            assert len(home) == 1
            curve, = merit_curves(smoothed, home, MeritMethod.MT)
            k = frame - home[0].start
            assert curve.values[k] > curve.values[k - 1]
            assert curve.values[k] > curve.values[k + 1]

    @pytest.mark.parametrize("count", [1, 5, 10**6])
    def test_peaks_map_to_frames_through_supplied_intervals(self, count):
        from trajkf import (
            CurveSpec,
            default_speed_threshold,
            extract_keyframes,
            gaussian_smooth,
            generate,
            merit_curves,
        )

        traj = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                  rest_duration=0.5, n_segments=3, noise_sigma=0.001,
                                  fps=60.0), seed=4).trajectory
        last = traj.n_samples - 1
        # overlapping, unsorted and repeated, as annotation intervals may be
        intervals = [SigningInterval(60, 140), SigningInterval(10, 90),
                     SigningInterval(60, 140), SigningInterval(100, last)]
        got = extract_keyframes(traj, count=count, intervals=intervals)

        smoothed = gaussian_smooth(traj, 2.0)
        curves = merit_curves(smoothed, intervals, MeritMethod.MT,
                              speed_threshold=default_speed_threshold(smoothed))
        best: dict[int, float] = {}   # each frame once, at its best prominence
        for itv, curve in zip(intervals, curves):
            for p in find_peaks(curve):
                frame = itv.start + p.frame
                best[frame] = max(p.prominence, best.get(frame, -np.inf))
        pooled = sorted(best.items(), key=lambda fp: (-fp[1], fp[0]))
        assert len(pooled) > 5
        assert list(zip(got.frames, got.scores)) == sorted(pooled[:count])
        assert got.shortfall == (len(pooled) < count)


# the three-sign clip whose doubled or overlapping annotation once repeated keyframes
SEED4_CLIP = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                rest_duration=0.5, n_segments=3, noise_sigma=0.001, fps=60.0),
                      seed=4)
_first, *_rest = SEED4_CLIP.intervals
OVERLAPPING = [_first, SigningInterval(_first.start, _first.end - 1), *_rest]


@st.composite
def clip_and_repeated_intervals(draw):
    """A random walk with rests, 2-D or 3-D, and 1-4 supplied intervals, each
    listed 1-4 times, perhaps with one nested in the first, in any order."""
    n = draw(st.integers(20, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.normal(size=(n, 3)) * (rng.random((n, 1)) < 0.8)
    steps[:, 2] *= draw(st.sampled_from([0.0, 0.05, 1.0]))
    points = np.cumsum(steps, axis=0) @ random_rotation(rng).T
    points = points[:, : draw(st.sampled_from([2, 3]))]
    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, n - 1))
        distinct.append(SigningInterval(start, draw(st.integers(start, min(n - 1, start + 150)))))
    if draw(st.booleans()):
        first, cut = distinct[0], distinct[0].length // 4
        distinct.append(SigningInterval(first.start + cut, first.end - cut))
    intervals = [itv for itv in distinct for _ in range(draw(st.integers(1, 4)))]
    return TimedTrajectory(points, 60.0), draw(st.permutations(intervals))


class TestRepeatedIntervals:
    """A supplied interval listed k times is scored once, and a frame where
    several intervals peak is one candidate at its best prominence: the result
    of scoring every copy and pooling by frame, in a fraction of the memory."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=clip_and_repeated_intervals(), count=st.sampled_from([1, 5, 1000]))
    @example(case=(SEED4_CLIP.trajectory, OVERLAPPING), count=6)
    def test_same_keyframes_as_scoring_every_copy(self, case, count):
        traj, intervals = case
        for method in (MeritMethod.MT, MeritMethod.K2DT, MeritMethod.KAPPA3DS):
            if method is MeritMethod.KAPPA3DS and traj.dim == 2:
                continue
            got = want = None
            try:
                got = extract_keyframes(traj, method, count, intervals=intervals)
            except ValueError as exc:
                got = str(exc)
            try:
                want = extract_every_copy(traj, intervals, method, count)
            except ValueError as exc:
                want = str(exc)
            assert got == want

    @pytest.mark.parametrize("intervals", [[*SEED4_CLIP.intervals] * 2, OVERLAPPING],
                             ids=["repeated", "overlapping"])
    def test_frames_are_distinct(self, intervals):
        got = extract_keyframes(SEED4_CLIP.trajectory, count=6, intervals=intervals)
        assert got.frames == (38, 61, 150, 173, 219, 240) and not got.shortfall

    def test_two_hundred_copies_cost_at_most_twice_one(self):
        # one 5430-sample interval over 60 signs, two keyframes a sign
        traj = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                  rest_duration=0.5, n_segments=60, noise_sigma=0.001,
                                  fps=60.0), seed=7).trajectory
        whole = SigningInterval(0, traj.n_samples - 1)
        peaks, results = [], []
        for copies in (1, 200):
            tracemalloc.start()
            try:
                results.append(extract_keyframes(traj, count=120, intervals=[whole] * copies))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]
        assert results[1] == results[0] and len(results[0].frames) == 120


MIXED_CLIPS = [generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                  rest_duration=0.5, n_segments=4, noise_sigma=0.005,
                                  segment_kinds=("arc", "arc", "helix", "arc")), seed=seed)
               for seed in range(6)]


ARGUMENT_CASES = [
    *[({"method": m.value}, None) for m in MeritMethod],
    ({"method": "k4dt"}, "'k4dt' is not a valid MeritMethod"),
    ({"speed_threshold": -1.0}, "speed_threshold must be >= 0, got -1.0"),
    ({"speed_threshold": float("nan")}, "speed_threshold must be >= 0, got nan"),
    ({"sigma": float("nan")}, "sigma must be >= 0, got nan"),
    ({"f_error": float("nan")}, "f_error must be >= 0, got nan"),
    ({"f_error": -0.1}, "f_error must be >= 0, got -0.1"),
    ({"count": 2.5}, "count must be a whole number >= 1, got 2.5"),
]


@pytest.mark.parametrize("options, error", ARGUMENT_CASES,
                         ids=[" ".join(f"{k}={v}" for k, v in o.items()) for o, _ in ARGUMENT_CASES])
def test_library_resolves_and_checks_its_arguments(options, error):
    # a method tag computes as its member, in extract_keyframes and merit_curves alike;
    # any other bad argument raises ValueError naming it instead of a wrong or empty result
    if error is not None:
        with pytest.raises(ValueError) as exc:
            extract_keyframes(SEED4_CLIP.trajectory, **{"count": 3, **options})
        assert str(exc.value) == error
        return
    tag = options["method"]
    for clip in MIXED_CLIPS:
        traj, intervals = clip.trajectory, clip.intervals
        got = extract_keyframes(traj, tag, count=8)
        assert got == extract_keyframes(traj, MeritMethod(tag), count=8)
        assert got.method is MeritMethod(tag)
        assert [c.branch for c in merit_curves(traj, intervals, tag)] == \
            [c.branch for c in merit_curves(traj, intervals, MeritMethod(tag))]


class TestMotionProfile:
    """extract_keyframes computes the smoothed trajectory's speed once, for the threshold
    and the detection, not at all when both are supplied or the threshold is 0, and no
    derivative over the whole clip."""

    @pytest.fixture(scope="class")
    def clip(self):
        from trajkf import CurveSpec, generate

        return generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                                  rest_duration=0.5, n_segments=3, noise_sigma=0.001,
                                  fps=60.0), seed=20)

    CASES = ["mt_detected", "mt_supplied", "two_dim", "k3ds", "k2dt", "user_threshold",
             "both_supplied"]

    @staticmethod
    def extract(clip, case):
        from trajkf import extract_keyframes

        traj, options = clip.trajectory, {}
        if case in ("mt_supplied", "both_supplied"):
            options["intervals"] = list(clip.intervals)
        elif case == "two_dim":
            traj = TimedTrajectory(traj.points[:, :2], traj.frame_rate)
        elif case in ("k3ds", "k2dt"):
            options["method"] = MeritMethod(case)
        if case in ("user_threshold", "both_supplied"):
            options["speed_threshold"] = 0.05
        elif case == "zero_threshold":   # detection off and no intervals: nothing to score
            options["speed_threshold"] = 0.0
        return extract_keyframes(traj, count=5, **options)

    @pytest.mark.parametrize("case", [*CASES, "zero_threshold"])
    def test_no_whole_clip_derivative(self, monkeypatch, clip, case):
        import trajkf.merit
        import trajkf.pipeline
        import trajkf.selection
        import trajkf.trajectory

        block = 32   # below the clip's 300 samples and its intervals' lengths
        monkeypatch.setattr(trajkf.merit, "_BATCH_ROWS", block)
        differentiated, covered, stages = [], [], {}
        for module in (trajkf.pipeline, trajkf.selection, trajkf.merit):   # as perfbench wraps
            monkeypatch.setattr(module, "differentiate", lambda *args, _f=module.differentiate:
                                differentiated.append(args) or _f(*args))
        for module in (trajkf.merit, trajkf.trajectory):   # wherever derivative is read
            def counting(traj, order, rows=None, _derivative=module.derivative):
                covered.append(traj.n_samples if rows is None else len(rows))
                return _derivative(traj, order, rows)

            monkeypatch.setattr(module, "derivative", counting)
        for name in ("speed_profile", "default_speed_threshold", "detect_intervals",
                     "merit_batches"):
            def recording(*args, _name=name, _fn=getattr(trajkf.pipeline, name)):
                stages.setdefault(_name, []).append((args, _fn(*args)))
                return stages[_name][-1][1]

            monkeypatch.setattr(trajkf.pipeline, name, recording)
        keys = self.extract(clip, case)
        if case == "zero_threshold":
            assert keys.frames == () and keys.shortfall
        else:
            assert len(keys.frames) == 5
        assert differentiated == []
        [(merit_args, _)] = stages.pop("merit_batches")
        assert max(covered, default=0) <= max([block, *(itv.length for itv in merit_args[1])])
        # the threshold and the detection take one speed profile as their last argument;
        # with both supplied, or a threshold of 0 and no intervals, nothing reads it, and it
        # is never computed
        profile_stages = {"speed_profile", "default_speed_threshold", "detect_intervals"}
        skipped = {"user_threshold": {"default_speed_threshold"},
                   "mt_supplied": {"detect_intervals"},
                   "both_supplied": profile_stages,
                   "zero_threshold": profile_stages}.get(case, set())
        assert sorted(stages) == sorted(profile_stages - skipped)
        if "speed_profile" in stages:
            [(_, v)] = stages.pop("speed_profile")
            assert all(args[-1] is v for calls in stages.values() for args, _ in calls)

    def test_both_supplied_reads_only_the_intervals(self):
        # no speed over the whole clip: samples past the intervals' reach may overflow
        from trajkf import CurveSpec, SigningInterval, extract_keyframes, generate

        clip = generate(CurveSpec(kind="helix", radius=1.0, pitch=0.3, phase="burst",
                                  n_bursts=10, duration=10.0, fps=60.0), seed=0)
        points = clip.trajectory.points.copy()
        points[400:] *= 1e200
        keys = [extract_keyframes(TimedTrajectory(p, 60.0), count=3, speed_threshold=0.05,
                                  intervals=[SigningInterval(10, 200)])
                for p in (clip.trajectory.points, points)]
        assert keys[0].frames == (30, 90, 150) and keys[1] == keys[0]

    @pytest.mark.parametrize("case", CASES)
    def test_one_segment_layout(self, monkeypatch, clip, case):
        # merit lays the intervals out once; the plane fit and the pipeline read that layout
        import trajkf.merit
        import trajkf.pipeline

        calls = []
        layout = trajkf.merit.segment_layout

        def counting(intervals):
            calls.append(len(intervals))
            return layout(intervals)

        for module in (trajkf.pipeline, trajkf.merit):   # wherever it is read
            if getattr(module, "segment_layout", None) is layout:
                monkeypatch.setattr(module, "segment_layout", counting)
        keys = self.extract(clip, case)
        assert calls == [len(clip.intervals)] and len(keys.frames) == 5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_threshold_is_a_twentieth_of_numpy_percentile(self, data):
        from trajkf import default_speed_threshold, differentiate, speed

        n, dim = data.draw(st.integers(3, 3000)), data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        style = data.draw(st.sampled_from(["ties", "walk", "mostly_rest"]))
        if style == "ties":   # few distinct speeds
            pts = rng.integers(-2, 3, (n, dim)).astype(float)
        elif style == "walk":
            pts = np.cumsum(rng.normal(size=(n, dim)), axis=0)
        else:
            pts = np.cumsum(rng.normal(size=(n, dim)) * (rng.random((n, 1)) < 0.03), axis=0)
        traj = TimedTrajectory(pts, data.draw(st.sampled_from([1.0, 29.97, 60.0])))
        want = 0.05 * float(np.percentile(speed(differentiate(traj, 1)), 95))
        assert default_speed_threshold(traj).hex() == want.hex()
