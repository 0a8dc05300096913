"""Tests for proximity scoring, the complexity metric, and sweeps."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajkf import (
    EvaluationReport,
    KeyframeSet,
    SigningInterval,
    budget_for_ratio,
    complexity_metric,
    reports_to_csv,
    reports_to_json,
    score,
    sweep,
)
from trajkf.evaluation import per_gloss_picker
from oracles import ODD_FLOATS, brute_reports_csv, brute_reports_json, brute_score, brute_sweep


def covered_share(frames, delta, n):
    """Share of the n frames within ``delta`` of ``frames``: the recall
    against a truth keyframe on every frame."""
    return score(frames, range(n), delta, n).recall


class TestProximityWindows:
    def test_window_around_single_keyframe(self):
        assert covered_share([10], 5, 30) == 11 / 30
        # pred window [5, 15], truth window [10, 20]: TP=6, FP=5, FN=5
        report = score([10], [15], delta=5, n_frames=30)
        assert (report.recall, report.precision) == (6 / 11, 6 / 11)

    def test_delta_zero_marks_only_keyframes(self):
        assert covered_share([3, 7], 0, 10) == 2 / 10
        report = score([3, 7], [3, 8], delta=0, n_frames=10)
        assert (report.recall, report.precision) == (0.5, 0.5)

    def test_overlapping_windows_union(self):
        assert covered_share([3, 6], 2, 10) == 8 / 10     # frames 1..8
        assert covered_share([6, 3, 6], 2, 10) == 8 / 10  # repeats and order do not matter

    def test_window_clipped_at_boundaries(self):
        assert covered_share([1], 5, 10) == 7 / 10   # frames 0..6
        assert covered_share([8], 5, 10) == 7 / 10   # frames 3..9
        assert covered_share([0], 10**30, 10) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="keyframe 30 out of range"):
            score([30], [1], delta=5, n_frames=30)
        with pytest.raises(ValueError, match="keyframe -1 out of range"):
            score([1], [-1], delta=5, n_frames=30)
        # the first bad frame in input order, pred before truth, and no OverflowError
        with pytest.raises(ValueError, match=f"keyframe {10**30} out of range"):
            score([3, 10**30, -1], [-2], delta=5, n_frames=30)
        # frames that miss the int64 array's range check meet the loop all the same
        for bad in (2**62, 2**63, 2**64, -2**63 - 1, float("nan"), float("inf"), -0.5, 30.5):
            for pred, truth in (([3, bad, 40], [4]), ([3], [4, bad, -1])):
                with pytest.raises(ValueError, match=rf"keyframe {re.escape(str(bad))} out"):
                    score(pred, truth, delta=5, n_frames=30)

    def test_in_range_floats_and_bools_scored_as_ints(self):
        assert score([3.5], [6.0], 1, 30) == score([3], [6], 1, 30)   # windows of 3, not 3.5
        assert score([True, 2.0], [2], 1, 30) == score([1, 2], [2], 1, 30)

    def test_nested_frames_rejected(self):
        with pytest.raises(TypeError):   # as ``0 <= [1]`` raises
            score([[1], [2]], [[3]], 1, 30)

    @pytest.mark.parametrize("n_frames", [0, -3, 2**62 + 1])
    def test_video_length_outside_1_to_2_62_rejected(self, n_frames):
        want = rf"n_frames must be positive and at most 2\*\*62, got {n_frames}"
        with pytest.raises(ValueError, match=want):
            score([1], [1], delta=5, n_frames=n_frames)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            score([1], [1], delta=-1, n_frames=10)

    def test_memory_does_not_grow_with_video_length(self):
        score([0], [5], 3, 10)   # numpy imports some modules on first use
        tracemalloc.start()
        try:
            score([0], [5], 3, 2 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


@st.composite
def score_cases(draw):
    """Unsorted frames with repeats, touching 0 and n - 1; delta up to past n."""
    n = draw(st.integers(1, 60))
    frame = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    pred = draw(st.lists(frame, max_size=10))
    truth = draw(st.lists(frame, max_size=10))
    delta = draw(st.just(0) | st.integers(0, 2 * n + 2))
    return pred, truth, delta, n


class TestScore:
    def test_perfect_prediction(self):
        report = score([4, 11], [4, 11], delta=5, n_frames=30)
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.f2 == 1.0

    def test_empty_prediction(self):
        report = score([], [10], delta=5, n_frames=30)
        assert report.recall == 0.0
        assert report.f2 == 0.0
        assert report.degenerate

    def test_hand_counted_overlap(self):
        # pred window [5,15], truth window [7,17]: TP=9, FP=2, FN=2
        report = score([10], [12], delta=5, n_frames=30)
        assert report.recall == pytest.approx(9 / 11)
        assert report.precision == pytest.approx(9 / 11)
        assert report.f2 == pytest.approx(9 / 11)

    def test_accepts_keyframe_set(self):
        ks = KeyframeSet(frames=(10,), scores=(1.0,))
        report = score(ks, [12], delta=5, n_frames=30)
        assert report.recall == pytest.approx(9 / 11)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(case=score_cases())
    @example(case=([], [], 0, 1))
    @example(case=([], [3], 2, 10))
    @example(case=([0, 9, 0], [9], 0, 10))
    @example(case=([4], [0, 9], 10, 10))
    def test_counts_equal_brute_force_labels(self, case):
        pred, truth, delta, n = case
        report = score(pred, truth, delta, n)
        assert (report.recall, report.precision, report.f2) == brute_score(pred, truth, delta, n)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(10, 200))
            pred = sorted(rng.choice(n, size=rng.integers(0, 6), replace=False).tolist())
            truth = sorted(rng.choice(n, size=rng.integers(0, 6), replace=False).tolist())
            delta = int(rng.integers(0, 8))
            report = score(pred, truth, delta, n)
            recall, precision, f2 = brute_score(pred, truth, delta, n)
            assert report.recall == recall
            assert report.precision == precision
            assert report.f2 == f2

    def test_recall_monotone_in_delta_for_separated_keyframes(self):
        # with keyframes spaced more than 2*(2*delta_max+1) apart and away
        # from the boundaries, growing windows never merge or clip and recall
        # is provably non-decreasing in delta
        rng = np.random.default_rng(22)
        deltas = (0, 2, 5, 9, 15)
        for _ in range(50):
            n = 2000
            slots = np.arange(40, n - 40, 80)
            pred = sorted(rng.choice(slots, size=4, replace=False).tolist())
            truth = sorted(rng.choice(slots, size=4, replace=False).tolist())
            recalls = [score(pred, truth, d, n).recall for d in deltas]
            assert recalls == sorted(recalls)

    def test_recall_can_drop_with_delta_when_truth_windows_cluster(self):
        # known limitation of per-frame windowed labeling: an uncovered truth
        # cluster adds misses faster than a covered cluster adds hits, so
        # recall is not globally monotone in delta
        pred, truth, n = [84, 87, 94], [40, 83, 86, 93], 120
        assert score(pred, truth, 5, n).recall > score(pred, truth, 6, n).recall


class TestComplexityMetric:
    def test_exact_match_is_zero(self):
        assert complexity_metric([(2, 2), (5, 5)]) == 0.0

    def test_single_sign(self):
        assert complexity_metric([(3, 2)]) == pytest.approx(0.5)

    def test_two_signs(self):
        assert complexity_metric([(2, 2), (1, 4)]) == pytest.approx(0.375)

    def test_no_signs_rejected(self):
        with pytest.raises(ValueError, match="per_sign_counts must be non-empty"):
            complexity_metric([])

    def test_zero_annotated_count_rejected(self):
        with pytest.raises(ValueError):
            complexity_metric([(1, 0)])

    def test_zero_iff_all_match(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            counts = [(int(a), int(a)) for a in rng.integers(1, 10, size=5)]
            assert complexity_metric(counts) == 0.0
            bumped = counts[:2] + [(counts[2][0] + 1, counts[2][1])] + counts[3:]
            assert complexity_metric(bumped) > 0.0


class TestBudget:
    def test_round_half_away_from_zero(self):
        assert budget_for_ratio(0.5, 6) == 3
        assert budget_for_ratio(0.5, 5) == 3   # 2.5 rounds up, not to even
        assert budget_for_ratio(1.0, 4) == 4
        assert budget_for_ratio(2.0, 4) == 8


class TestSweep:
    def test_perfect_prediction_grid_point(self):
        truth = [10, 20, 30]
        reports = sweep(lambda k: truth[:k], truth, 60, r_c_values=[1.0], delta_values=[5])
        assert len(reports) == 1
        assert reports[0].recall == 1.0
        assert reports[0].r_c == 1.0

    def test_budget_passed_to_closure(self):
        seen = []

        def pred_fn(count):
            seen.append(count)
            return []

        truth = [1, 2, 3, 4, 5, 6]  # two glosses of 2 and 4 keyframes
        sweep(pred_fn, truth, 100, r_c_values=[0.5], delta_values=[5])
        assert seen == [3]

    def test_recall_monotone_in_delta_grid(self):
        rng = np.random.default_rng(24)
        truth = sorted(rng.choice(200, size=6, replace=False).tolist())
        pred = sorted(rng.choice(200, size=6, replace=False).tolist())
        reports = sweep(lambda k: pred[:k], truth, 200,
                        r_c_values=[1.0], delta_values=[0, 5, 10])
        recalls = [r.recall for r in sorted(reports, key=lambda r: r.delta)]
        assert recalls == sorted(recalls)

    def test_recall_monotone_in_r_c_for_nested_selections(self):
        rng = np.random.default_rng(25)
        truth = sorted(rng.choice(300, size=8, replace=False).tolist())
        ranked = rng.permutation(300)[:40].tolist()
        reports = sweep(lambda k: ranked[:k], truth, 300,
                        r_c_values=[0.5, 1.0, 2.0], delta_values=[5])
        by_rc = {r.r_c: r.recall for r in reports}
        assert by_rc[0.5] <= by_rc[1.0] <= by_rc[2.0]

    def test_per_sign_counts_and_complexity(self):
        intervals = [SigningInterval(0, 49), SigningInterval(50, 99)]
        truth = [10, 20, 70]
        reports = sweep(lambda k: [10, 20, 70][:k], truth, 100,
                        r_c_values=[1.0], delta_values=[5], intervals=intervals)
        report = reports[0]
        assert report.c_s == 0.0
        assert report.per_sign[0]["l_s"] == 2
        assert report.per_sign[1]["l_s"] == 1

    def test_per_gloss_budgets(self):
        intervals = [SigningInterval(0, 49), SigningInterval(50, 99)]
        truth = [10, 20, 70]
        calls = []

        def pred_fn(count, interval):
            calls.append((count, interval.start))
            return [f for f in truth if interval.start <= f <= interval.end][:count]

        reports = sweep(pred_fn, truth, 100, r_c_values=[1.0], delta_values=[5],
                        intervals=intervals, per_gloss=True)
        assert calls == [(2, 0), (1, 50)]
        assert reports[0].recall == 1.0

    def test_per_gloss_requires_intervals(self):
        with pytest.raises(ValueError):
            sweep(lambda k, itv: [], [1], 10, [1.0], [5], per_gloss=True)


@st.composite
def sweep_cases(draw):
    """Intervals that overlap, nest, touch frame 0 or hold no truth; unsorted truth
    with repeats; ranked predictions with repeats and frames outside every interval."""
    n = draw(st.integers(1, 80))
    frame = st.integers(0, n - 1)
    intervals = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.just(0) | frame)
        intervals.append(SigningInterval(start, draw(st.integers(start, n - 1))))
    truth = draw(st.lists(frame, max_size=20))
    ranked = draw(st.lists(frame, max_size=30))
    # 0.01 gives a budget of 0 for every count here
    r_cs = draw(st.lists(st.sampled_from([0.01, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0]),
                         min_size=1, max_size=3))
    deltas = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    return n, intervals, truth, ranked, r_cs, deltas


class TestSweepAgainstBruteForce:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=sweep_cases(), per_gloss=st.booleans())
    def test_reports_equal(self, case, per_gloss):
        n, intervals, truth, ranked, r_cs, deltas = case
        if per_gloss:
            def pred_fn(count, interval):
                return [f for f in ranked if interval.start <= f <= interval.end][:count]
        else:
            def pred_fn(count):
                return ranked[:count]

        args = (pred_fn, truth, n, r_cs, deltas, intervals, per_gloss)
        got = sweep(*args)
        assert got == brute_sweep(*args)
        assert all(type(v) is int for r in got for row in r.per_sign for v in row.values())
        assert reports_to_json(got) == brute_reports_json(got)
        assert reports_to_csv(got) == brute_reports_csv(got)
        if not per_gloss:
            plain = sweep(pred_fn, truth, n, r_cs, deltas)
            assert reports_to_json(plain) == brute_reports_json(plain)
            assert reports_to_csv(plain) == brute_reports_csv(plain)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=sweep_cases(), per_gloss=st.booleans())
    def test_ranked_frames_equal_comprehension(self, case, per_gloss):
        # the ranked frames themselves, in place of the callable over them
        n, intervals, truth, ranked, r_cs, deltas = case
        if per_gloss:
            def pred_fn(count, interval):
                return [f for f in ranked if interval.start <= f <= interval.end][:count]
        else:
            def pred_fn(count):
                return ranked[:count]

        got = sweep(ranked, truth, n, r_cs, deltas, intervals, per_gloss)
        assert got == brute_sweep(pred_fn, truth, n, r_cs, deltas, intervals, per_gloss)
        assert reports_to_json(got) == brute_reports_json(got)


def union_of_picks(ranked, intervals, counts):
    """The reference per-gloss union: each interval's first ``count`` ranked frames."""
    picked = set()
    for interval, count in zip(intervals, counts):
        picked.update([f for f in ranked if interval.start <= f <= interval.end][:count])
    return sorted(picked)


def batched_pick(ranked, intervals, counts):
    pick = per_gloss_picker(ranked, np.array([itv.start for itv in intervals]),
                            np.array([itv.end for itv in intervals]))
    return pick(np.array(counts, dtype=np.int64))


class TestRankedPicker:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(frames=st.lists(st.integers(0, 40), max_size=30), data=st.data())
    def test_matches_list_comprehension(self, frames, data):
        # tied scores from a three-value set; ranked as the CLI ranks, or left unsorted
        scores = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                    min_size=len(frames), max_size=len(frames)))
        ranked = frames
        if data.draw(st.booleans()):
            order = sorted(zip(frames, scores), key=lambda fs: (-fs[1], fs[0]))
            ranked = [f for f, _ in order]
        intervals, counts = [], []
        for _ in range(4):
            start = data.draw(st.integers(0, 45))
            intervals.append(SigningInterval(start, data.draw(st.integers(start, 50))))
            counts.append(data.draw(st.integers(0, len(ranked) + 1)))
            got = batched_pick(ranked, intervals[-1:], counts[-1:])
            assert got == union_of_picks(ranked, intervals[-1:], counts[-1:])
            assert all(type(f) is int for f in got)
        # the four at once: nested, overlapping or repeated intervals share frames
        assert batched_pick(ranked, intervals, counts) == union_of_picks(ranked, intervals, counts)

    def test_nested_intervals(self):
        # each interval holds the next, over a ranking with every frame twice
        ranked = np.random.default_rng(8).permutation(np.repeat(np.arange(200), 2)).tolist()
        intervals = [SigningInterval(start, 199 - start) for start in range(0, 100, 7)]
        for count in (0, 1, 5, 400):
            for interval in intervals:
                assert batched_pick(ranked, [interval], [count]) == \
                    union_of_picks(ranked, [interval], [count])
            counts = [count] * len(intervals)
            assert batched_pick(ranked, intervals, counts) == \
                union_of_picks(ranked, intervals, counts)

    def test_nested_intervals_cost_grows_near_linearly(self):
        # m intervals [i, 2m - 1 - i], each nested in the last, over m frames
        # drawn from 2m: a per-interval pick would pay for every frame it holds
        def best_time(m):
            ranked = np.random.default_rng(m).choice(2 * m, size=m, replace=False).tolist()
            starts = np.arange(m)
            counts = np.full(m, 3)
            best = np.inf
            for _ in range(3):
                begin = time.perf_counter()
                per_gloss_picker(ranked, starts, 2 * m - 1 - starts)(counts)
                best = min(best, time.perf_counter() - begin)
            return best

        assert best_time(16000) < 8 * best_time(4000)   # quadratic would be 16x


@st.composite
def report_lists(draw):
    """Reports whose optional fields are unset or set, some sharing one per_sign tuple."""
    real = st.sampled_from(ODD_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
    count = st.integers(0, 2**62)
    row = st.tuples(count, count, count, count).map(
        lambda v: dict(zip(("start", "end", "l_x", "l_s"), v)))
    pool = draw(st.lists(st.none() | st.just(()) | st.lists(row, max_size=6).map(tuple),
                         min_size=1, max_size=3))
    reports = []
    for _ in range(draw(st.integers(0, 6))):
        reports.append(EvaluationReport(
            recall=draw(real), precision=draw(real), f2=draw(real),
            delta=draw(st.integers(0, 2**62)),
            r_c=draw(st.none() | real), c_s=draw(st.none() | real),
            per_sign=draw(st.sampled_from(pool)), degenerate=draw(st.booleans()),
        ))
    return reports


class TestReportsToJson:
    def test_empty_report_list(self):
        assert reports_to_json([]) == brute_reports_json([]) == "[]\n"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(reports=report_lists())
    @example(reports=[EvaluationReport(0.5, 0.5, 0.5, 5, per_sign=())])
    @example(reports=[EvaluationReport(-0.0, 5e-324, float("nan"), 0, r_c=float("inf"),
                                       c_s=float("-inf"), degenerate=True)])
    def test_equals_indent_encoder(self, reports):
        assert reports_to_json(reports) == brute_reports_json(reports)

    def test_bool_and_string_values_spelled_as_json_does(self):
        rows = ({"start": True, "end": False, "l_x": None, "l_s": 'a, "b"\n%s'},
                {"start": 1.5, "end": -0.0, "l_x": 2**62, "l_s": -3})
        reports = [EvaluationReport(1.0, 1.0, 1.0, 0, per_sign=rows)]
        assert reports_to_json(reports) == brute_reports_json(reports)

    @pytest.mark.parametrize("row", [
        {"end": 9, "start": 0, "l_x": 1, "l_s": 1},
        {"start": 0, "end": 9, "l_x": 1},
        {"start": 0, "end": 9, "l_x": 1, "l_s": 1, "gloss": 1},
        {"start": 0, "end": 9, "l_x": [1], "l_s": 1},
        {"start": 0, "end": 9, "l_x": 1, "l_s": {"n": 1}},
    ])
    def test_rows_other_than_sweeps_equal_indent_encoder(self, row):
        good = {"start": 0, "end": 9, "l_x": 1, "l_s": 1}
        reports = [EvaluationReport(1.0, 1.0, 1.0, 0, per_sign=(good, row))]
        assert reports_to_json(reports) == brute_reports_json(reports)

    def test_memory_stays_within_five_times_the_output(self):
        # 1500 signs of 90 frames, 3 ratios by 3 deltas: the signing clip's sweep
        rng = np.random.default_rng(31)
        starts = 30 + 90 * np.arange(1500)
        intervals = [SigningInterval(s, s + 59) for s in starts.tolist()]
        truth = np.sort(starts + rng.integers(0, 60, (2, 1500)), axis=None).tolist()
        ranked = rng.permutation(135030)[:6000].tolist()
        reports = sweep(lambda count: ranked[:count], truth, 135030,
                        [0.5, 1.0, 2.0], [0, 5, 10], intervals=intervals)
        text = reports_to_json(reports)   # the encoders import and build their state
        assert text == brute_reports_json(reports)
        tracemalloc.start()
        try:
            reports_to_json(reports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)


class TestReportsToCsv:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(reports=report_lists())
    @example(reports=[EvaluationReport(0.5, 0.25, 0.125, 5, c_s=0.75),
                      EvaluationReport(1.0, 1.0, 1.0, 0, r_c=2.0)])
    @example(reports=[EvaluationReport(0.5, 0.25, 0.125, 5.5),
                      EvaluationReport(1.0, 1.0, 1.0, True, r_c=2.0)])
    def test_equals_csv_writer(self, reports):
        assert reports_to_csv(reports) == brute_reports_csv(reports)

    def test_every_odd_float(self):
        reports = [EvaluationReport(x, x, x, 10, r_c=x, c_s=x) for x in ODD_FLOATS]
        assert reports_to_csv(reports) == brute_reports_csv(reports)
