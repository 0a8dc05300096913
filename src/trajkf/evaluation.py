"""Scoring predicted keyframes against ground truth.

Keyframe matching is converted to a per-frame binary problem: every frame
within ``delta`` frames of a keyframe is labeled positive, and recall,
precision, and the recall-weighted F2 score are counted over all frames
(from window lengths, with no per-frame arrays).  A complexity metric
compares per-sign keyframe counts against the annotators' counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import accumulate, repeat
from operator import sub

from .formats import MAX_N_FRAMES, SigningInterval, budget_for_ratio, float9, json_pieces


class EvaluationReport(namedtuple("EvaluationReport", "recall precision f2 delta r_c c_s "
                                   "per_sign degenerate", defaults=(None, None, None, False))):
    """Scores for one (prediction, truth) pair at one (delta, r_c) setting.

    Floats ``recall``, ``precision`` and ``f2``, int ``delta``; ``r_c`` and ``c_s``
    floats or None, ``per_sign`` a tuple of dicts or None; ``degenerate`` is True
    when a zero denominator forced some rate to 0.
    """

    __slots__ = ()


def _checked(frames, n_frames: int) -> list[int]:
    """``frames`` as sorted ints, if each lies in [0, n_frames); else a ValueError
    naming the first that does not.  A float or bool in range passes as its int."""
    frames = list(frames)
    if not (set(map(type, frames)) <= {int}
            and 0 <= min(frames, default=0) and max(frames, default=0) < n_frames):
        for k in frames:
            if not 0 <= k < n_frames:
                raise ValueError(f"keyframe {k} out of range [0, {n_frames})")
        frames = list(map(int, frames))
    frames.sort()
    return frames


def _check_setting(delta: int, n_frames: int) -> None:
    """Raise unless ``delta`` is a whole number >= 0 and 0 < ``n_frames`` <= MAX_N_FRAMES."""
    if not (delta >= 0 and delta % 1 == 0):   # inf % 1 and NaN % 1 are NaN
        raise ValueError(f"delta must be a whole number >= 0, got {delta}")
    if not 0 < n_frames <= MAX_N_FRAMES:
        raise ValueError(f"n_frames must be positive and at most 2**62, got {n_frames}")


def _windows(frames: list[int]) -> tuple | None:
    """What ``_covered`` needs of sorted ``frames`` for every delta: the first and
    last frame, the gaps between neighbours in ascending order and their running sums."""
    if not frames:
        return None
    gaps = sorted(map(sub, frames[1:], frames))
    return frames[0], frames[-1], gaps, [0, *accumulate(gaps)]


def _covered(windows: tuple | None, delta: int, n_frames: int) -> int:
    """How many frames of [0, n_frames) lie within ``delta`` of one of the frames.

    The windows share one width, so each adds its gap to the one before, at
    most the width (a repeat adds none): a shorter gap adds itself, a longer
    one the width.  The first window's part below 0 and the last one's part
    past the video are cut off.
    """
    if windows is None:
        return 0
    first, last, gaps, sums = windows
    width = 2 * delta + 1
    short = bisect_left(gaps, width)
    return (width + sums[short] + width * (len(gaps) - short)
            - max(delta - first, 0) - max(last + delta + 1 - n_frames, 0))


def _scored(pred: tuple | None, truth: tuple | None, both: tuple | None, delta: int,
            n_frames: int) -> EvaluationReport:
    """``score`` from the ``_windows`` of the predicted, the true and both frames."""
    width = min(delta, n_frames - 1)   # no wider window covers more frames
    pred_pos, truth_pos = (_covered(f, width, n_frames) for f in (pred, truth))
    tp = pred_pos + truth_pos - _covered(both, width, n_frames)

    recall = tp / truth_pos if truth_pos > 0 else 0.0     # positives: tp + fn
    precision = tp / pred_pos if pred_pos > 0 else 0.0    # positives: tp + fp
    f2_den = 4 * precision + recall
    f2 = 5 * precision * recall / f2_den if f2_den > 0 else 0.0
    degenerate = truth_pos == 0 or pred_pos == 0 or f2_den == 0
    return EvaluationReport(recall, precision, f2, int(delta), degenerate=degenerate)


def _frames_of(pred) -> Sequence[int]:
    """The frames of a KeyframeSet (or anything with ``frames``); else ``pred`` itself."""
    return getattr(pred, "frames", pred)


def score(pred, truth: Sequence[int], delta: int, n_frames: int) -> EvaluationReport:
    """Per-frame recall / precision / F2 of predictions against ground truth.

    ``pred`` may be a KeyframeSet or a plain sequence of frame indices.
    Zero-denominator rates come back as 0 with the report's degenerate flag
    set.
    """
    _check_setting(delta, n_frames)
    pred, truth = _checked(_frames_of(pred), n_frames), _checked(truth, n_frames)
    return _scored(*map(_windows, (pred, truth, sorted(pred + truth))), delta, n_frames)


def complexity_metric(per_sign_counts: Sequence[tuple[int, int]]) -> float:
    """Mean relative count error sum(|1 - l_x/l_s|) / N over signs."""
    if not per_sign_counts:
        raise ValueError("per_sign_counts must be non-empty")
    total = 0.0
    for l_x, l_s in per_sign_counts:
        if l_s < 1:
            raise ValueError(f"annotated keyframe count must be >= 1, got {l_s}")
        total += abs(1.0 - l_x / l_s)
    return total / len(per_sign_counts)


def _counts_in(frames: list[int], starts: Sequence[int], ends: Sequence[int]) -> list[int]:
    """How many of the sorted ``frames`` (repeats included) lie in each [start, end] span."""
    return list(map(sub, map(bisect_right, repeat(frames), ends),
                    map(bisect_left, repeat(frames), starts)))


def per_gloss_picker(ranked: Sequence[int], starts: Sequence[int],
                     ends: Sequence[int]) -> Callable:
    """Per-gloss picks over frames listed best first, for many intervals at once.

    ``pick(counts)`` returns the sorted distinct frames of
    ``[f for f in ranked if start <= f <= end][:count]`` over every interval
    ``[start, end]`` and its count in ``counts`` (non-negative; a count of at
    least ``len(ranked)`` takes all).  A merge-sort tree over ranks in frame
    order holds, for each aligned block of 2**k positions, its ranks sorted;
    each interval splits into at most two blocks per level, and each block
    offers its first ``count`` ranks.  The tree and the blocks are built once,
    in O((K + I) log K) for K ranked frames and I intervals; a pick costs
    O(sum of min(count, h) log K), h being the frames an interval holds.
    """
    ranked = list(map(int, ranked))
    order = sorted(range(len(ranked)), key=ranked.__getitem__)   # ranks in frame order
    by_frame = list(map(ranked.__getitem__, order))
    tree, size = [order], 1   # tree[k]: each aligned block of 2**k positions sorted
    while size < len(order):
        size, below, level = 2 * size, tree[-1], []
        for first in range(0, len(order), size):   # two sorted halves: a linear merge
            level += sorted(below[first:first + size])
        tree.append(level)

    # [lo, hi) in frame order, split into aligned blocks bottom up
    blocks = []   # per interval: (level list, first position, end position) of each block
    for start, end in zip(starts, ends):
        lo, hi, k, mine = bisect_left(by_frame, start), bisect_right(by_frame, end), 0, []
        while lo < hi:
            if lo & 1:
                mine.append((tree[k], lo << k, (lo + 1) << k))
                lo += 1
            if hi & 1:
                hi -= 1
                mine.append((tree[k], hi << k, (hi + 1) << k))
            lo, hi, k = lo >> 1, hi >> 1, k + 1
        blocks.append(mine)

    def pick(counts: Sequence[int]) -> list[int]:
        chosen: list[int] = []
        for mine, count in zip(blocks, counts):
            if count > 0:
                ranks = []
                for level, first, stop in mine:   # each block's first ``count`` ranks
                    ranks += level[first:stop if stop - first < count else first + count]
                ranks.sort()   # an interval's blocks hold distinct ranks: keep its best
                chosen += ranks[:count]
        return sorted(set(map(ranked.__getitem__, chosen)))

    return pick


def sweep(
    pred: Callable | Sequence[int],
    truth_keyframes: Sequence[int],
    n_frames: int,
    r_c_values: Sequence[float],
    delta_values: Sequence[int],
    intervals: Sequence[SigningInterval] | None = None,
    per_gloss: bool = False,
) -> list[EvaluationReport]:
    """Evaluate over a grid of keyframe-count ratios and proximity thresholds.

    ``pred`` takes one of two forms.  A callable ``pred(count)`` returns the
    predicted frames (KeyframeSet or sequence) for a given budget; with
    ``per_gloss`` it is called as ``pred(count, interval)`` once per annotated
    interval that holds ground truth, and the union of the selections is
    scored.  Otherwise ``pred`` is the predicted frames themselves, best
    first: a budget takes the first ``count`` of them, and with ``per_gloss``
    each interval takes the first ``count`` of those inside it, all intervals
    of a ratio in one ``per_gloss_picker`` pass.  Both forms give the same
    reports for ``pred(count, interval) = [f for f in ranked if
    interval.start <= f <= interval.end][:count]``.  When intervals are given, per-sign
    counts and the complexity metric are attached to each report.  Every delta, ratio
    (>= 0, with a finite budget over the truth count), ``n_frames`` and the truth frames
    are checked before anything is scored, and each ratio's predicted frames once.
    """
    if per_gloss and not intervals:
        raise ValueError("per-gloss budgets need annotated intervals")
    for delta in delta_values:
        _check_setting(delta, n_frames)
    truth = _checked(truth_keyframes, n_frames)
    for r_c in r_c_values:   # every budget, global or per interval, is then a finite count
        if not (r_c >= 0 and r_c * len(truth) < math.inf):
            raise ValueError(f"r_c must be >= 0 with a finite budget, got {r_c}")
    truth_windows = _windows(truth)
    if intervals:
        spans = [itv.start for itv in intervals], [itv.end for itv in intervals]
        truth_counts = _counts_in(truth, *spans)
    if per_gloss and not callable(pred):
        pick = per_gloss_picker(pred, *spans)
    reports: list[EvaluationReport] = []
    for r_c in r_c_values:
        if not per_gloss:
            budget = budget_for_ratio(r_c, len(truth))
            frames = _frames_of(pred(budget)) if callable(pred) else pred[:budget]
        elif callable(pred):   # kept for perfbench/workloads.py
            frames: list[int] = []
            for itv, l_s in zip(intervals, truth_counts):
                if l_s == 0:
                    continue
                frames.extend(_frames_of(pred(budget_for_ratio(r_c, l_s), itv)))
            frames = sorted(set(frames))
        else:
            frames = pick([budget_for_ratio(r_c, l_s) for l_s in truth_counts])
        frames = _checked(frames, n_frames)
        windows = _windows(frames), truth_windows, _windows(sorted(frames + truth))

        per_sign = None
        c_s = None
        if intervals:
            rows = [
                {"start": itv.start, "end": itv.end, "l_x": l_x, "l_s": l_s}
                for itv, l_x, l_s in zip(intervals, _counts_in(frames, *spans), truth_counts)
            ]
            per_sign = tuple(rows)
            counted = [(r["l_x"], r["l_s"]) for r in rows if r["l_s"] >= 1]
            if counted:
                c_s = complexity_metric(counted)

        for delta in delta_values:
            reports.append(_scored(*windows, delta, n_frames)._replace(
                r_c=float(r_c), c_s=c_s, per_sign=per_sign))
    return reports


def reports_to_json(reports: Sequence[EvaluationReport]) -> str:
    """The reports' JSON text as one str, the join of ``report_pieces(reports)``."""
    return "".join(report_pieces(reports))


def report_pieces(reports: Sequence[EvaluationReport]) -> list[str]:
    """The reports as ``json.dumps(rows, indent=2)`` lays them out, plus a newline, in pieces
    for ``write_text``.  Each row: r_c, delta, recall, precision, f2, c_s (floats at 9
    significant digits, null when unset) and degenerate, then per_sign when set."""
    rows = []
    for r in reports:
        row = {"r_c": None if r.r_c is None else float9(r.r_c), "delta": r.delta,
               "recall": float9(r.recall), "precision": float9(r.precision), "f2": float9(r.f2),
               "c_s": None if r.c_s is None else float9(r.c_s), "degenerate": r.degenerate}
        if r.per_sign is not None:
            row["per_sign"] = r.per_sign   # sweep shares one tuple across a ratio's deltas
        rows.append(row)
    return [*json_pieces(rows), "\n"]


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    """The reports as CSV rows under the header r_c,delta,recall,precision,f2,c_s, one
    % template per row: floats at 9 significant digits, an unset r_c or c_s left empty."""
    lines = ["r_c,delta,recall,precision,f2,c_s\n"]
    for r in reports:
        r_c = "" if r.r_c is None else format(r.r_c, ".9g")
        c_s = "" if r.c_s is None else format(r.c_s, ".9g")
        lines.append("%s,%s,%.9g,%.9g,%.9g,%s\n" % (r_c, r.delta, r.recall, r.precision, r.f2, c_s))
    return "".join(lines)
