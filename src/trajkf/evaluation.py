"""Scoring predicted keyframes against ground truth.

Keyframe matching is converted to a per-frame binary problem: every frame
within ``delta`` frames of a keyframe is labeled positive, and recall,
precision, and the recall-weighted F2 score are counted over all frames
(from window lengths, with no per-frame arrays).  A complexity metric
compares per-sign keyframe counts against the annotators' counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .trajectory import MAX_N_FRAMES, SigningInterval, float9, json_text


@dataclass(frozen=True)
class EvaluationReport:
    """Scores for one (prediction, truth) pair at one (delta, r_c) setting."""

    recall: float
    precision: float
    f2: float
    delta: int
    r_c: float | None = None
    c_s: float | None = None
    per_sign: tuple[dict, ...] | None = None
    degenerate: bool = False   # a zero denominator forced some rate to 0


def _covered(frames: np.ndarray, delta: int, n_frames: int) -> int:
    """How many frames of [0, n_frames) lie within ``delta`` of one of ``frames``.

    The windows share one width, so over sorted frames both clipped ends
    ascend and each window adds the frames past the previous window's end
    (a repeat adds none).
    """
    frames = np.sort(frames)
    lo = np.maximum(frames - delta, 0)
    hi = np.minimum(frames + (delta + 1), n_frames)
    return int(np.sum(hi - np.maximum(lo, np.concatenate([lo[:1], hi[:-1]]))))


def _frames_of(pred) -> Sequence[int]:
    """The frames of a KeyframeSet (or anything with ``frames``); else ``pred`` itself."""
    return getattr(pred, "frames", pred)


def score(pred, truth: Sequence[int], delta: int, n_frames: int) -> EvaluationReport:
    """Per-frame recall / precision / F2 of predictions against ground truth.

    ``pred`` may be a KeyframeSet or a plain sequence of frame indices.
    Zero-denominator rates come back as 0 with the report's degenerate flag
    set.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not 0 < n_frames <= MAX_N_FRAMES:
        raise ValueError(f"n_frames must be positive and at most 2**62, got {n_frames}")
    pred = _frames_of(pred)
    frames = np.array([*pred, *truth])   # 1-D int64 when every frame is an int that fits
    if not (frames.dtype == np.int64 and frames.ndim == 1
            and 0 <= frames.min(initial=0) <= frames.max(initial=0) < n_frames):
        for k in [*pred, *truth]:   # names the first bad frame; a float or bool in range passes
            if not 0 <= k < n_frames:
                raise ValueError(f"keyframe {k} out of range [0, {n_frames})")
        frames = np.asarray([*pred, *truth], dtype=np.int64)
    # no wider window covers more frames; this one keeps every end below 2**63
    width = min(delta, n_frames - 1)
    pred_pos, truth_pos = (_covered(f, width, n_frames) for f in np.split(frames, [len(pred)]))
    tp = pred_pos + truth_pos - _covered(frames, width, n_frames)

    recall = tp / truth_pos if truth_pos > 0 else 0.0     # positives: tp + fn
    precision = tp / pred_pos if pred_pos > 0 else 0.0    # positives: tp + fp
    f2_den = 4 * precision + recall
    f2 = 5 * precision * recall / f2_den if f2_den > 0 else 0.0
    degenerate = truth_pos == 0 or pred_pos == 0 or f2_den == 0
    return EvaluationReport(recall, precision, f2, int(delta), degenerate=degenerate)


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


def budget_for_ratio(r_c: float, total_truth: int) -> int:
    """Keyframe budget at ratio r_c: round half away from zero."""
    return int(r_c * total_truth + 0.5)


def _counts_in(frames: Sequence[int], starts: np.ndarray, ends: np.ndarray) -> list[int]:
    """How many of ``frames`` (repeats included) lie in each [start, end] span."""
    ordered = np.sort(np.asarray(frames))
    hi = np.searchsorted(ordered, ends, side="right")
    return (hi - np.searchsorted(ordered, starts, side="left")).tolist()


def per_gloss_picker(ranked: Sequence[int], starts: np.ndarray, ends: np.ndarray) -> Callable:
    """Per-gloss picks over frames listed best first, for many intervals at once.

    ``pick(counts)`` returns the sorted distinct frames of
    ``[f for f in ranked if start <= f <= end][:count]`` over every interval
    ``[start, end]`` and its count in ``counts`` (non-negative; a count of at
    least ``len(ranked)`` takes all).  A merge-sort tree over ranks in frame
    order holds, for each aligned block of 2**k positions, its ranks sorted;
    each interval splits into at most two blocks per level, and each block
    offers its first ``count`` ranks.  The tree and the blocks are built once,
    in O((K + I) log K) for K ranked frames and I intervals; a pick costs
    O(sum of min(count, h) log K), h being the frames an interval holds, with
    no Python loop over intervals or frames.
    """
    ranked = np.asarray(ranked, dtype=np.int64)
    order = np.argsort(ranked, kind="stable")   # ranks in frame order
    by_frame = ranked[order]
    levels = max(len(ranked) - 1, 0).bit_length()
    size = 1 << levels
    tree = np.full((levels + 1, size), len(ranked))   # padding ranks past every frame
    tree[0, :len(ranked)] = order
    for level in range(1, levels + 1):   # two sorted halves per block below
        tree[level] = np.sort(tree[level - 1].reshape(-1, 1 << level), axis=1).ravel()
    tree = tree.ravel()

    # [lo, hi) in frame order, split into aligned blocks bottom up
    lo = np.searchsorted(by_frame, starts, side="left")
    hi = np.searchsorted(by_frame, ends, side="right")
    first, width, owner = [], [], []
    for level in range(levels + 1):
        left, right = (lo < hi) & (lo % 2 == 1), (lo < hi) & (hi % 2 == 1)
        for block, mask in ((lo, left), (hi - 1, right)):
            owner.append(np.flatnonzero(mask))
            first.append(level * size + (block[mask] << level))
            width.append(np.full(len(owner[-1]), 1 << level))
        lo, hi = (lo + left) >> 1, (hi - right) >> 1
    first, width, owner = map(np.concatenate, (first, width, owner))

    def pick(counts: np.ndarray) -> list[int]:
        take = np.minimum(counts[owner], width)
        stop = np.cumsum(take)
        at = np.arange(stop[-1] if stop.size else 0) + np.repeat(first - stop + take, take)
        ranks, held_by = tree[at], np.repeat(owner, take)
        by_owner = np.lexsort((ranks, held_by))
        ranks, held_by = ranks[by_owner], held_by[by_owner]
        # an interval's blocks hold distinct ranks: keep its ``count`` smallest
        nth = np.arange(len(ranks)) - np.searchsorted(held_by, held_by)
        frames = np.sort(ranked[ranks[nth < counts[held_by]]])
        distinct = np.ones(len(frames), dtype=bool)
        distinct[1:] = frames[1:] != frames[:-1]
        return frames[distinct].tolist()

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
    counts and the complexity metric are attached to each report.
    """
    if per_gloss and not intervals:
        raise ValueError("per-gloss budgets need annotated intervals")
    truth = list(truth_keyframes)
    if intervals:
        spans = (np.array([itv.start for itv in intervals]),
                 np.array([itv.end for itv in intervals]))
        truth_counts = _counts_in(truth, *spans)
    if per_gloss and not callable(pred):
        pick = per_gloss_picker(pred, *spans)
        sign_truth = np.array(truth_counts, dtype=float)
    reports: list[EvaluationReport] = []
    for r_c in r_c_values:
        if not per_gloss:
            budget = budget_for_ratio(r_c, len(truth))
            frames = sorted(_frames_of(pred(budget)) if callable(pred) else pred[:budget])
        elif callable(pred):   # kept for perfbench/workloads.py
            frames: list[int] = []
            for itv, l_s in zip(intervals, truth_counts):
                if l_s == 0:
                    continue
                frames.extend(_frames_of(pred(budget_for_ratio(r_c, l_s), itv)))
            frames = sorted(set(frames))
        else:
            # budget_for_ratio per interval; a budget past len(pred) takes all of an
            # interval, so clipping there first keeps the int64 cast in range
            frames = pick(np.minimum(r_c * sign_truth + 0.5, len(pred)).astype(np.int64))

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
            reports.append(replace(score(frames, truth, delta, n_frames),
                                   r_c=float(r_c), c_s=c_s, per_sign=per_sign))
    return reports


def reports_to_json(reports: Sequence[EvaluationReport]) -> str:
    """The reports as JSON rows, laid out as ``json.dumps(rows, indent=2)`` writes them, plus
    a newline.  Each row holds r_c, delta, recall, precision, f2, c_s (floats at 9
    significant digits, null when unset) and degenerate, then per_sign when set."""
    rows = []
    for r in reports:
        row = {"r_c": None if r.r_c is None else float9(r.r_c), "delta": r.delta,
               "recall": float9(r.recall), "precision": float9(r.precision), "f2": float9(r.f2),
               "c_s": None if r.c_s is None else float9(r.c_s), "degenerate": r.degenerate}
        if r.per_sign is not None:
            row["per_sign"] = r.per_sign   # sweep shares one tuple across a ratio's deltas
        rows.append(row)
    return json_text(rows) + "\n"


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    """The reports as CSV rows under the header r_c,delta,recall,precision,f2,c_s, one
    % template per row: floats at 9 significant digits, an unset r_c or c_s left empty."""
    lines = ["r_c,delta,recall,precision,f2,c_s\n"]
    for r in reports:
        r_c = "" if r.r_c is None else format(r.r_c, ".9g")
        c_s = "" if r.c_s is None else format(r.c_s, ".9g")
        lines.append("%s,%s,%.9g,%.9g,%.9g,%s\n" % (r_c, r.delta, r.recall, r.precision, r.f2, c_s))
    return "".join(lines)
