"""Scoring predicted keyframes against ground truth.

Keyframe matching is converted to a per-frame binary problem: every frame
within ``delta`` frames of a keyframe is labeled positive, and recall,
precision, and the recall-weighted F2 score are counted over all frames.
A complexity metric compares per-sign keyframe counts against the
annotators' counts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .selection import KeyframeSet
from .trajectory import SigningInterval, _float9


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


def proximity_labels(keyframes: Sequence[int], delta: int, n_frames: int) -> np.ndarray:
    """Per-frame boolean labels: true within ``delta`` frames of a keyframe."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if n_frames <= 0:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    labels = np.zeros(n_frames, dtype=bool)
    for k in keyframes:
        if not 0 <= k < n_frames:
            raise ValueError(f"keyframe {k} out of range [0, {n_frames})")
        labels[max(0, k - delta) : min(n_frames, k + delta + 1)] = True
    return labels


def _frames_of(pred) -> Sequence[int]:
    return pred.frames if isinstance(pred, KeyframeSet) else pred


def score(pred, truth: Sequence[int], delta: int, n_frames: int) -> EvaluationReport:
    """Per-frame recall / precision / F2 of predictions against ground truth.

    ``pred`` may be a KeyframeSet or a plain sequence of frame indices.
    Zero-denominator rates come back as 0 with the report's degenerate flag
    set.
    """
    pred_labels = proximity_labels(_frames_of(pred), delta, n_frames)
    truth_labels = proximity_labels(truth, delta, n_frames)
    tp = int(np.sum(pred_labels & truth_labels))
    fp = int(np.sum(pred_labels & ~truth_labels))
    fn = int(np.sum(~pred_labels & truth_labels))

    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    f2_den = 4 * precision + recall
    f2 = 5 * precision * recall / f2_den if f2_den > 0 else 0.0
    degenerate = tp + fn == 0 or tp + fp == 0 or f2_den == 0
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


def sweep(
    pred_fn: Callable,
    truth_keyframes: Sequence[int],
    n_frames: int,
    r_c_values: Sequence[float],
    delta_values: Sequence[int],
    intervals: Sequence[SigningInterval] | None = None,
    per_gloss: bool = False,
) -> list[EvaluationReport]:
    """Evaluate over a grid of keyframe-count ratios and proximity thresholds.

    ``pred_fn(count)`` must return the predicted frames (KeyframeSet or
    sequence) for a given budget; with ``per_gloss`` it is called as
    ``pred_fn(count, interval)`` once per annotated interval and the union of
    the selections is scored.  When intervals are given, per-sign counts and
    the complexity metric are attached to each report.
    """
    if per_gloss and not intervals:
        raise ValueError("per-gloss budgets need annotated intervals")
    truth = list(truth_keyframes)
    reports: list[EvaluationReport] = []
    for r_c in r_c_values:
        if per_gloss:
            frames: list[int] = []
            for itv in intervals:
                l_s = sum(1 for k in truth if itv.contains(k))
                if l_s == 0:
                    continue
                frames.extend(_frames_of(pred_fn(budget_for_ratio(r_c, l_s), itv)))
            frames = sorted(set(frames))
        else:
            frames = sorted(_frames_of(pred_fn(budget_for_ratio(r_c, len(truth)))))

        per_sign = None
        c_s = None
        if intervals:
            rows = []
            for itv in intervals:
                l_s = sum(1 for k in truth if itv.contains(k))
                l_x = sum(1 for f in frames if itv.contains(f))
                rows.append({"start": itv.start, "end": itv.end, "l_x": l_x, "l_s": l_s})
            per_sign = tuple(rows)
            counted = [(r["l_x"], r["l_s"]) for r in rows if r["l_s"] >= 1]
            if counted:
                c_s = complexity_metric(counted)

        for delta in delta_values:
            base = score(frames, truth, delta, n_frames)
            reports.append(
                EvaluationReport(
                    base.recall, base.precision, base.f2, base.delta,
                    r_c=float(r_c), c_s=c_s, per_sign=per_sign,
                    degenerate=base.degenerate,
                )
            )
    return reports


def reports_to_json(reports: Sequence[EvaluationReport]) -> str:
    rows = []
    for r in reports:
        row: dict = {
            "r_c": _float9(r.r_c) if r.r_c is not None else None,
            "delta": r.delta,
            "recall": _float9(r.recall),
            "precision": _float9(r.precision),
            "f2": _float9(r.f2),
            "c_s": _float9(r.c_s) if r.c_s is not None else None,
            "degenerate": r.degenerate,
        }
        if r.per_sign is not None:
            row["per_sign"] = list(r.per_sign)
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["r_c", "delta", "recall", "precision", "f2", "c_s"])
    for r in reports:
        writer.writerow([
            format(r.r_c, ".9g") if r.r_c is not None else "",
            r.delta,
            format(r.recall, ".9g"),
            format(r.precision, ".9g"),
            format(r.f2, ".9g"),
            format(r.c_s, ".9g") if r.c_s is not None else "",
        ])
    return out.getvalue()
