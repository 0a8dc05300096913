"""Seeded benchmark inputs and the in-process mirror of the trajkf CLI.

Each workload writes a trajectory file and a truth (annotation) file, and
knows the `trajkf extract` / `trajkf evaluate` arguments to run on them.
`extract_inprocess` and `evaluate_inprocess` make the same public library
calls the CLI makes, so their output bytes are the reference the CLI's
output is checked against, and the traced run times them layer by layer.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trajkf.evaluation import reports_to_csv, reports_to_json, sweep
from trajkf.pipeline import extract_keyframes
from trajkf.selection import keyframes_from_json, keyframes_to_json
from trajkf.synthetic import CurveSpec, generate
from trajkf.trajectory import (
    Annotations,
    SigningInterval,
    TimedTrajectory,
    load_annotations,
    load_trajectory,
    save_annotations,
    save_trajectory,
)

FPS = 60.0
R_CS = (0.5, 1.0, 2.0)
DELTAS = (0, 5, 10)
EVAL_GRID = ["--r-c", ",".join(f"{r:g}" for r in R_CS),
             "--delta", ",".join(str(d) for d in DELTAS)]

SIGNING_SEGMENTS = 1500      # 30 + 1500 * 90 = 135,030 samples
ZIGZAG_SAMPLES = 12000       # one vertex every 10 frames: about 1200 merit peaks
ZIGZAG_PERIOD = 10
ZIGZAG_KEYFRAMES = 50


@dataclass(frozen=True)
class Workload:
    """Default size, and the smallest a --size override may ask for."""

    default_size: int
    min_size: int
    size_meaning: str


# Why each workload exists: see README.md next to this file.
WORKLOADS = {
    "signing_csv": Workload(SIGNING_SEGMENTS, 1, "signing segments"),
    "signing_json_pergloss": Workload(SIGNING_SEGMENTS, 1, "signing segments"),
    "zigzag_peaks": Workload(ZIGZAG_SAMPLES, 600, "zigzag samples"),
}


@dataclass(frozen=True)
class Inputs:
    """Files of one workload instance and how the CLI is invoked on them."""

    workload: str
    traj: Path
    fmt: str
    truth: Path
    count: int | None          # extract --count, or
    r_c: float | None          # extract --r-c (needs --annotations)
    supply_intervals: bool     # extract --annotations <truth>
    per_gloss: bool            # evaluate --per-gloss

    def extract_argv(self, out: Path) -> list[str]:
        argv = ["extract", str(self.traj)]
        if self.supply_intervals:
            argv += ["--annotations", str(self.truth)]
        argv += ["--count", str(self.count)] if self.count is not None \
            else ["--r-c", str(self.r_c)]
        return argv + ["-o", str(out)]

    def evaluate_argv(self, pred: Path, out_json: Path, out_csv: Path) -> list[str]:
        argv = ["evaluate", "--pred", str(pred), "--truth", str(self.truth), *EVAL_GRID]
        if self.per_gloss:
            argv.append("--per-gloss")
        return argv + ["-o", str(out_json), "--csv", str(out_csv)]


def signing_clip(seed: int, segments: int):
    """The 3-D piecewise_signing clip of `trajkf synth` with the benchmark's shape."""
    spec = CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                     rest_duration=0.5, n_segments=segments, noise_sigma=0.001, fps=FPS)
    return generate(spec, seed=seed)


def zigzag_points(seed: int, n: int) -> tuple[np.ndarray, list[int]]:
    """Constant-speed x drift with a triangle-wave y whose amplitude rises.

    Every vertex (each multiple of ZIGZAG_PERIOD) is a merit peak, and each
    peak is higher than every peak before it, so the prominence walk to the
    left runs to the start of the curve for each of them.  The seed only
    translates the curve.  Returns the points and the vertex frames.
    """
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1.0, 1.0, 2)
    vertex_frames = np.arange(0, n + ZIGZAG_PERIOD, ZIGZAG_PERIOD)
    amplitude = 0.002 + 0.05 * vertex_frames / (n - 1)
    vertex_y = np.where((vertex_frames // ZIGZAG_PERIOD) % 2 == 0, 0.5, -0.5) * amplitude
    frames = np.arange(n)
    points = np.column_stack([0.6 * frames / FPS, np.interp(frames, vertex_frames, vertex_y)])
    return points + offset, [int(f) for f in vertex_frames if 0 < f < n - 1]


def make_inputs(workload: str, seed: int, size: int | None, work: Path) -> Inputs:
    """Write the workload's input files under ``work``; same seed, same bytes."""
    spec = WORKLOADS[workload]
    size = spec.default_size if size is None else size
    if size < spec.min_size:
        raise ValueError(f"{workload}: size must be at least {spec.min_size} {spec.size_meaning}")
    truth = work / "truth.json"
    if workload == "zigzag_peaks":
        points, vertices = zigzag_points(seed, size)
        traj = TimedTrajectory(points, FPS, 0)
        ann = Annotations((SigningInterval(0, size - 1),),
                          tuple(vertices[-ZIGZAG_KEYFRAMES:]), size)
        fmt, count, r_c, supply, per_gloss = "csv", ZIGZAG_KEYFRAMES, None, False, False
    else:
        clip = signing_clip(seed, size)
        traj = clip.trajectory
        ann = Annotations(clip.intervals, clip.keyframes, traj.n_samples)
        if workload == "signing_csv":
            fmt, count, r_c, supply, per_gloss = "csv", 2 * size, None, False, False
        else:
            fmt, count, r_c, supply, per_gloss = "json", None, 2.0, True, True
    path = work / f"clip.{fmt}"
    save_trajectory(traj, path, fmt)
    save_annotations(ann, truth, extra={"fps": FPS})
    return Inputs(workload, path, fmt, truth, count, r_c, supply, per_gloss)


def no_span(name):
    """The span factory of an untraced run."""
    return nullcontext()


def extract_inprocess(inp: Inputs, span=no_span) -> str:
    """`trajkf extract` as library calls; returns the keyframe JSON text."""
    with span("trajectory.load"):
        traj = load_trajectory(inp.traj, inp.fmt, FPS)
    intervals = truth = None
    if inp.supply_intervals:
        with span("trajectory.load_annotations"):
            truth = load_annotations(inp.truth)
        intervals = [SigningInterval(i.start - traj.start_frame, i.end - traj.start_frame)
                     for i in truth.intervals]
    count = inp.count if inp.count is not None \
        else max(1, int(inp.r_c * len(truth.keyframes) + 0.5))
    with span("pipeline.extract"):
        keys = extract_keyframes(traj, count=count, intervals=intervals)
    with span("selection.json"):
        return keyframes_to_json(keys, traj.start_frame, traj.start_frame + traj.n_samples)


def ranked_frames(pred) -> list[int]:
    """Predicted frames by descending score, ties to the earlier frame (as the CLI)."""
    order = sorted(zip(pred.frames, pred.scores), key=lambda fs: (-fs[1], fs[0]))
    return [f for f, _ in order]


def evaluate_inprocess(inp: Inputs, keys_text: str, span=no_span) -> tuple[str, str]:
    """`trajkf evaluate` as library calls; returns the JSON and CSV reports."""
    with span("selection.json"):
        pred, pred_n = keyframes_from_json(io.StringIO(keys_text))
    with span("trajectory.load_annotations"):
        truth = load_annotations(inp.truth)
    ranked = ranked_frames(pred)
    if inp.per_gloss:
        def pred_fn(count, interval):
            return [f for f in ranked if interval.contains(f)][:count]
    else:
        def pred_fn(count):
            return ranked[:count]
    with span("evaluation.sweep"):
        reports = sweep(pred_fn, truth.keyframes, pred_n or truth.n_frames, R_CS, DELTAS,
                        intervals=truth.intervals or None, per_gloss=inp.per_gloss)
    with span("evaluation.write"):
        return reports_to_json(reports), reports_to_csv(reports)
