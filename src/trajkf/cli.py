"""Command-line entry point: extract, evaluate, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 input validation or I/O failure,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .evaluation import reports_to_csv, reports_to_json, sweep
from .merit import MeritMethod
from .pipeline import DEFAULT_SIGMA, extract_keyframes
from .planarity import DEFAULT_F_ERROR
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    KeyframeSet,
    keyframes_from_json,
    keyframes_to_json,
)
from .synthetic import CurveSpec, generate
from .trajectory import (
    Annotations,
    ParseError,
    SigningInterval,
    _float9,
    load_annotations,
    load_trajectory,
    save_annotations,
    save_trajectory,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

METHOD_CHOICES = [m.value for m in MeritMethod]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for input
    # validation, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Validated settings shared by the subcommands."""

    fps: float = 60.0
    sigma: float = DEFAULT_SIGMA
    f_error: float = DEFAULT_F_ERROR
    method: MeritMethod = MeritMethod.MT
    count: int | None = None
    r_c: float | None = None

    def validate_budget(self) -> None:
        if (self.count is None) == (self.r_c is None):
            raise ValueError("exactly one of --count and --r-c must be given")
        if self.count is not None and self.count < 1:
            raise ValueError("--count must be >= 1")
        if self.r_c is not None and self.r_c <= 0:
            raise ValueError("--r-c must be positive")


def _write_output(path: str | None, text: str) -> None:
    """Write to stdout, or atomically (temp file + rename) to a path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str, load, *args):
    """Run a file loader on ``path``, naming the file in any ParseError."""
    try:
        return load(path, *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers") from None


def cmd_extract(args) -> int:
    config = RunConfig(
        fps=args.fps, sigma=args.sigma, f_error=args.f_error,
        method=MeritMethod(args.method), count=args.count, r_c=args.r_c,
    )
    config.validate_budget()
    fmt = args.format or ("json" if args.input.endswith(".json") else "csv")
    traj = _read(args.input, load_trajectory, fmt, config.fps)

    intervals = None
    annotations = None
    if args.annotations:
        annotations = _read(args.annotations, load_annotations)
        if annotations.intervals:
            intervals = []
            for itv in annotations.intervals:
                start = itv.start - traj.start_frame
                end = itv.end - traj.start_frame
                if start < 0 or end >= traj.n_samples:
                    raise ValueError(
                        f"{args.annotations}: interval [{itv.start}, {itv.end}] outside "
                        f"the trajectory's frame range"
                    )
                intervals.append(SigningInterval(start, end))

    if config.r_c is not None:
        if annotations is None or not annotations.keyframes:
            raise ValueError("--r-c needs --annotations with ground-truth keyframes")
        count = max(1, int(config.r_c * len(annotations.keyframes) + 0.5))
    else:
        count = config.count

    result = extract_keyframes(
        traj,
        method=config.method,
        count=count,
        sigma=config.sigma,
        f_error=config.f_error,
        intervals=intervals,
        speed_threshold=args.speed_threshold,
        min_gap=args.min_gap,
        min_len=args.min_len,
    )
    n_frames = traj.start_frame + traj.n_samples
    _write_output(args.output, keyframes_to_json(result, traj.start_frame, n_frames))
    return EXIT_OK


def _ranked_frames(pred: KeyframeSet) -> list[int]:
    order = sorted(zip(pred.frames, pred.scores), key=lambda fs: (-fs[1], fs[0]))
    return [f for f, _ in order]


def cmd_evaluate(args) -> int:
    pred, pred_n = _read(args.pred, keyframes_from_json)
    truth = _read(args.truth, load_annotations)
    if pred_n is not None and truth.n_frames is not None and pred_n != truth.n_frames:
        raise ValueError(
            f"video length mismatch: {args.pred} has n_frames={pred_n}, "
            f"{args.truth} has n_frames={truth.n_frames}"
        )
    deltas = [int(d) for d in _parse_float_list(args.delta, "--delta")]
    r_cs = _parse_float_list(args.r_c, "--r-c")
    if not deltas or not r_cs:
        raise ValueError("--delta and --r-c must be non-empty")

    n_frames = args.n_frames or pred_n or truth.n_frames
    if n_frames is None:
        indices = list(pred.frames) + list(truth.keyframes)
        if not indices:
            raise ValueError("cannot infer video length from empty files; pass --n-frames")
        n_frames = max(indices) + max(deltas) + 1

    ranked = _ranked_frames(pred)
    if args.per_gloss:
        def pred_fn(count, interval):
            inside = [f for f in ranked if interval.contains(f)]
            return inside[:count]
    else:
        def pred_fn(count):
            return ranked[:count]

    reports = sweep(
        pred_fn,
        truth.keyframes,
        n_frames,
        r_cs,
        deltas,
        intervals=truth.intervals or None,
        per_gloss=args.per_gloss,
    )
    _write_output(args.output, reports_to_json(reports))
    if args.csv:
        _write_output(args.csv, reports_to_csv(reports))
    return EXIT_OK


def cmd_synth(args) -> int:
    segment_kinds = tuple(args.segment_kinds.split(",")) if args.segment_kinds else None
    spec = CurveSpec(
        kind=args.kind,
        radius=args.a,
        pitch=args.b,
        phase=args.phase,
        rate=args.omega,
        n_bursts=args.n_bursts,
        duration=args.dur,
        fps=args.fps,
        noise_sigma=args.noise,
        embed=args.embed,
        n_segments=args.segments,
        rest_duration=args.rest_dur,
        segment_kinds=segment_kinds,
    )
    result = generate(spec, seed=args.seed)
    traj = result.trajectory

    out = Path(args.out)
    traj_path = out.with_suffix(f".{args.format}")
    ann_path = out.parent / f"{out.name}.annotations.json"
    save_trajectory(traj, traj_path, args.format)

    extra: dict = {"fps": _float9(spec.fps)}
    if args.kind in ("circle", "helix", "line"):
        extra["analytic"] = {
            "kappa": _float9(result.curvature_s.values[result.curvature_s.valid_mask][0])
            if result.curvature_s.valid_mask.any() else 0.0,
            "tau_abs": _float9(result.torsion_s.values[result.torsion_s.valid_mask][0])
            if result.torsion_s is not None and result.torsion_s.valid_mask.any() else None,
        }
    ann = Annotations(result.intervals, result.keyframes, traj.n_samples)
    save_annotations(ann, ann_path, extra=extra)
    print(f"wrote {traj_path} and {ann_path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="trajkf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", help="extract keyframes from a trajectory file")
    p_ext.add_argument("input", help="trajectory CSV or JSON file")
    p_ext.add_argument("--format", choices=["csv", "json"], default=None)
    p_ext.add_argument("--fps", type=float, default=60.0, help="frame rate for CSV input")
    p_ext.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
                       help="Gaussian smoothing width in frames")
    p_ext.add_argument("--f-error", type=float, default=DEFAULT_F_ERROR,
                       help="planarity threshold on the PCA fitting error")
    p_ext.add_argument("--method", choices=METHOD_CHOICES, default="mt")
    p_ext.add_argument("--count", type=int, default=None, help="number of keyframes")
    p_ext.add_argument("--r-c", type=float, default=None,
                       help="keyframe budget as a ratio of the annotated count")
    p_ext.add_argument("--annotations", default=None,
                       help="annotation JSON supplying intervals and/or truth counts")
    p_ext.add_argument("--speed-threshold", type=float, default=None)
    p_ext.add_argument("--min-gap", type=int, default=DEFAULT_MIN_GAP)
    p_ext.add_argument("--min-len", type=int, default=DEFAULT_MIN_LEN)
    p_ext.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p_ext.set_defaults(func=cmd_extract)

    p_eval = sub.add_parser("evaluate", help="score predicted keyframes against truth")
    p_eval.add_argument("--pred", required=True, help="keyframe JSON from extract")
    p_eval.add_argument("--truth", required=True, help="annotation JSON with ground truth")
    p_eval.add_argument("--delta", default="5", help="comma-separated proximity thresholds")
    p_eval.add_argument("--r-c", default="1", help="comma-separated keyframe-count ratios")
    p_eval.add_argument("--n-frames", type=int, default=None)
    p_eval.add_argument("--per-gloss", action="store_true",
                        help="budget keyframes per annotated interval")
    p_eval.add_argument("--csv", default=None, help="also write a CSV table here")
    p_eval.add_argument("--output", "-o", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_syn = sub.add_parser("synth", help="generate a synthetic trajectory + annotation")
    p_syn.add_argument("--kind", required=True,
                       choices=["circle", "helix", "line", "planar_polynomial",
                                "piecewise_signing"])
    p_syn.add_argument("--a", type=float, default=1.0, help="radius")
    p_syn.add_argument("--b", type=float, default=0.0, help="helix pitch")
    p_syn.add_argument("--phase", choices=["linear", "quadratic", "burst"], default="linear")
    p_syn.add_argument("--omega", type=float, default=1.0, help="phase rate")
    p_syn.add_argument("--n-bursts", type=int, default=1)
    p_syn.add_argument("--dur", type=float, default=5.0, help="duration in seconds")
    p_syn.add_argument("--fps", type=float, default=60.0)
    p_syn.add_argument("--noise", type=float, default=0.0)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--embed", type=int, choices=[2, 3], default=3)
    p_syn.add_argument("--segments", type=int, default=3)
    p_syn.add_argument("--rest-dur", type=float, default=0.5)
    p_syn.add_argument("--segment-kinds", default=None,
                       help="comma-separated arc/helix kinds for piecewise_signing")
    p_syn.add_argument("--format", choices=["csv", "json"], default="csv")
    p_syn.add_argument("--out", required=True, help="output path prefix")
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # ParseError is a ValueError
        print(f"trajkf: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"trajkf: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
