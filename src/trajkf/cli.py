"""Command-line entry point: extract, evaluate, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 input validation or I/O failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .evaluation import budget_for_ratio, reports_to_csv, reports_to_json, sweep
from .merit import DEFAULT_F_ERROR, MeritMethod
from .pipeline import DEFAULT_SIGMA, extract_keyframes
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    keyframes_from_json,
    keyframes_to_json,
    rank_order,
)
from .synthetic import CURVE_KINDS, PHASE_KINDS, CurveSpec, generate
from .trajectory import (
    FRAME_RATES,
    MAX_N_FRAMES,
    Annotations,
    ParseError,
    SigningInterval,
    float9,
    load_annotations,
    load_trajectory,
    save_annotations,
    save_trajectory,
    write_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2

METHOD_CHOICES = [m.value for m in MeritMethod]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for input
    # validation, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_output(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to a path."""
    write_text(sys.stdout if path in (None, "-") else path, text)


def _read(path: str, load, *args):
    """Run a file loader on ``path``, naming the file in any ParseError."""
    try:
        return load(path, *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check(flag: str, value: float | None, positive: bool = False) -> float | None:
    """``value`` if None, or finite and >= 0 (> 0 if ``positive``); else raise naming ``flag``."""
    # compared, not converted: an int flag may be too large for a float
    if value is not None and (not 0 <= value < math.inf or (positive and value == 0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{flag} must be a finite {kind} number, got {value}")
    return value


def _check_ratio(r_c: float, total: int) -> float:
    """``r_c`` if its keyframe budget over ``total`` annotated keyframes is finite."""
    if not math.isfinite(r_c * total):
        raise ValueError(f"--r-c {r_c:g} times {total} annotated keyframes overflows")
    return r_c


def _parse_float_list(text: str, flag: str, positive: bool = False) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers") from None
    return [_check(flag, v, positive) for v in values]


def cmd_extract(args) -> int:
    if (args.count is None) == (args.r_c is None):
        raise ValueError("exactly one of --count and --r-c must be given")
    for flag, value, positive in [("--count", args.count, True), ("--r-c", args.r_c, True),
                                  ("--sigma", args.sigma, False),
                                  ("--f-error", args.f_error, False),
                                  ("--speed-threshold", args.speed_threshold, False),
                                  ("--min-gap", args.min_gap, True),
                                  ("--min-len", args.min_len, True)]:
        _check(flag, value, positive)
    if not FRAME_RATES[0] <= args.fps <= FRAME_RATES[1]:
        raise ValueError("--fps must lie in [%g, %g], got %r" % (*FRAME_RATES, args.fps))
    fmt = args.format or ("json" if args.input.endswith(".json") else "csv")
    traj = _read(args.input, load_trajectory, fmt, args.fps)
    first, last = traj.start_frame, traj.start_frame + traj.n_samples - 1
    if first < 0 or last >= MAX_N_FRAMES:   # the frames a keyframe file can hold
        raise ValueError(f"{args.input}: frames {first} to {last} leave [0, 2**62)")

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
                        f"the frame range of {args.input}"
                    )
                intervals.append(SigningInterval(start, end))

    if args.r_c is not None:
        if annotations is None or not annotations.keyframes:
            raise ValueError(f"--r-c needs --annotations with ground-truth keyframes, "
                             f"got {args.annotations}")
        total = len(annotations.keyframes)
        count = max(1, budget_for_ratio(_check_ratio(args.r_c, total), total))
    else:
        count = args.count

    try:
        result = extract_keyframes(
            traj,
            method=MeritMethod(args.method),
            count=count,
            sigma=args.sigma,
            f_error=args.f_error,
            intervals=intervals,
            speed_threshold=args.speed_threshold,
            min_gap=args.min_gap,
            min_len=args.min_len,
        )
    except FloatingPointError as exc:   # derivatives scale as powers of the frame rate
        raise ValueError(f"{args.input}: coordinates too large for its frame rate of "
                         f"{traj.frame_rate!r} fps ({exc})") from None
    n_frames = traj.start_frame + traj.n_samples
    _write_output(args.output, keyframes_to_json(result, traj.start_frame, n_frames))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pred, pred_n = _read(args.pred, keyframes_from_json)
    truth = _read(args.truth, load_annotations)
    if pred_n is not None and truth.n_frames is not None and pred_n != truth.n_frames:
        raise ValueError(
            f"video length mismatch: {args.pred} has n_frames={pred_n}, "
            f"{args.truth} has n_frames={truth.n_frames}"
        )
    deltas = _parse_float_list(args.delta, "--delta")
    if not all(d.is_integer() for d in deltas):
        raise ValueError("--delta expects whole numbers of frames")
    deltas = [int(d) for d in deltas]
    r_cs = [_check_ratio(r_c, len(truth.keyframes))
            for r_c in _parse_float_list(args.r_c, "--r-c", positive=True)]
    if not deltas or not r_cs:
        raise ValueError("--delta and --r-c must be non-empty")

    if args.n_frames is not None and not 0 < args.n_frames <= MAX_N_FRAMES:
        raise ValueError(f"--n-frames must be a positive integer at most 2**62, "
                         f"got {args.n_frames}")
    n_frames = args.n_frames or pred_n or truth.n_frames
    if n_frames is None:
        indices = [*pred.frames, *truth.keyframes, *(itv.end for itv in truth.intervals)]
        if not indices:
            raise ValueError("cannot infer video length from empty files; pass --n-frames")
        n_frames = max(indices) + max(deltas) + 1
        if n_frames > MAX_N_FRAMES:
            raise ValueError(f"video length {n_frames} inferred from the last keyframe or "
                             f"interval and --delta exceeds 2**62; pass a smaller --delta "
                             f"or --n-frames")
    for path, frames in ((args.pred, pred.frames), (args.truth, truth.keyframes)):
        outside = [k for k in frames if not 0 <= k < n_frames]
        if outside:
            raise ValueError(f"{path}: keyframe {outside[0]} outside the {n_frames}-frame video")
    for itv in truth.intervals:   # starts are >= 0 and <= end
        if itv.end >= n_frames:
            raise ValueError(f"{args.truth}: interval [{itv.start}, {itv.end}] outside "
                             f"the {n_frames}-frame video")

    if args.per_gloss and not truth.intervals:
        raise ValueError(f"{args.truth}: --per-gloss needs annotated intervals")
    reports = sweep(
        [pred.frames[i] for i in rank_order(pred.frames, pred.scores).tolist()],
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
    _check("--seed", args.seed)
    try:
        # the flags given, each under the CurveSpec field it sets; CurveSpec fills in the rest
        spec = CurveSpec(**{field: v for field, v in vars(args).items() if field in args.flags})
        result = generate(spec, seed=args.seed)
    except ValueError as exc:   # the message names fields: put each one's flag in its place
        raise ValueError(re.sub(r"\w+", lambda m: args.flags.get(m[0], m[0]), str(exc))) from None
    traj = result.trajectory

    out = Path(args.out)
    traj_path = out.with_suffix(f".{args.format}")
    ann_path = out.parent / f"{out.name}.annotations.json"
    save_trajectory(traj, traj_path, args.format)

    extra: dict = {"fps": float9(spec.fps)}
    if spec.kind in ("circle", "helix", "line"):
        extra["analytic"] = {
            "kappa": float9(result.curvature_s.values[result.curvature_s.valid_mask][0])
            if result.curvature_s.valid_mask.any() else 0.0,
            "tau_abs": float9(result.torsion_s.values[result.torsion_s.valid_mask][0])
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

    # a CurveSpec flag left out sets no attribute, so the field keeps CurveSpec's default
    p_syn = sub.add_parser("synth", help="generate a synthetic trajectory + annotation",
                           argument_default=argparse.SUPPRESS)
    spec_flags = [
        p_syn.add_argument("--kind", required=True, choices=CURVE_KINDS),
        p_syn.add_argument("--a", dest="radius", type=float, help="radius"),
        p_syn.add_argument("--b", dest="pitch", type=float, help="helix pitch"),
        p_syn.add_argument("--phase", choices=PHASE_KINDS),
        p_syn.add_argument("--omega", dest="rate", type=float, help="phase rate"),
        p_syn.add_argument("--n-bursts", type=int),
        p_syn.add_argument("--dur", dest="duration", type=float, help="duration in seconds"),
        p_syn.add_argument("--fps", type=float),
        p_syn.add_argument("--noise", dest="noise_sigma", type=float),
        p_syn.add_argument("--embed", type=int, choices=[2, 3]),
        p_syn.add_argument("--segments", dest="n_segments", type=int),
        p_syn.add_argument("--rest-dur", dest="rest_duration", type=float),
        p_syn.add_argument("--segment-kinds",
                           type=lambda text: tuple(text.split(",")) if text else None,
                           help="comma-separated arc/helix kinds for piecewise_signing"),
    ]
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--format", choices=["csv", "json"], default="csv")
    p_syn.add_argument("--out", required=True, help="output path prefix")
    p_syn.set_defaults(func=cmd_synth,
                       flags={action.dest: action.option_strings[0] for action in spec_flags})
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


if __name__ == "__main__":
    sys.exit(main())
