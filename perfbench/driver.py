"""Measurement and checks behind run.py; see run.py for usage.

Importing this module imports trajkf, so run.py puts the checkout's src/
on the import path first.
"""

from __future__ import annotations

import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import trajkf.pipeline
import tracing
import workloads
from trajkf.selection import keyframes_from_json
from trajkf.trajectory import load_annotations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT = "import trajkf.cli"
ENTRY = "import sys; from trajkf.cli import main; sys.exit(main())"   # the console script
MIN_ROUNDS = 3
OP_TIMEOUT_S = 90.0
IMPORTTIME_PROBES = 3
CAL_REFERENCE_S = 0.4   # calibration.py's CPU time on a quiet core of the 2-core sandbox
SANDBOX_NOTE = ("timings come from a shared 2-core sandbox with no CPU pinning and "
                "no cache control")


def child_env() -> dict:
    """Environment of every child: the checkout's trajkf, one BLAS thread.

    OpenBLAS otherwise starts worker threads at import; they spin for a
    while, on the other core when it is free, and add a varying amount to
    the child's CPU time that its wall time never shows.  trajkf's arrays
    are too small for threaded BLAS, so this changes no work the CLI does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_timed(argv: list[str], env: dict, errlog: Path) -> dict:
    """Run one child through spawn.py and return its report.

    The report holds the child's wall ``seconds``, its own user + system
    ``cpu_seconds``, ``maxrss_kb`` and exit ``code``.  The child runs in its own
    session so that a timeout stops it together with the intermediate process.
    """
    failed = {"seconds": OP_TIMEOUT_S, "cpu_seconds": OP_TIMEOUT_S, "maxrss_kb": 0, "code": -1}
    with open(errlog, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-I", "-S", str(BENCH / "spawn.py"), *argv],
                                env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return failed
    return json.loads(out) if proc.returncode == 0 else failed


def tail_percentile(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100.0))]
    return None


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "note": SANDBOX_NOTE,
    }


class Checker:
    """Counts operations and the ones that failed, with a reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_reference(inp, reference, oracles, chk: Checker) -> None:
    """Oracle checks on the reference outputs, which every run must equal byte for byte."""
    keys_text, report_json, _, captured_peaks = reference
    truth = load_annotations(inp.truth)
    pred, n_frames = keyframes_from_json(io.StringIO(keys_text))
    ranked = workloads.ranked_frames(pred)
    if inp.per_gloss:
        frames: set[int] = set()
        for itv in truth.intervals:
            l_s = sum(1 for k in truth.keyframes if itv.start <= k <= itv.end)
            if l_s:
                frames.update([f for f in ranked if itv.start <= f <= itv.end][:l_s])
    else:
        frames = set(ranked[:len(truth.keyframes)])
    recall, precision, f2 = oracles.brute_score(sorted(frames), truth.keyframes, 5, n_frames)
    row = grid_row(report_json)
    chk.check(all(abs(a - b) <= 1e-9 for a, b in
                  ((recall, row["recall"]), (precision, row["precision"]), (f2, row["f2"]))),
              "r_c=1, delta=5 scores differ from oracles.brute_score")

    if inp.workload == "zigzag_peaks":
        chk.check(len(captured_peaks) == 1, f"{len(captured_peaks)} intervals, expected 1")
        for values, peaks in captured_peaks:
            chk.check([(p.frame, p.value, p.prominence) for p in peaks]
                      == oracles.brute_peaks(values),
                      "find_peaks differs from oracles.brute_peaks")
        chk.check(json.loads(keys_text)["frames"] == list(truth.keyframes),
                  "selected frames are not the last 50 zigzag vertices")


def grid_row(report_json: str) -> dict:
    """The evaluate report row at r_c = 1, delta = 5."""
    return next(r for r in json.loads(report_json) if r["r_c"] == 1.0 and r["delta"] == 5)


def reference_run(inp):
    """Untraced in-process extract + evaluate; records find_peaks inputs and outputs."""
    captured = []
    find_peaks = trajkf.pipeline.find_peaks

    def recording(curve):
        peaks = find_peaks(curve)
        captured.append((curve.selection_values(), peaks))
        return peaks

    trajkf.pipeline.find_peaks = recording
    try:
        keys = workloads.extract_inprocess(inp)
    finally:
        trajkf.pipeline.find_peaks = find_peaks
    report_json, report_csv = workloads.evaluate_inprocess(inp, keys)
    return keys, report_json, report_csv, captured


def end_to_end(inp, seconds: float, work: Path, chk: Checker, reference) -> dict:
    """CLI subprocess rounds until ``seconds`` is spent; returns samples per metric.

    Each round runs the calibration task before extract and before evaluate;
    the last round starts before ``seconds`` is up.  A CLI call's
    ``*_cpu_s`` sample is its CPU time (user + system).  The reported
    ``*_s`` samples are those CPU times divided by the median calibration
    time of the run, then multiplied by CAL_REFERENCE_S.  They are the
    seconds the call would take on the host when the calibration task takes
    CAL_REFERENCE_S.  On a shared host this removes the swings in speed
    caused by other tenants (up to 2x).  Wall times are kept as the
    ``*_wall_s`` samples.
    """
    env = child_env()
    keys_ref, json_ref, csv_ref, _ = reference
    keys_out, json_out, csv_out = work / "keys.json", work / "report.json", work / "report.csv"
    errlog = work / "stderr.txt"
    samples: dict[str, list[float]] = {}

    def op(name, args) -> bool:
        report = run_timed([sys.executable, *args], env, errlog)
        if not chk.check(report["code"] == 0, f"{name} exited {report['code']}"):
            sys.stderr.write(errlog.read_text(errors="replace")[-2000:])
        if name == "calibration":
            samples.setdefault("calibration_s", []).append(report["cpu_seconds"])
        elif name != "warm-up":
            samples.setdefault(f"{name}_cpu_s", []).append(report["cpu_seconds"])
            samples.setdefault(f"{name}_wall_s", []).append(report["seconds"])
        if name in ("extract", "evaluate"):
            samples.setdefault(f"{name}_rss_mb", []).append(report["maxrss_kb"] / 1024.0)
        return report["code"] == 0

    calibrate = ["calibration", [str(BENCH / "calibration.py")]]
    op("warm-up", ["-c", IMPORT])      # writes bytecode on a fresh checkout; not measured
    deadline = perf_counter() + seconds
    while True:
        op("setup", ["-c", IMPORT])
        for path in (keys_out, json_out, csv_out):
            path.unlink(missing_ok=True)
        op(*calibrate)
        if op("extract", ["-c", ENTRY, *inp.extract_argv(keys_out)]):
            chk.check(keys_out.read_text() == keys_ref,
                      "extract output differs from the in-process reference")
        op(*calibrate)
        if op("evaluate", ["-c", ENTRY, *inp.evaluate_argv(keys_out, json_out, csv_out)]):
            chk.check(json_out.read_text() == json_ref and csv_out.read_text() == csv_ref,
                      "evaluate output differs from the in-process reference")
        if len(samples["setup_cpu_s"]) >= MIN_ROUNDS and perf_counter() >= deadline:
            break
    scale = CAL_REFERENCE_S / statistics.median(samples["calibration_s"])
    for name in ("setup", "extract", "evaluate"):
        samples[f"{name}_s"] = [t * scale for t in samples[f"{name}_cpu_s"]]
    return samples


def traced(inp, seconds: float, chk: Checker, reference, tracer) -> dict:
    """Alternating traced and untraced in-process rounds; returns samples per metric."""
    keys_ref, json_ref, csv_ref, _ = reference

    def one_round(span=workloads.no_span):
        start = perf_counter()
        keys = workloads.extract_inprocess(inp, span)
        reports = workloads.evaluate_inprocess(inp, keys, span)
        elapsed = perf_counter() - start
        chk.check((keys, *reports) == (keys_ref, json_ref, csv_ref),
                  "in-process output differs from the reference")
        return elapsed

    def traced_round():
        tracer.run_id += 1
        with tracer.installed():
            return one_round(tracer.span)

    rounds: list[dict] = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        # alternate the order so neither side always runs on a warmer cache
        if len(rounds) % 2:
            untraced_s, traced_s = one_round(), traced_round()
        else:
            traced_s, untraced_s = traced_round(), one_round()
        metrics = tracing.layer_metrics(tracer.spans, tracer.run_id)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        rounds.append(metrics)
        now = perf_counter()
        if now + (now - started) > deadline:
            break

    samples = {name: [r[name] for r in rounds] for name in rounds[0]}
    checks = tracing.count_interval_checks(
        lambda: workloads.evaluate_inprocess(inp, keys_ref))
    samples["evaluation.interval_checks"] = [checks]
    samples["cli.import_scipy_s"] = [
        tracing.importtime_probe(sys.executable, child_env(), ROOT, OP_TIMEOUT_S)
        for _ in range(IMPORTTIME_PROBES)]
    return samples


def run(args, oracles) -> int:
    """One benchmark run; prints the summary and, last, the result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        (f"-size{args.size}" if args.size is not None else "")
    chk = Checker()
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{tag}-") as tmp:
        work = Path(tmp)
        inp = workloads.make_inputs(args.workload, args.seed, args.size, work)
        reference = reference_run(inp)
        check_reference(inp, reference, oracles, chk)
        if args.trace:
            samples = traced(inp, args.seconds, chk, reference, tracer)
        else:
            samples = end_to_end(inp, args.seconds, work, chk, reference)
            row = grid_row(reference[1])
            signs = [s for s in row["per_sign"] if s["l_s"] >= 1]
            samples["f2_d5_rc1"] = [row["f2"]]
            samples["c_s_rc1"] = [row["c_s"]]
            samples["sign_count_match_rc1"] = [
                sum(s["l_x"] == s["l_s"] for s in signs) / len(signs)]
            samples["ok_rate"] = [1.0 - len(chk.failures) / chk.attempted]

    missing = sorted(set(units) - set(samples))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": not chk.failures,
        "attempted": chk.attempted,
        "failed": len(chk.failures),
        "metrics": {name: {"value": float(statistics.median(samples[name])),
                           "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "provenance": provenance(),
              "failures": chk.failures, "samples": samples, "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.to_json()) + "\n")

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    for failure in chk.failures:
        print(f"FAILED: {failure}")
    for name, vals in samples.items():
        tail = tail_percentile(vals)
        extra = f"  p{tail[0]:g}={tail[1]:.6g}" if tail else ""
        note = "" if name in units else "  (not a reported metric)"
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"{name:34s} {statistics.median(vals):14.6g} {unit:8s} "
              f"median of n={len(vals)}{extra}{note}")
    print(json.dumps(result))
    return 0

