"""Print the memory each stage of `trajkf extract` and `trajkf evaluate` holds, on the
benchmark inputs.

    python tools/stage_memory.py

One fresh interpreter writes every benchmark workload's inputs, at seed 7
and the benchmark's size, with `perfbench/workloads.make_inputs`, and the
keyframe file `trajkf extract` writes for them.  Then, for each workload,
another fresh interpreter runs extract on them as the benchmark's
in-process mirror does (`workloads.extract_inprocess`), so the RSS of
writing the inputs stays out of it, and a third runs `cli.main` on the
benchmark's evaluate arguments (`workloads.Inputs.evaluate_argv`).  That
one imports neither numpy nor `workloads`, as `trajkf evaluate` does not.

The extract stages are load (`load_trajectory`) and the steps of
`extract_keyframes`: speed, threshold, detect, merit+peaks and select,
each marked by a wrapper on the `trajkf.pipeline` attribute the pipeline
looks up.  Detect does not run when the workload supplies its intervals.
Smoothing is no stage of its own: the speed smooths each of its blocks of
samples, and merit+peaks each batch's span of the clip, just before
differentiating it.  Merit+peaks is `merit_batches` from its call until it
is exhausted, with the `find_peaks` call on each batch the pipeline makes
in between, so its traced peak is the largest of any batch.

Extract runs twice.  The first pass reads the resident set size (RSS, from
/proc/self/status, so Linux only) after each stage, split into its anonymous
part (`RssAnon`: the heap and numpy's arrays, what a data change can lower)
and its file-backed part (`RssFile`: the interpreter's and the libraries'
code pages, which grow as modules are imported and first run), and the CPU
time the process spent in the stage (`time.process_time`, in ms).  The
second runs under `tracemalloc` and reads the peak of traced memory within
each stage; that peak counts what earlier stages still hold.  All are in MB
of 2**20 bytes, as the benchmark's `extract_rss_mb` is.  The last lines of
each workload give the peak RSS of its interpreter over the first pass, the
size of its trajectory file and of the points loaded from it, the load's
traced peak as a multiple of each, and the number of merit batches.

On `signing_csv` a fourth interpreter probes the fixed cost of one merit
batch: two 61-sample intervals of the clip, each from the start of a truth
interval, the first that `fit_planes` calls planar and the first it does
not, taken as extract takes a batch (`next(merit_batches(...))` at the
default sigma and speed threshold, under extract's errstate).  It prints the
batch's CPU time (median of 200 runs) and the Python-level and C calls one
batch makes, counted under `sys.setprofile`.

Evaluate runs twice as well, measured the same way.  Its stages follow one
another: each ends when the call that marks it returns, and the next one
begins there.  Read keyframes ends with `keyframes_from_json` and read
truth with `load_annotations`, as `trajkf.cli` looks them up; sweep ends
with `trajkf.evaluation.sweep`.  JSON write ends with the first
`write_text` of `trajkf.cli`, and so it holds the report's layout too.  CSV
write ends with the second.  The last lines give the interpreter's peak RSS
and the size of the JSON report, with the JSON write's traced peak as a
multiple of it.  The inputs and outputs live in a temporary directory,
removed at the end.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7

# argv is the output directory; prints one line of JSON per workload: its Inputs and its
# evaluate argv, which reads the keyframe file of its extract, kf.json, written here
WRITE = """
import json
import sys
from dataclasses import asdict
from pathlib import Path

from trajkf.cli import main
from workloads import WORKLOADS, make_inputs

for name in WORKLOADS:
    (Path(sys.argv[1]) / name).mkdir()
    inp = make_inputs(name, int(sys.argv[2]), None, Path(sys.argv[1]) / name)
    work = inp.traj.parent
    if main(inp.extract_argv(work / "kf.json")) != 0:
        sys.exit(1)
    argv = inp.evaluate_argv(work / "kf.json", work / "report.json", work / "report.csv")
    print(json.dumps([asdict(inp), argv], default=str))
"""

# the start of MEASURE and EVALUATE: argv is one workload's line of WRITE's output and
# the seed
COMMON = """
import json
import os
import resource
import sys
import time
import tracemalloc

MB = 2**20


def rss_mb():
    # the resident set, and its anonymous and its file-backed (code and mapped files) parts
    keys = ("VmRSS:", "RssAnon:", "RssFile:")
    with open("/proc/self/status") as fh:
        kb = dict(line.split()[:2] for line in fh if line.startswith(keys))
    return tuple(int(kb[key]) * 1024 / MB for key in keys)


def enter():
    global entered
    entered = time.process_time()


def leave(name):
    cpu[name] = (time.process_time() - entered) * 1e3
    rss[name] = rss_mb()


def table(title, stages):
    print(f"{inputs['workload']} {title} (seed {sys.argv[2]})")
    print(f"  {'stage':<16}{'tracemalloc peak MB':>20}{'RSS after MB':>14}{'anon MB':>9}"
          f"{'file MB':>9}{'CPU ms':>10}")
    for name in stages:
        if name in rss:
            print(f"  {name:<16}{peak[name]:>20.2f}{rss[name][0]:>14.2f}{rss[name][1]:>9.2f}"
                  f"{rss[name][2]:>9.2f}{cpu[name]:>10.1f}")
    print(f"  peak RSS {max_rss:.2f} MB")


inputs, evaluate_argv = json.loads(sys.argv[1])
rss, peak, cpu = {}, {}, {}
"""

# prints the workload's extract table
MEASURE = COMMON + """
from contextlib import contextmanager, nullcontext

import trajkf.pipeline
from trajkf import load_trajectory
from workloads import Inputs, extract_inprocess

STAGES = {"speed": "speed_profile", "threshold": "default_speed_threshold",
          "detect": "detect_intervals", "merit+peaks": "merit_batches",
          "select": "select_keyframes"}


def run(inp, enter, leave):
    # extract_inprocess on inp, calling enter() and leave(stage) around each stage
    @contextmanager
    def stage(name):
        enter()
        try:
            yield
        finally:
            leave(name)

    def staged(name, fn):
        def call(*args, **kwargs):
            with stage(name):
                return fn(*args, **kwargs)

        def batches(*args, **kwargs):   # the stage lasts until the last batch is taken
            with stage(name):
                for batch in fn(*args, **kwargs):
                    batch_count[-1] += 1
                    yield batch
        return batches if name == "merit+peaks" else call

    saved = {attr: getattr(trajkf.pipeline, attr) for attr in STAGES.values()}
    try:
        for name, attr in STAGES.items():
            setattr(trajkf.pipeline, attr, staged(name, saved[attr]))
        extract_inprocess(inp, lambda name: stage("load") if name == "trajectory.load"
                          else nullcontext())
    finally:
        for attr, fn in saved.items():
            setattr(trajkf.pipeline, attr, fn)


inp = Inputs(**inputs)
batch_count = [0]   # merit batches of the run
run(inp, enter, leave)
batch_count.append(0)
max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
tracemalloc.start()
run(inp, tracemalloc.reset_peak,
    lambda name: peak.__setitem__(name, tracemalloc.get_traced_memory()[1] / MB))
tracemalloc.stop()
table("extract", ("load", *STAGES))
size = os.path.getsize(inp.traj) / MB
points = load_trajectory(inp.traj, inp.fmt).points.nbytes / MB
print(f"  input file {size:.2f} MB, points {points:.2f} MB; load peak {peak['load'] / size:.2f}x "
      f"the file, {peak['load'] / points:.2f}x the points")
print(f"  merit batches: {batch_count[0]}", flush=True)
"""

# prints the cost of one merit batch of two 61-sample intervals of the workload's clip, the first
# from the start of a truth interval that fit_planes calls planar and the first it does not
PROBE = COMMON + """
import statistics
from collections import Counter

import numpy as np

from trajkf import SigningInterval, load_annotations, load_trajectory
from trajkf.merit import DEFAULT_F_ERROR, fit_planes, merit_batches, speed_profile
from trajkf.pipeline import DEFAULT_SIGMA
from trajkf.selection import default_speed_threshold
from trajkf.trajectory import gaussian_smooth

traj = load_trajectory(inputs["traj"], inputs["fmt"])
smoothed = gaussian_smooth(traj, DEFAULT_SIGMA).points
first = {}   # planar or not: the first such interval
for itv in load_annotations(inputs["truth"]).intervals:
    start = itv.start - traj.start_frame
    if len(first) < 2 and start + 61 <= traj.n_samples:
        error = fit_planes(smoothed[start:start + 61], np.zeros(1, np.intp), np.array([61]))[0][0]
        first.setdefault(bool(error < DEFAULT_F_ERROR), SigningInterval(start, start + 60))
pair = sorted(first.values())
threshold = default_speed_threshold(traj, speed_profile(traj, DEFAULT_SIGMA))


def batch():   # the batch as extract takes it: merit_batches' first, under extract's errstate
    with np.errstate(over="raise", invalid="raise"):
        return next(merit_batches(traj, pair, "mt", DEFAULT_F_ERROR, threshold, DEFAULT_SIGMA))


batch()   # warm-up
calls = Counter()
sys.setprofile(lambda frame, event, arg: calls.update([event]))
batch()
sys.setprofile(None)
times = []
for _ in range(200):
    entered = time.process_time()
    batch()
    times.append(time.process_time() - entered)
print(f"{inputs['workload']} merit batch probe (seed {sys.argv[2]}): intervals "
      f"{[tuple(itv) for itv in pair]}, {statistics.median(times) * 1e6:.0f} us CPU (median of "
      f"200), {calls['call']} Python-level and {calls['c_call']} C calls", flush=True)
"""

# prints the workload's evaluate table
EVALUATE = COMMON + """
import trajkf.cli
import trajkf.evaluation

STAGES = ("read keyframes", "read truth", "sweep", "JSON write", "CSV write")
MARKS = ((trajkf.cli, "keyframes_from_json"), (trajkf.cli, "load_annotations"),
         (trajkf.evaluation, "sweep"), (trajkf.cli, "write_text"))   # write_text ends two


def run(argv, enter, leave):
    # cli.main(argv), each stage ending when a marked call returns and the next one beginning
    stages = iter(STAGES)

    def marked(fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            leave(next(stages))
            enter()
            return result
        return call

    saved = {mark: getattr(*mark) for mark in MARKS}
    try:
        for (module, attr), fn in saved.items():
            setattr(module, attr, marked(fn))
        enter()
        if trajkf.cli.main(argv) != 0:
            sys.exit(1)
    finally:
        for (module, attr), fn in saved.items():
            setattr(module, attr, fn)


run(evaluate_argv, enter, leave)
max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
tracemalloc.start()
run(evaluate_argv, tracemalloc.reset_peak,
    lambda name: peak.__setitem__(name, tracemalloc.get_traced_memory()[1] / MB))
tracemalloc.stop()
table("evaluate", STAGES)
size = os.path.getsize(evaluate_argv[evaluate_argv.index("-o") + 1]) / MB
print(f"  JSON report {size:.2f} MB; JSON write peak {peak['JSON write'] / size:.2f}x the "
      f"report", flush=True)
"""


def main() -> int:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    with tempfile.TemporaryDirectory() as tmp:
        write = subprocess.run([sys.executable, "-c", WRITE, tmp, str(SEED)], env=env,
                               stdout=subprocess.PIPE, text=True)
        if write.returncode != 0:
            print("writing the inputs failed")
            return 1
        for line in write.stdout.splitlines():
            probe = [PROBE] if json.loads(line)[0]["workload"] == "signing_csv" else []
            for script in (MEASURE, *probe, EVALUATE):
                if subprocess.run([sys.executable, "-c", script, line, str(SEED)],
                                  env=env).returncode != 0:
                    print(f"run failed on {line}")
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
