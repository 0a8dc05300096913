"""Print the memory each stage of `trajkf extract` holds, on the benchmark inputs.

    python tools/stage_memory.py

One fresh interpreter writes every benchmark workload's inputs, at seed 7
and the benchmark's size, with `perfbench/workloads.make_inputs`.  Then,
for each workload, another fresh interpreter runs extract on them as the
benchmark's in-process mirror does (`workloads.extract_inprocess`), so the
RSS of writing the inputs stays out of it.  The stages are load
(`load_trajectory`) and the steps of `extract_keyframes`: speed, threshold,
detect, merit+peaks and select, each marked by a wrapper on the
`trajkf.pipeline` attribute the pipeline looks up.  Detect does not run when
the workload supplies its intervals.  Smoothing is no stage of its own: the
speed smooths each of its blocks of samples, and merit+peaks each batch's
span of the clip, just before differentiating it.  Merit+peaks is
`merit_batches` from its call until it is exhausted, with the `find_peaks`
call on each batch the pipeline makes in between, so its traced peak is the
largest of any batch.

Extract runs twice.  The first pass reads the resident set size (RSS, from
/proc/self/statm, so Linux only) after each stage.  The second runs under
`tracemalloc` and reads the peak of traced memory within each stage; that
peak counts what earlier stages still hold.  Both are in MB of 2**20 bytes,
as the benchmark's `extract_rss_mb` is.  The last lines of each workload
give the peak RSS of its interpreter over the first pass, and the size of
its trajectory file with the load's traced peak as a multiple of it.  The
inputs live in a temporary directory, removed at the end.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7

# argv is the output directory; prints one line of JSON per workload: its Inputs
WRITE = """
import json
import sys
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, make_inputs

for name in WORKLOADS:
    (Path(sys.argv[1]) / name).mkdir()
    inp = make_inputs(name, int(sys.argv[2]), None, Path(sys.argv[1]) / name)
    print(json.dumps(asdict(inp), default=str))
"""

# argv is one workload's line of WRITE's output and the seed; prints its table
MEASURE = """
import json
import os
import resource
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext

import trajkf.pipeline
from workloads import Inputs, extract_inprocess

MB = 2**20
STAGES = {"speed": "speed_profile", "threshold": "default_speed_threshold",
          "detect": "detect_intervals", "merit+peaks": "merit_batches",
          "select": "select_keyframes"}


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


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
                yield from fn(*args, **kwargs)
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


inp = Inputs(**json.loads(sys.argv[1]))
rss, peak = {}, {}
run(inp, lambda: None, lambda name: rss.__setitem__(name, rss_mb()))
max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
tracemalloc.start()
run(inp, tracemalloc.reset_peak,
    lambda name: peak.__setitem__(name, tracemalloc.get_traced_memory()[1] / MB))
tracemalloc.stop()
print(f"{inp.workload} (seed {sys.argv[2]})")
print(f"  {'stage':<14}{'tracemalloc peak MB':>20}{'RSS after MB':>14}")
for name in ("load", *STAGES):
    if name in rss:
        print(f"  {name:<14}{peak[name]:>20.2f}{rss[name]:>14.2f}")
print(f"  peak RSS {max_rss:.2f} MB")
size = os.path.getsize(inp.traj) / MB
print(f"  input file {size:.2f} MB; load peak {peak['load'] / size:.2f}x the file", flush=True)
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
            if subprocess.run([sys.executable, "-c", MEASURE, line, str(SEED)],
                              env=env).returncode != 0:
                print(f"run failed on {line}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
