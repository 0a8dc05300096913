"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trajkf.merit import MeritMethod, merit_curve  # noqa: E402
from trajkf.selection import default_speed_threshold, detect_intervals, find_peaks  # noqa: E402
from trajkf.trajectory import gaussian_smooth, load_annotations, load_trajectory  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    size = 30 if workload.startswith("signing") else None
    files = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / sub).mkdir()
        inp = workloads.make_inputs(workload, seed, size, tmp_path / sub)
        files.append((inp.traj.read_bytes(), inp.truth.read_bytes()))
    assert files[0] == files[1]
    assert files[0][0] != files[2][0]


@pytest.mark.parametrize("workload", ["signing_csv", "signing_json_pergloss"])
def test_signing_workloads_have_the_specified_size(workload, tmp_path):
    inp = workloads.make_inputs(workload, 7, None, tmp_path)
    truth = load_annotations(inp.truth)
    assert load_trajectory(inp.traj, inp.fmt).n_samples == 135_030
    assert truth.n_frames == 135_030
    assert len(truth.intervals) == 1500


def test_zigzag_has_one_interval_and_many_candidates(tmp_path):
    inp = workloads.make_inputs("zigzag_peaks", 7, None, tmp_path)
    smoothed = gaussian_smooth(load_trajectory(inp.traj, inp.fmt), 2.0)
    intervals = detect_intervals(smoothed, default_speed_threshold(smoothed))
    assert len(intervals) == 1
    peaks = find_peaks(merit_curve(smoothed, intervals[0], MeritMethod.MT))
    assert len(peaks) >= 1000


@pytest.mark.parametrize("trace,layer", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, layer):
    proc = _run("--workload", "signing_csv", "--seed", "5", "--seconds", "0",
                "--trace", trace, "--size", "20")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[layer]}


def test_benchmark_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "signing_csv", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scipy_import_time_counts_only_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       numpy.fft",
        "import time:        10 |        400 |     scipy.interpolate",
        "import time:         5 |        800 |   trajkf.synthetic",
        "import time:         7 |         20 |   json",
    ])
    assert tracing.scipy_import_seconds(stderr) == pytest.approx(700e-6)
