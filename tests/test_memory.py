"""Peak memory of the CSV and JSON loads and of extract_keyframes on a 27k-sample
signing clip, in multiples of what each one reads.

tracemalloc counts what Python and numpy allocate, so a peak reads the
same on a busy host as on an idle one, unlike a timing.  Each bound sits
15-25% above the peak measured when it was set, and below the peak of the
code before it: 5.9x the file for the CSV load, when a StringIO held the
text at 4 bytes a character; 3.4x for the JSON load, when json.loads built
the lists of every row at once; 5.34x and 5.63x the points for extract, and
188 bytes per laid-out sample for 25 nested intervals, when the merit's work
arrays spanned every interval at once.
"""

import tracemalloc

import pytest

from trajkf import (
    CurveSpec,
    SigningInterval,
    extract_keyframes,
    generate,
    load_trajectory,
    save_trajectory,
)


@pytest.fixture(scope="module")
def clip():
    # the benchmark's signing clip with 300 segments: 30 + 300 * 90 = 27,030 samples
    spec = CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0, rest_duration=0.5,
                     n_segments=300, noise_sigma=0.001, fps=60.0)
    return generate(spec, seed=7)


def traced_peak(call) -> int:
    call()   # warm-up: first-call allocations are not the call's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_load_peaks_near_twice_the_file(clip, tmp_path):
    # the decoded text and its ASCII bytes, 2.0x; the parsed table is smaller than either
    path = tmp_path / "clip.csv"
    save_trajectory(clip.trajectory, path)
    assert traced_peak(lambda: load_trajectory(path)) < 2.5 * path.stat().st_size


def test_json_load_peaks_near_twice_the_file(clip, tmp_path):
    # the file's bytes and its text, 2.0x; then the text, one piece's lists and the points
    path = tmp_path / "clip.json"
    save_trajectory(clip.trajectory, path, "json")
    assert traced_peak(lambda: load_trajectory(path, "json")) < 2.5 * path.stat().st_size


@pytest.mark.parametrize("supplied", [False, True], ids=["detected", "supplied"])
def test_extract_peaks_at_a_few_clips(clip, supplied):
    # 4.2x: the smoothed clip, d1 and the speed, the merit outputs, and one batch of intervals'
    # d2, d3 and kernel work arrays
    traj = clip.trajectory
    intervals = list(clip.intervals) if supplied else None
    peak = traced_peak(lambda: extract_keyframes(traj, count=600, intervals=intervals))
    assert peak < 5.0 * traj.points.nbytes


def test_nested_intervals_cost_a_few_bytes_per_laid_out_sample(clip):
    # 25 intervals [i, n - 1 - i]: 675,150 laid-out samples, 47 bytes each, for the sample
    # index, the merit values and mask and their copies in the curve, and the peak search
    n = clip.trajectory.n_samples
    nested = [SigningInterval(i, n - 1 - i) for i in range(25)]
    peak = traced_peak(lambda: extract_keyframes(clip.trajectory, count=600, intervals=nested))
    assert peak < 56 * sum(itv.length for itv in nested)
