"""Peak memory of the CSV and JSON loads and of extract_keyframes on a 27k-sample
signing clip, in multiples of what each one reads.

tracemalloc counts what Python and numpy allocate, so a peak reads the
same on a busy host as on an idle one, unlike a timing.  Each bound sits
15-25% above the peak measured when it was set, and below the peak of the
code before it: 2.0x the file for the JSON load, when the file's bytes and
its decoded text were held together, and 3.4x before that, when json.loads
built the lists of every row at once; 5.9x for the CSV load, when a
StringIO held the text at 4 bytes a character.  The CSV load's next step,
from 2.0x (the bytes and the text) to 1.99x (the bytes and np.loadtxt's
table), is too small for its bound to tell apart.  For extract, 4.21x and
4.19x the points, and 47 bytes per laid-out sample for 25 nested
intervals, when the velocity spanned the whole clip and one peak search
spanned every interval.  Before that, 5.34x and 5.63x, and 188 bytes per
laid-out sample, when the merit's work arrays spanned every interval at
once.
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
import trajkf.trajectory


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
    # 1.99x: the file's bytes and the table np.loadtxt builds from them
    path = tmp_path / "clip.csv"
    save_trajectory(clip.trajectory, path)
    assert traced_peak(lambda: load_trajectory(path)) < 2.3 * path.stat().st_size


def test_json_load_peaks_near_the_file(clip, tmp_path, monkeypatch):
    # 1.39x: the file's bytes, the points parsed so far and one 16 KB piece's lists; the
    # bytes go before the pieces are joined (1.72x if they stayed)
    monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 2**14)
    path = tmp_path / "clip.json"
    save_trajectory(clip.trajectory, path, "json")
    assert traced_peak(lambda: load_trajectory(path, "json")) < 1.6 * path.stat().st_size


@pytest.mark.parametrize("supplied", [False, True], ids=["detected", "supplied"])
def test_extract_peaks_at_a_few_clips(clip, supplied):
    # 3.3x: the smoothed clip and the speed, the candidates pooled so far, and one batch of
    # intervals' derivatives, kernel work arrays, curve and peaks
    traj = clip.trajectory
    intervals = list(clip.intervals) if supplied else None
    peak = traced_peak(lambda: extract_keyframes(traj, count=600, intervals=intervals))
    assert peak < 3.9 * traj.points.nbytes


def test_nested_intervals_cost_a_few_bytes_per_laid_out_sample(clip):
    # 25 intervals [i, n - 1 - i]: 675,150 laid-out samples, 9.5 bytes each; select_keyframes
    # ranking the 28,675 pooled candidates sets the peak, a little above one interval's batch
    n = clip.trajectory.n_samples
    nested = [SigningInterval(i, n - 1 - i) for i in range(25)]
    peak = traced_peak(lambda: extract_keyframes(clip.trajectory, count=600, intervals=nested))
    assert peak < 11.5 * sum(itv.length for itv in nested)
