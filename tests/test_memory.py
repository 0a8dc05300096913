"""Peak memory of the CSV and JSON loads and of extract_keyframes on a 27k-sample
signing clip, in multiples of what each one reads, the smoothing work of
extract with many small supplied intervals, the derivative rows that
merit_curves evaluates for one short interval, and the CSV write and the
evaluate report's write, in multiples of what each one writes.

tracemalloc counts what Python and numpy allocate, so a peak reads the
same on a busy host as on an idle one, unlike a timing.  Each bound sits
15-25% above the peak measured when it was set, and below the peak of the
code before it.  The loads parse pieces of 16 KB here, as a file of several
MB is parsed in pieces of 64 KB: 1.39x the file for JSON, 1.62x for CSV
(the bytes, the points and one piece), and 2.0x for a copy of either with
CR LF line ends or a byte order mark, which are cut from the bytes.  Before
that: 2.0x the file for the JSON load, when the file's bytes and its decoded
text were held together, and 3.4x before that, when json.loads built the
lists of every row at once; 1.99x for the CSV load, the bytes and np.loadtxt's
table of the whole file, and 2.0x before, the bytes and the text; 5.9x when a
StringIO held the text at 4 bytes a character; 2.9-3.0x for a CR LF copy and
4.0x for a BOM copy, decoded whole while the bytes were alive.  Extract runs in
merit batches of at most 2048 laid-out samples here, so that the batch, a
third of the clip's laid-out samples at the default 8192, does not hide what
spans the clip: 1.05x and 0.96x the points, the speed and one batch; 2.0x when
the smoothed clip spanned it too, 3.3x at the default batch size.  For 25
nested intervals, 47 bytes per laid-out sample when the velocity spanned the
whole clip and one peak search spanned every interval.  Before that, 5.34x
and 5.63x the points, and 188 bytes per laid-out sample, when the merit's work
arrays spanned every interval at once.  The CSV write formats pieces of 2048
rows here, as it formats 8192 at a time for a clip of several MB: 0.48x the
file, 6.2x when every row was formatted before the write.  The per-gloss
evaluate report, 0.26 MB, adds 0.74x its bytes to what sweep leaves, written
piece by piece; 2.4x when it was joined, copied and encoded whole.
"""

import tracemalloc

import numpy as np
import pytest

from trajkf import (
    Annotations,
    CurveSpec,
    MeritMethod,
    SigningInterval,
    extract_keyframes,
    generate,
    keyframes_to_json,
    load_trajectory,
    merit_curves,
    save_annotations,
    save_trajectory,
)
from trajkf.cli import main
import trajkf.evaluation
import trajkf.merit
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


def test_csv_load_peaks_near_the_file_and_the_points(clip, tmp_path, monkeypatch):
    # 1.62x: the file's bytes, the points (0.63x) and one 16 KB piece's table
    monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 2**14)
    path = tmp_path / "clip.csv"
    save_trajectory(clip.trajectory, path)
    assert traced_peak(lambda: load_trajectory(path)) < 1.9 * path.stat().st_size


def test_json_load_peaks_near_the_file(clip, tmp_path, monkeypatch):
    # 1.39x: the file's bytes, the points parsed so far and one 16 KB piece's lists; the
    # bytes go before the pieces are joined (1.72x if they stayed)
    monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 2**14)
    path = tmp_path / "clip.json"
    save_trajectory(clip.trajectory, path, "json")
    assert traced_peak(lambda: load_trajectory(path, "json")) < 1.6 * path.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["crlf", "bom"])
def test_crlf_and_bom_copies_load_from_their_bytes(clip, tmp_path, monkeypatch, fmt, kind):
    # 2.0x: the file's bytes and their copy with the BOM cut, or with each CR LF made LF
    monkeypatch.setattr(trajkf.trajectory, "_PIECE_CHARS", 2**14)
    plain = tmp_path / f"clip.{fmt}"
    save_trajectory(clip.trajectory, plain, fmt)
    raw = plain.read_bytes()
    path = tmp_path / f"{kind}.{fmt}"
    path.write_bytes(raw.replace(b"\n", b"\r\n") if kind == "crlf" else b"\xef\xbb\xbf" + raw)
    assert traced_peak(lambda: load_trajectory(path, fmt)) < 2.35 * path.stat().st_size


@pytest.mark.parametrize("supplied", [False, True], ids=["detected", "supplied"])
def test_extract_peaks_at_the_speed_and_a_batch(clip, supplied, monkeypatch):
    # 1.05x and 0.96x: the speed (a third of the points), the candidates pooled so far, and
    # one batch of intervals' smoothed span, derivatives, kernel work arrays, curve and peaks
    monkeypatch.setattr(trajkf.merit, "_BATCH_ROWS", 2048)
    traj = clip.trajectory
    intervals = list(clip.intervals) if supplied else None
    peak = traced_peak(lambda: extract_keyframes(traj, count=600, intervals=intervals))
    assert peak < 1.25 * traj.points.nbytes


def test_nested_intervals_cost_a_few_bytes_per_laid_out_sample(clip):
    # 25 intervals [i, n - 1 - i]: 675,150 laid-out samples, 9.4 bytes each; select_keyframes
    # ranking the 28,675 pooled candidates sets the peak, a little above one interval's batch
    n = clip.trajectory.n_samples
    nested = [SigningInterval(i, n - 1 - i) for i in range(25)]
    peak = traced_peak(lambda: extract_keyframes(clip.trajectory, count=600, intervals=nested))
    assert peak < 11.5 * sum(itv.length for itv in nested)


def test_smoothing_covers_the_clip_and_the_laid_out_samples_once(clip, monkeypatch):
    # 400 intervals of 1-3 samples from both ends of the clip, listed out of order, in batches
    # of at most 64 laid-out samples: each batch smoothing its span as listed would smooth
    # most of the clip.  By start, the speed's blocks smooth the clip once and the batches
    # about once more, plus the laid-out samples and 12 rows of stencil reach per call.
    n = clip.trajectory.n_samples
    ends = [SigningInterval(a, a + i % 3) for i in range(200) for a in (30 * i, n - 3 - 30 * i)]
    intervals = [ends[i] for i in np.random.default_rng(0).permutation(len(ends))]
    monkeypatch.setattr(trajkf.merit, "_BATCH_ROWS", 64)
    smoothed, gaussian_smooth = [], trajkf.merit.gaussian_smooth
    monkeypatch.setattr(trajkf.merit, "gaussian_smooth", lambda traj, sigma, rows: (
        smoothed.append(len(rows)), gaussian_smooth(traj, sigma, rows))[1])
    extract_keyframes(clip.trajectory, count=50, intervals=intervals)
    laid_out = sum(itv.length for itv in set(intervals))
    assert sum(smoothed) <= 2 * n + laid_out + 12 * len(smoothed)


@pytest.mark.parametrize("method", list(MeritMethod), ids=lambda m: m.value)
def test_merit_curves_of_one_interval_differentiate_only_its_samples(clip, monkeypatch, method):
    # d1 (and the speed as its norm), d2 and d3 at the interval's 90 samples, and no speed
    # profile, which differentiates the whole clip
    itv = SigningInterval(13_500, 13_589)
    rows, profiles, derivative = [], [], trajkf.merit.derivative
    monkeypatch.setattr(trajkf.merit, "derivative", lambda traj, order, at=None: (
        rows.append(traj.n_samples if at is None else len(at)), derivative(traj, order, at))[1])
    monkeypatch.setattr(trajkf.merit, "speed_profile", lambda *args, _f=trajkf.merit.speed_profile:
                        profiles.append(args) or _f(*args))
    [curve] = merit_curves(clip.trajectory, [itv], method, speed_threshold=0.05)
    assert len(curve) == 90 and profiles == [] and sum(rows) <= 3 * 90


def test_csv_write_peaks_at_one_piece_of_rows(clip, tmp_path, monkeypatch):
    # 0.48x: one piece of 2048 rows, as lists of floats, as lines and as their join; 6.2x
    # when the rows of the whole clip were formatted and joined before the write
    monkeypatch.setattr(trajkf.trajectory, "_WRITE_ROWS", 2048)
    path = tmp_path / "clip.csv"
    assert traced_peak(lambda: save_trajectory(clip.trajectory, path)) < 0.6 * path.stat().st_size


def test_evaluate_writes_its_report_in_pieces(clip, tmp_path, monkeypatch):
    # what the report's write adds to what sweep leaves, 0.74x the report: the rows, each
    # ratio's per-sign rows laid out once for its three deltas, and one piece encoded at a
    # time; 2.4x when the report was joined, copied with its newline and encoded whole
    traj, n = clip.trajectory, clip.trajectory.n_samples
    pred, truth, report = tmp_path / "kf.json", tmp_path / "truth.json", tmp_path / "report.json"
    keys = extract_keyframes(traj, count=2 * len(clip.keyframes), intervals=list(clip.intervals))
    pred.write_text(keyframes_to_json(keys, 0, n))
    save_annotations(Annotations(clip.intervals, clip.keyframes, n), truth)
    after_sweep, sweep = [], trajkf.evaluation.sweep

    def sweep_then_reset(*args, **kwargs):   # cmd_evaluate looks sweep up when it runs
        reports = sweep(*args, **kwargs)
        after_sweep.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return reports

    monkeypatch.setattr(trajkf.evaluation, "sweep", sweep_then_reset)
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth), "--r-c", "0.5,1,2",
            "--delta", "0,5,10", "--per-gloss", "-o", str(report)]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0, 0]
    assert peak - after_sweep[-1] < 0.9 * report.stat().st_size
