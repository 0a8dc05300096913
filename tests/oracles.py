"""Independent reference computations the test suite checks against.

These deliberately avoid the library's code paths: shape descriptors are
computed by resampling curves to unit speed and differentiating with respect
to arc length (np.gradient, not the library's stencils), peaks and
prominences by exhaustive bracketing-minimum search, signing intervals by
labelling each sample of the speed profile, scores by a literal
per-frame Python loop, keyframe selection by a dictionary of each frame's
best prominence and one Python sort, merit curves by the per-interval route
(re-differentiating a padded window of each interval), and per-sign counts by
testing every frame against every interval.  Trajectory CSV is read by the
row-at-a-time ``csv.reader`` loop (``int``/``float`` per field), and
trajectory files are written one value at a time.  Trajectory JSON is
converted by one ``np.array`` call over the parsed point lists.  Report and
keyframe JSON go through ``json.dumps(..., indent=2)`` over the whole object.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

from trajkf import (
    BRANCH_NONPLANAR,
    BRANCH_PLANAR,
    DerivativeStack,
    DescriptorCurve,
    MeritMethod,
    ParseError,
    SigningInterval,
    TimedTrajectory,
    EvaluationReport,
    KeyframeSet,
    budget_for_ratio,
    complexity_metric,
    curvature_s,
    curvature_t,
    default_speed_threshold,
    differentiate,
    find_peaks,
    fit_plane,
    gaussian_smooth,
    harmonic_mean_curve,
    merit_curves,
    project_to_plane,
    score,
    speed,
    torsion_t,
)
from trajkf.formats import float9, json_finite_number, parse_json
from trajkf.trajectory import FRAME_RATES


def arclength_of(points: np.ndarray) -> np.ndarray:
    """Cumulative chord length of a sampled curve."""
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(chords)])


def unit_speed_resample(position_fn, t0, t1, n_dense=40001, n_out=4001):
    """Evaluate a curve at parameter values giving uniform arc-length spacing."""
    t = np.linspace(t0, t1, n_dense)
    s = arclength_of(position_fn(t))
    s_grid = np.linspace(0.0, s[-1], n_out)
    t_at_s = np.interp(s_grid, s, t)
    return s_grid, position_fn(t_at_s)


def s_curvature_torsion(points: np.ndarray, ds: float):
    """Curvature and |torsion| of a uniformly arc-length-sampled curve.

    Derivatives with respect to arc length via np.gradient; curvature is the
    cross-product magnitude of the first two, torsion the scalar triple
    product over the squared cross magnitude.
    """
    r1 = np.gradient(points, ds, axis=0, edge_order=2)
    r2 = np.gradient(r1, ds, axis=0, edge_order=2)
    r3 = np.gradient(r2, ds, axis=0, edge_order=2)
    cross = np.cross(r1, r2)
    cross_mag = np.linalg.norm(cross, axis=1)
    kappa = cross_mag
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.abs(np.einsum("ij,ij->i", cross, r3)) / cross_mag**2
    return kappa, tau


def s_route_rates(position_fn, t_samples, n_dense=200001):
    """Turn/twist rates at given times via the arc-length route.

    Computes kappa(s) and |tau(s)| on a dense unit-speed resampling, then
    maps them back to the requested sample times and multiplies by the
    numeric speed there.  Fully independent of the closed time-derivative
    identities used by the implementation.
    """
    t0, t1 = float(t_samples[0]), float(t_samples[-1])
    s_grid, pts = unit_speed_resample(position_fn, t0, t1, n_dense, 20001)
    ds = s_grid[1] - s_grid[0]
    kappa_s, tau_s = s_curvature_torsion(pts, ds)

    t_dense = np.linspace(t0, t1, n_dense)
    s_of_t = arclength_of(position_fn(t_dense))
    v_of_t = np.gradient(s_of_t, t_dense, edge_order=2)
    s_at_samples = np.interp(t_samples, t_dense, s_of_t)
    v_at_samples = np.interp(t_samples, t_dense, v_of_t)
    kappa_at = np.interp(s_at_samples, s_grid, kappa_s)
    tau_at = np.interp(s_at_samples, s_grid, tau_s)
    return kappa_at * v_at_samples, tau_at * v_at_samples, kappa_at, tau_at


def brute_peaks(values) -> list[tuple[int, float, float]]:
    """Peaks and prominences by the literal definition.

    A peak is the leftmost sample of a maximal equal-valued run strictly
    above both flanks (endpoint runs excluded).  Its prominence is its value
    minus the larger of the two minima taken over the gaps to the nearest
    strictly higher peak on each side, or to the curve boundary when no
    higher peak exists on that side.
    """
    values = list(map(float, values))
    n = len(values)
    idx = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if i > 0 and j < n - 1 and values[i - 1] < values[i] and values[i] > values[j + 1]:
            idx.append(i)
        i = j + 1

    out = []
    for p in idx:
        v = values[p]
        higher_left = [q for q in idx if q < p and values[q] > v]
        lo = max(higher_left) if higher_left else 0
        left_min = min(values[lo : p + 1])
        higher_right = [q for q in idx if q > p and values[q] > v]
        hi = min(higher_right) if higher_right else n - 1
        right_min = min(values[p : hi + 1])
        out.append((p, v, v - max(left_min, right_min)))
    return out


def brute_intervals(v, speed_threshold, min_gap, min_len) -> list[SigningInterval]:
    """``detect_intervals`` over the speed profile ``v``, sample by sample.

    A sample is labelled when it is fast (speed >= the threshold), or when it
    lies in a gap of fewer than ``min_gap`` slow samples with a fast sample on
    each side.  Each maximal run of labelled samples at least ``min_len`` long
    is an interval.  A clip of fewer than 3 samples has no speed, so none.
    """
    n = len(v)
    if n < 3:
        return []
    fast = [float(s) >= speed_threshold for s in v]
    labelled = []
    for i in range(n):
        lo = hi = i   # the slow gap around sample i, if it is slow
        while not fast[i] and lo > 0 and not fast[lo - 1]:
            lo -= 1
        while not fast[i] and hi < n - 1 and not fast[hi + 1]:
            hi += 1
        labelled.append(fast[i] or (0 < lo and hi < n - 1 and hi - lo + 1 < min_gap))
    out, start = [], None
    for i, label in enumerate(labelled + [False]):
        if label and start is None:
            start = i
        elif not label and start is not None:
            if i - start >= min_len:
                out.append(SigningInterval(start, i - 1))
            start = None
    return out


def brute_score(pred, truth, delta, n_frames):
    """Per-frame recall/precision/F2 by explicit loops."""
    def labels(frames):
        lab = [False] * n_frames
        for k in frames:
            for f in range(max(0, k - delta), min(n_frames, k + delta + 1)):
                lab[f] = True
        return lab

    pl, tl = labels(pred), labels(truth)
    tp = sum(1 for a, b in zip(pl, tl) if a and b)
    fp = sum(1 for a, b in zip(pl, tl) if a and not b)
    fn = sum(1 for a, b in zip(pl, tl) if b and not a)
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f2 = 5 * precision * recall / (4 * precision + recall) if 4 * precision + recall else 0.0
    return recall, precision, f2


def brute_sweep(pred_fn, truth_keyframes, n_frames, r_c_values, delta_values,
                intervals=None, per_gloss=False):
    """``trajkf.sweep`` with every per-sign count taken frame by frame.

    Budgets, scores and the complexity metric come from the library; only the
    counting differs, so the reports must be equal under ==.
    """
    if per_gloss and not intervals:
        raise ValueError("per-gloss budgets need annotated intervals")
    truth = list(truth_keyframes)
    reports = []
    for r_c in r_c_values:
        if per_gloss:
            frames = []
            for itv in intervals:
                l_s = sum(1 for k in truth if itv.start <= k <= itv.end)
                if l_s == 0:
                    continue
                frames.extend(pred_fn(budget_for_ratio(r_c, l_s), itv))
            frames = sorted(set(frames))
        else:
            frames = sorted(pred_fn(budget_for_ratio(r_c, len(truth))))

        per_sign = None
        c_s = None
        if intervals:
            rows = []
            for itv in intervals:
                l_s = sum(1 for k in truth if itv.start <= k <= itv.end)
                l_x = sum(1 for f in frames if itv.start <= f <= itv.end)
                rows.append({"start": itv.start, "end": itv.end, "l_x": l_x, "l_s": l_s})
            per_sign = tuple(rows)
            counted = [(r["l_x"], r["l_s"]) for r in rows if r["l_s"] >= 1]
            if counted:
                c_s = complexity_metric(counted)

        for delta in delta_values:
            base = score(frames, truth, delta, n_frames)
            reports.append(EvaluationReport(
                base.recall, base.precision, base.f2, base.delta, r_c=float(r_c),
                c_s=c_s, per_sign=per_sign, degenerate=base.degenerate,
            ))
    return reports


def brute_reports_json(reports) -> str:
    """The report JSON ``reports_to_json`` must write: the whole list through
    ``json.dumps(rows, indent=2)``, whose pure-Python encoder spells every row."""
    rows = []
    for r in reports:
        row: dict = {
            "r_c": float9(r.r_c) if r.r_c is not None else None,
            "delta": r.delta,
            "recall": float9(r.recall),
            "precision": float9(r.precision),
            "f2": float9(r.f2),
            "c_s": float9(r.c_s) if r.c_s is not None else None,
            "degenerate": r.degenerate,
        }
        if r.per_sign is not None:
            row["per_sign"] = list(r.per_sign)
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def brute_reports_csv(reports) -> str:
    """The report CSV ``reports_to_csv`` must write, each row through ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["r_c", "delta", "recall", "precision", "f2", "c_s"])
    for r in reports:
        writer.writerow([
            format(r.r_c, ".9g") if r.r_c is not None else "",
            r.delta,
            format(r.recall, ".9g"),
            format(r.precision, ".9g"),
            format(r.f2, ".9g"),
            format(r.c_s, ".9g") if r.c_s is not None else "",
        ])
    return out.getvalue()


def brute_keyframes_json(ks: KeyframeSet, start_frame: int = 0, n_frames=None) -> str:
    """The keyframe file ``keyframes_to_json`` must write, through ``json.dumps(obj, indent=2)``."""
    obj: dict = {
        "method": ks.method.value if ks.method else None,
        "frames": [start_frame + f for f in ks.frames],
        "scores": [float9(s) for s in ks.scores],
        "shortfall": ks.shortfall,
    }
    if n_frames is not None:
        obj["n_frames"] = int(n_frames)
    return json.dumps(obj, indent=2) + "\n"


# floats that test the C encoder's spelling: signed zero, subnormals, the
# range's ends and the values json writes as NaN / Infinity / -Infinity
ODD_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e-300, 1e300, -1e300,
              1.7976931348623157e308, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def brute_differentiate(points: np.ndarray, fps: float, order_max: int) -> list[np.ndarray]:
    """d1 .. d(order_max) with each finite-difference stencil written out over
    whole-array slices, in the order of operations the library's stencil
    tables sum their terms in."""
    h, p = 1.0 / fps, points
    d1 = np.empty_like(p)
    d1[1:-1] = (p[2:] - p[:-2]) / (2 * h)
    d1[0] = (-3 * p[0] + 4 * p[1] - p[2]) / (2 * h)
    d1[-1] = (3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * h)
    if order_max < 2:
        return [d1]
    d2 = np.empty_like(p)
    d2[1:-1] = (p[2:] - 2 * p[1:-1] + p[:-2]) / h**2
    d2[0] = (2 * p[0] - 5 * p[1] + 4 * p[2] - p[3]) / h**2
    d2[-1] = (2 * p[-1] - 5 * p[-2] + 4 * p[-3] - p[-4]) / h**2
    if order_max < 3:
        return [d1, d2]
    d3 = np.empty_like(p)
    d3[2:-2] = (p[4:] - 2 * p[3:-1] + 2 * p[1:-3] - p[:-4]) / (2 * h**3)
    d3[:2] = (-5 * p[:2] + 18 * p[1:3] - 24 * p[2:4] + 14 * p[3:5] - 3 * p[4:6]) / (2 * h**3)
    d3[-2:] = (5 * p[-2:] - 18 * p[-3:-1] + 24 * p[-4:-2]
               - 14 * p[-5:-3] + 3 * p[-6:-4]) / (2 * h**3)
    return [d1, d2, d3]


STENCIL_PAD = 3


def padded_window_merit(traj, interval, method, f_error=0.05, torsion_speed_fraction=0.25):
    """Merit curve of one interval by the per-interval route.

    Differentiates the interval plus up to STENCIL_PAD neighbouring samples
    per side, so the interval's own edges get interior stencils whenever
    neighbours exist.  A 3-D MT interval is classified by fitting a plane to
    its own points; when planar, the window's positions are projected onto
    the plane and differentiated again.  Returns (values, valid_mask, branch).
    """
    lo = max(0, interval.start - STENCIL_PAD)
    hi = min(traj.n_samples - 1, interval.end + STENCIL_PAD)
    window = TimedTrajectory(traj.points[lo : hi + 1], traj.frame_rate)
    sl = slice(interval.start - lo, interval.start - lo + interval.length)

    def derivatives(window, order):
        d = differentiate(window, order)
        return DerivativeStack(d.d1[sl], d.d2[sl], d.d3[sl] if order == 3 else None)

    if method is MeritMethod.MT:
        if traj.dim == 3:
            plane = fit_plane(traj.points[interval.start : interval.end + 1], f_error)
            if not plane.is_planar:
                d = derivatives(window, 3)
                v = speed(d)
                t_abs = torsion_t(d)
                guard = t_abs.valid_mask & (v >= torsion_speed_fraction * np.percentile(v, 95))
                h = harmonic_mean_curve(curvature_t(d), DescriptorCurve(t_abs.values, guard))
                return h.values, h.valid_mask, BRANCH_NONPLANAR
            window = project_to_plane(window, plane)
        k = curvature_t(derivatives(window, 2))
        return k.values, k.valid_mask, BRANCH_PLANAR

    if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim != 3:
        raise ValueError(f"method {method.value} needs a 3-D trajectory")
    if method in (MeritMethod.K2DT, MeritMethod.KAPPA2DS):
        window = TimedTrajectory(window.points[:, :2], traj.frame_rate)
    d = derivatives(window, 2)
    curve = curvature_t(d) if method in (MeritMethod.K2DT, MeritMethod.K3DT) else curvature_s(d)
    return curve.values, curve.valid_mask, None


def brute_load_csv(text: str) -> tuple[np.ndarray, int]:
    """Points and start frame of trajectory CSV text, one row at a time.

    Raises the ParseError, naming the row, that the library's loader must
    raise for the same text.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:   # a field over csv.field_size_limit(), quoted or not
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    rows = [(i + 1, r) for i, r in enumerate(rows) if r]
    if not rows:
        raise ParseError("empty trajectory file")
    header = [c.strip().lower() for c in rows[0][1]]
    if header not in (["frame", "x", "y"], ["frame", "x", "y", "z"]):
        raise ParseError(f"row 1: header must be frame,x,y[,z], got {','.join(header)}")
    ncols = len(header)
    frames: list[int] = []
    coords: list[list[float]] = []
    for lineno, row in rows[1:]:
        if len(row) != ncols:
            raise ParseError(f"row {lineno}: expected {ncols} fields, got {len(row)}")
        try:
            frame = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"row {lineno}: malformed value ({exc})") from None
        if frames:
            if frame <= frames[-1]:
                raise ParseError(f"row {lineno}: frame {frame} not after frame {frames[-1]}")
            if frame != frames[-1] + 1:
                raise ParseError(
                    f"row {lineno}: frame indices must be consecutive "
                    f"(gap between {frames[-1]} and {frame})"
                )
        frames.append(frame)
        coords.append(values)
    if not frames:
        raise ParseError("trajectory file has a header but no samples")
    points = np.array(coords)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ParseError(f"row {rows[1 + bad[0]][0]}: non-finite coordinate")
    return points, frames[0]


def brute_load_json(text: str) -> TimedTrajectory:
    """Trajectory JSON text as a TimedTrajectory, its points through ``np.array``.

    Raises the ParseError, naming the field or point, that the library's
    loader must raise for the same text.
    """
    obj = parse_json(text)
    if not isinstance(obj, dict) or "fps" not in obj or "points" not in obj:
        raise ParseError('trajectory JSON must contain "fps" and "points"')
    fps = obj["fps"]
    if not (json_finite_number(fps) and FRAME_RATES[0] <= fps <= FRAME_RATES[1]):
        raise ParseError('"fps" must be a number in [%g, %g], got %r' % (*FRAME_RATES, fps))
    start_frame = obj.get("start_frame", 0)
    if type(start_frame) is not int or start_frame < 0:
        raise ParseError('"start_frame" must be a non-negative integer')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError('"points" must be a non-empty list')
    width = len(pts[0]) if isinstance(pts[0], list) else 0
    if width not in (2, 3):
        raise ParseError("points[0]: must be a list of 2 or 3 numbers")
    for i, row in enumerate(pts):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"points[{i}]: mixed dimensionality")
    # the type set is one pass in C; the per-value scan below runs only on failure
    points = None
    if set(map(type, itertools.chain.from_iterable(pts))) <= {int, float}:
        try:
            points = np.array(pts, dtype=float)
        except OverflowError:   # an integer beyond the float range
            pass
    if points is None or not np.isfinite(points).all():
        i = next(i for i, row in enumerate(pts) if not all(map(json_finite_number, row)))
        raise ParseError(f"points[{i}]: non-finite or non-numeric coordinate in {pts[i]!r}")
    return TimedTrajectory(points, fps, start_frame)


def brute_trajectory_text(traj: TimedTrajectory, fmt: str) -> str:
    """The text ``save_trajectory`` must write, formatted one value at a time."""
    if fmt == "csv":
        lines = ["frame," + ",".join("xyz"[: traj.dim])]
        for n in range(traj.n_samples):
            vals = ",".join(f"{v:.9g}" for v in traj.points[n])
            lines.append(f"{traj.start_frame + n},{vals}")
        return "\n".join(lines) + "\n"
    obj = {
        "fps": float(format(traj.frame_rate, ".9g")),
        "start_frame": traj.start_frame,
        "points": [[float(f"{v:.9g}") for v in row] for row in traj.points],
    }
    return json.dumps(obj, indent=2) + "\n"


def brute_rank_order(frames, scores) -> list[int]:
    """The ranking rule as numpy spells it: positions by descending score, then by
    frame, then by position (``np.lexsort`` is stable)."""
    return np.lexsort((frames, -np.asarray(scores, dtype=float))).tolist()


def brute_select(frames, prominences, count, method=None) -> KeyframeSet:
    """select_keyframes by hand: each frame once, at its best prominence; the
    ``count`` strongest by descending prominence, ties to the earlier frame;
    listed by frame, short when fewer distinct frames than ``count`` exist."""
    best: dict[int, float] = {}
    for frame, prominence in zip(frames, prominences):
        if frame not in best or prominence > best[frame]:
            best[frame] = prominence
    chosen = sorted(sorted(best.items(), key=lambda fp: (-fp[1], fp[0]))[:count])
    return KeyframeSet(tuple(f for f, _ in chosen), tuple(p for _, p in chosen), method,
                       shortfall=len(best) < count)


def extract_every_copy(traj, intervals, method, count, sigma=2.0):
    """extract_keyframes on supplied intervals with every listed interval,
    repeats included, scored: each copy's candidates found on its own
    merit_curves curve, at its start plus the peak's frame, and all of them
    pooled by brute_select."""
    smoothed = gaussian_smooth(traj, sigma)
    with np.errstate(over="raise", invalid="raise"):
        threshold = default_speed_threshold(smoothed)
        curves = merit_curves(smoothed, intervals, method, speed_threshold=threshold)
    peaks = [(itv.start + p.frame, p.prominence)
             for itv, curve in zip(intervals, curves) for p in find_peaks(curve)]
    return brute_select([f for f, _ in peaks], [p for _, p in peaks], count, method=method)
