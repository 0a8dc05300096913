"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7's delta-monotonicity clause is implemented exactly as
stated and fails honestly: the per-frame windowed-labeling convention (which
the scoring examples pin down) does not make recall monotone in delta when
truth windows cluster; see the repository notes for the counterexample.
"""

import json
import time

import numpy as np

from trajkf import (
    CurveSpec,
    MeritMethod,
    curvature_s,
    curvature_t,
    differentiate,
    extract_keyframes,
    find_peaks,
    fit_plane,
    generate,
    harmonic_mean_curve,
    merit_curves,
    score,
    speed,
    torsion_s,
    torsion_t,
    warp_time,
)
from trajkf.cli import main as cli_main
from trajkf.geometry import BRANCH_NONPLANAR, BRANCH_PLANAR
from oracles import arclength_of, brute_peaks, brute_score


def report(number, name, ok):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def interior(a, margin=4):
    return a[margin:-margin]


def test_criterion_1_circle_descriptors():
    start = time.monotonic()
    res = generate(CurveSpec(kind="circle", radius=2.0, rate=1.5,
                             duration=5.0, fps=60.0, noise_sigma=0.0), seed=0)
    d = differentiate(res.trajectory, 2)
    k_err = np.max(np.abs(interior(curvature_t(d).values) - 1.5))
    kappa_err = np.max(np.abs(interior(curvature_s(d).values) - 0.5))
    elapsed = time.monotonic() - start
    ok = k_err < 1e-3 and kappa_err < 1e-3 and elapsed < 1.0
    assert report(1, "analytic circle", ok), \
        f"K err {k_err:.2e}, kappa err {kappa_err:.2e}, {elapsed:.3f}s"


def test_criterion_2_helix_descriptors():
    start = time.monotonic()
    res = generate(CurveSpec(kind="helix", radius=1.0, pitch=1.0, rate=1.0,
                             duration=6.0, fps=60.0, noise_sigma=0.0), seed=0)
    d = differentiate(res.trajectory, 3)
    target = np.sqrt(2) / 2
    kappa_err = np.max(np.abs(interior(curvature_s(d).values) - 0.5))
    tau_err = np.max(np.abs(interior(torsion_s(d).values) - 0.5))
    k_curve = curvature_t(d)
    t_curve = torsion_t(d)
    k_err = np.max(np.abs(interior(k_curve.values) - target))
    t_err = np.max(np.abs(interior(t_curve.values) - target))
    h = harmonic_mean_curve(k_curve, t_curve)
    h_err = np.max(np.abs(interior(h.values) - target))
    elapsed = time.monotonic() - start
    ok = (kappa_err < 1e-3 and tau_err < 1e-3 and k_err < 2e-2
          and t_err < 2e-2 and h_err < 2e-2 and elapsed < 1.0)
    assert report(2, "analytic helix", ok), \
        f"kappa {kappa_err:.2e} tau {tau_err:.2e} K {k_err:.2e} " \
        f"T {t_err:.2e} H {h_err:.2e}, {elapsed:.3f}s"


def _shape_curve_on_s(traj, descriptor_fn, order, speed_frac=0.05, margin=4):
    d = differentiate(traj, order)
    v = speed(d)
    curve = descriptor_fn(d)
    mask = curve.valid_mask & (v >= speed_frac * v.max())
    mask[:margin] = False
    mask[-margin:] = False
    s = arclength_of(traj.points)
    return s[mask], curve.values[mask]


def _max_shape_deviation(res, warped, descriptor_fn, order):
    s0, v0 = _shape_curve_on_s(res.trajectory, descriptor_fn, order)
    s1, v1 = _shape_curve_on_s(warped, descriptor_fn, order)
    lo, hi = max(s0.min(), s1.min()), min(s0.max(), s1.max())
    grid = np.linspace(lo, hi, 500)
    return float(np.max(np.abs(np.interp(grid, s0, v0) - np.interp(grid, s1, v1))))


def test_criterion_3_reparameterization():
    results = {
        "circle": generate(CurveSpec(kind="circle", radius=1.0, rate=1.0,
                                     duration=5.0, fps=120.0), seed=0),
        "helix": generate(CurveSpec(kind="helix", radius=1.0, pitch=1.0, rate=1.0,
                                    duration=5.0, fps=120.0), seed=0),
    }
    worst = 0.0
    for name, res in results.items():
        span = res.trajectory.times()[-1]
        warps = [
            lambda t, s=span: s * (t / s) ** 2,
            lambda t, s=span: s * (t / s) ** 1.5,
            lambda t, s=span: t - 0.8 * s / (2 * np.pi) * np.sin(2 * np.pi * t / s),
        ]
        for warp in warps:
            warped = warp_time(res.trajectory, warp, res.position_fn)
            worst = max(worst, _max_shape_deviation(res, warped, curvature_s, 2))
            worst = max(worst, _max_shape_deviation(res, warped, torsion_s, 3))

    circle = results["circle"]
    span = circle.trajectory.times()[-1]
    warped = warp_time(circle.trajectory, lambda t: span * (t / span) ** 2,
                       circle.position_fn)
    k = curvature_t(differentiate(warped, 2))
    vals = k.values[k.valid_mask]
    k_spread = float(vals.max() - vals.min())

    ok = worst < 1e-2 and k_spread > 10 * 1e-2
    assert report(3, "time-warp invariance", ok), \
        f"max shape deviation {worst:.3e}, warped turn-rate spread {k_spread:.3f}"


def test_criterion_4_planarity():
    rng = np.random.default_rng(4)
    flat = np.column_stack([rng.normal(size=500), rng.normal(size=500), np.zeros(500)])
    flat_result = fit_plane(flat, f_error=5e-2)

    cloud = fit_plane(rng.normal(size=(10000, 3)), f_error=5e-2)

    t = np.linspace(0, 2 * np.pi, 400)
    helix_pts = np.column_stack([np.cos(t), np.sin(t), 0.1 * t])
    helix_result = fit_plane(helix_pts, f_error=5e-2)
    centered = helix_pts - helix_pts.mean(axis=0)
    sq = np.linalg.svd(centered, compute_uv=False) ** 2
    oracle_error = sq[2] / sq.sum()

    ok = (flat_result.fitting_error < 1e-12 and flat_result.is_planar
          and abs(cloud.fitting_error - 1 / 3) < 5e-2
          and abs(helix_result.fitting_error - oracle_error) < 1e-9
          and helix_result.is_planar == (oracle_error < 5e-2))
    assert report(4, "planarity classification", ok), \
        f"flat {flat_result.fitting_error:.2e}, cloud {cloud.fitting_error:.4f}, " \
        f"helix {helix_result.fitting_error:.6f} vs oracle {oracle_error:.6f}"


def test_criterion_5_merit_branches():
    res = generate(CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                             rest_duration=0.5, n_segments=2,
                             segment_kinds=("arc", "helix")), seed=5)
    branches = [c.branch for c in
                merit_curves(res.trajectory, res.intervals, MeritMethod.MT)]
    ok = branches == [BRANCH_PLANAR, BRANCH_NONPLANAR]
    assert report(5, "merit branch selection", ok), f"branches {branches}"


def test_criterion_6_peak_prominence_oracle():
    rng = np.random.default_rng(6)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(3, 201))
        if trial % 3 == 0:
            values = rng.integers(0, 7, size=n).astype(float)
        else:
            values = rng.uniform(0, 10, size=n)
        got = [(p.frame, p.value, p.prominence) for p in find_peaks(values)]
        if got != brute_peaks(values):
            mismatches += 1
    ok = mismatches == 0
    assert report(6, "peak/prominence oracle", ok), f"{mismatches} mismatching sequences"


def _random_triples(count=1000, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(20, 501))
        pred = sorted(rng.choice(n, size=int(rng.integers(0, 7)), replace=False).tolist())
        truth = sorted(rng.choice(n, size=int(rng.integers(0, 7)), replace=False).tolist())
        delta = int(rng.integers(0, 9))
        yield pred, truth, delta, n


def test_criterion_7a_evaluation_oracle():
    mismatches = 0
    for pred, truth, delta, n in _random_triples():
        got = score(pred, truth, delta, n)
        recall, precision, f2 = brute_score(pred, truth, delta, n)
        if (got.recall, got.precision, got.f2) != (recall, precision, f2):
            mismatches += 1
    ok = mismatches == 0
    assert report("7a", "evaluation oracle (exact match)", ok), \
        f"{mismatches} mismatching triples"


def test_criterion_7b_recall_monotone_in_delta():
    # Implemented exactly as stated; the property is false for the per-frame
    # windowed-labeling convention (see module docstring), so this criterion
    # is expected to fail on a small fraction of honest random triples.
    violations = []
    for pred, truth, delta, n in _random_triples():
        if score(pred, truth, delta + 1, n).recall < score(pred, truth, delta, n).recall:
            violations.append((pred, truth, delta, n))
    ok = not violations
    report("7b", "recall non-decreasing in delta", ok)
    assert ok, (
        f"{len(violations)} of 1000 triples show recall decreasing from delta to "
        f"delta+1, e.g. {violations[0]}; the per-frame windowed-labeling "
        f"convention does not make recall monotone in delta when truth windows "
        f"cluster (known property defect, not an implementation bug: the "
        f"brute-force oracle agrees with these values)"
    )


def test_criterion_8_end_to_end_recovery():
    start = time.monotonic()
    spec = CurveSpec(kind="piecewise_signing", radius=0.25, duration=1.0,
                     rest_duration=0.5, n_segments=3, noise_sigma=0.001, fps=60.0)
    total = hits = 0
    for seed in range(50):
        res = generate(spec, seed=seed)
        ks = extract_keyframes(res.trajectory, method=MeritMethod.MT,
                               count=len(res.keyframes))
        for frame in ks.frames:
            total += 1
            if min(abs(frame - g) for g in res.keyframes) <= 5:
                hits += 1
    elapsed = time.monotonic() - start
    rate = hits / total
    ok = rate >= 0.9 and elapsed < 30.0
    assert report(8, "end-to-end synthetic recovery", ok), \
        f"{hits}/{total} = {rate:.1%} within 5 frames, {elapsed:.1f}s"


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for rerun in ("a", "b"):
        base = tmp_path / rerun
        base.mkdir()
        assert cli_main(["synth", "--kind", "piecewise_signing", "--a", "0.25",
                         "--dur", "1.0", "--rest-dur", "0.5", "--noise", "0.001",
                         "--seed", "9", "--out", str(base / "vid")]) == 0
        ann = base / "vid.annotations.json"
        truth_count = len(json.loads(ann.read_text())["keyframes"])
        assert cli_main(["extract", str(base / "vid.csv"),
                         "--count", str(truth_count),
                         "--output", str(base / "kf.json")]) == 0
        assert cli_main(["evaluate", "--pred", str(base / "kf.json"),
                         "--truth", str(ann), "--r-c", "0.5,1,2",
                         "--delta", "0,5,10",
                         "--output", str(base / "report.json"),
                         "--csv", str(base / "report.csv")]) == 0
        outputs.append({
            name: (base / name).read_bytes()
            for name in ("vid.csv", "vid.annotations.json", "kf.json",
                         "report.json", "report.csv")
        })
    ok = outputs[0] == outputs[1]
    assert report(9, "byte-identical determinism", ok), \
        f"differing files: {[k for k in outputs[0] if outputs[0][k] != outputs[1][k]]}"
