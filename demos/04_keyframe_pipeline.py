"""End-to-end keyframe extraction on a synthetic signing sequence.

Builds a rest-to-rest sequence of three motion segments (arcs and a helix
stretch), runs the full pipeline (smooth, detect intervals, classify
planarity, build merit curves, rank peaks by prominence), and compares the
selected frames with the analytic merit maxima the generator knows.

merit_curves takes every interval of the trajectory at once: it
differentiates the trajectory a single time and fits all interval planes in
one batch, which is how extract_keyframes calls it as well.
"""

from trajkf import CurveSpec, MeritMethod, extract_keyframes, generate, merit_curves


def main():
    spec = CurveSpec(
        kind="piecewise_signing",
        radius=0.25,          # meters, wrist-scale motion
        duration=1.0,         # one second per sign
        rest_duration=0.5,
        n_segments=3,
        noise_sigma=0.001,    # 1 mm tracking noise
        fps=60.0,
    )
    res = generate(spec, seed=11)
    traj = res.trajectory
    print(f"video: {traj.n_samples} frames at {traj.frame_rate:g} fps, "
          f"{len(res.intervals)} signing intervals")

    for itv, curve in zip(res.intervals, merit_curves(traj, res.intervals, MeritMethod.MT)):
        print(f"  interval [{itv.start:4d}, {itv.end:4d}]  branch: {curve.branch}")

    selected = extract_keyframes(traj, method=MeritMethod.MT, count=len(res.keyframes))
    print()
    print(f"{'selected':>10} {'truth':>8} {'offset':>8} {'prominence':>12}")
    for frame, score_, truth in zip(selected.frames, selected.scores, res.keyframes):
        print(f"{frame:>10d} {truth:>8d} {frame - truth:>8d} {score_:>12.3f}")

    print()
    print("Baselines rank frames by other descriptors of the same intervals:")
    for method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS):
        ks = extract_keyframes(traj, method=method, count=len(res.keyframes))
        print(f"  {method.value:<5} -> frames {list(ks.frames)}")


if __name__ == "__main__":
    main()
