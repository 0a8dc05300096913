"""The paper's comparison: every merit method on synthetic signing clips.

    python tools/method_table.py

Each clip is `trajkf synth --kind piecewise_signing` with 4 segments,
radius 0.25, pitch 0.1, 1 s per segment, 0.5 s rests and 60 fps, for seeds
0-29.  Each method runs `extract_keyframes` on the clip's own intervals with
`count` set to its number of truth keyframes, and `score` compares the picks
with the truth at delta = 5.  For each segment mix (helix x4, arc/helix
alternating, arc x4) and noise level (0.001, 0.005) the table prints the
mean F2, recall and precision over the seeds, one column per method.  It
takes no options and writes to standard output only.
"""

from __future__ import annotations

import sys
from pathlib import Path
from statistics import fmean

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trajkf import CurveSpec, MeritMethod, extract_keyframes, generate, score  # noqa: E402

SEEDS = range(30)
DELTA = 5
MIXES = {"helix x4": ("helix",) * 4,
         "arc/helix": ("arc", "helix") * 2,
         "arc x4": ("arc",) * 4}
NOISES = (0.001, 0.005)


def clip(kinds: tuple[str, ...], noise: float, seed: int):
    """One synthetic clip of the table: its SyntheticResult."""
    spec = CurveSpec(kind="piecewise_signing", radius=0.25, pitch=0.1, duration=1.0,
                     rest_duration=0.5, n_segments=len(kinds), noise_sigma=noise, fps=60.0,
                     segment_kinds=kinds)
    return generate(spec, seed=seed)


def seed_reports(kinds: tuple[str, ...], noise: float) -> dict[MeritMethod, list]:
    """Each method's EvaluationReport on every seed's clip of one mix and noise level."""
    reports = {method: [] for method in MeritMethod}
    for seed in SEEDS:
        res = clip(kinds, noise, seed)
        for method in MeritMethod:
            ks = extract_keyframes(res.trajectory, method, count=len(res.keyframes),
                                   intervals=res.intervals)
            reports[method].append(score(ks, res.keyframes, DELTA, res.trajectory.n_samples))
    return reports


def main() -> int:
    print(f"mean over seeds {SEEDS.start}-{SEEDS.stop - 1}, delta = {DELTA}")
    print(f"{'mix':<10} {'noise':<6} {'rate':<10}"
          + "".join(f"{m.value:>7}" for m in MeritMethod))
    for mix, kinds in MIXES.items():
        for noise in NOISES:
            reports = seed_reports(kinds, noise)
            for rate in ("f2", "recall", "precision"):
                print(f"{mix:<10} {noise:<6} {rate:<10}" + "".join(
                    f"{fmean(getattr(r, rate) for r in reports[m]):>7.3f}" for m in MeritMethod))
    return 0


if __name__ == "__main__":
    sys.exit(main())
