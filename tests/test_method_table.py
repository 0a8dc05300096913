"""The paper's comparison (tools/method_table.py): on 3-D motion the curvature-torsion
harmonic mean finds better keyframes than 2-D curvature."""

import importlib.util
import math
from pathlib import Path
from statistics import fmean, stdev

import pytest

from trajkf import MeritMethod

TOOL = Path(__file__).parents[1] / "tools" / "method_table.py"


@pytest.fixture(scope="module")
def table():
    spec = importlib.util.spec_from_file_location("method_table", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return {(mix, noise): tool.seed_reports(kinds, noise)
            for mix, kinds in tool.MIXES.items() for noise in tool.NOISES}


@pytest.mark.parametrize("mix", ["helix x4", "arc/helix"])
@pytest.mark.parametrize("noise", [0.001, 0.005])
@pytest.mark.parametrize("method", [MeritMethod.MT, MeritMethod.K3DT])
def test_torsion_aware_methods_beat_2d_curvature_on_3d_motion(table, mix, noise, method):
    # the lead must clear two standard errors of the per-seed F2 differences
    reports = table[mix, noise]
    diffs = [a.f2 - b.f2 for a, b in zip(reports[method], reports[MeritMethod.K2DT])]
    assert fmean(diffs) > 2 * stdev(diffs) / math.sqrt(len(diffs)), (mix, noise, method)


def test_planar_arcs_at_noise_0_005_pinned(table):
    # Known weak spot, pinned rather than left out: the planar branch of the merit has no
    # low-speed guard (the non-planar one masks samples below TORSION_SPEED_FRACTION of
    # the interval's speed), so on noisy planar arcs the turn rate near rest is noise and
    # mt picks frames there.  Each value is the same under OPENBLAS_CORETYPE=Prescott and
    # =Haswell.  Selecting as many frames as there are truth keyframes makes recall,
    # precision and F2 equal.
    expected = {MeritMethod.MT: 0.035, MeritMethod.K2DT: 0.095, MeritMethod.K3DT: 0.0,
                MeritMethod.KAPPA2DS: 0.021, MeritMethod.KAPPA3DS: 0.0}
    reports = table["arc x4", 0.005]
    for rate in ("f2", "recall", "precision"):
        got = {m: fmean(getattr(r, rate) for r in reports[m]) for m in MeritMethod}
        assert got == pytest.approx(expected, abs=5e-4), \
            f"{rate}: planar branch without a low-speed guard"
