"""Discrete curvature and torsion descriptors.

Shape descriptors (arc-length parameterization) and rate descriptors (time
parameterization) are both derived from time derivatives of the sampled
trajectory, using the closed identities

    speed         v = |d1|
    curvature     kappa = |d1 x d2| / v^3          (shape, 1/length)
    torsion       |tau| = |<d1 x d2, d3>| / |d1 x d2|^2
    turn rate     K = kappa * v = |d1 x d2| / v^2  (1/s)
    twist rate    |T| = |tau| * v                  (1/s)

so that no intermediate arc-length resampling is needed.  For 2-D input the
cross product is the scalar x'y'' - y'x'' treated as a z-only vector.
Samples where the speed or the cross product degenerate are masked rather
than emitted as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .trajectory import DerivativeStack, speed

SPEED_EPS = 1e-6   # below this speed (units/s) descriptors are undefined
CROSS_EPS = 1e-9   # below this |d1 x d2| torsion is undefined

BRANCH_PLANAR = "planar_curvature"
BRANCH_NONPLANAR = "harmonic_mean"


class CurveKind(str, Enum):
    """What a per-sample descriptor curve measures."""

    KAPPA_S_2D = "kappa_s_2d"
    KAPPA_S_3D = "kappa_s_3d"
    TAU_S = "tau_s"
    K_T_2D = "K_t_2d"
    K_T_3D = "K_t_3d"
    T_T = "T_t"
    H_T = "H_t"
    M_T = "M_t"


@dataclass(frozen=True, eq=False)
class DescriptorCurve:
    """Per-sample scalar descriptor aligned to trajectory samples.

    ``values[n]`` is meaningful only where ``valid_mask[n]``; masked entries
    are stored as 0 so the curve can feed peak selection directly.  ``branch``
    records which merit branch produced the curve, when applicable.
    ``offsets`` are the start indices of the curve's segments (one by default,
    one per interval when intervals are laid end to end); peaks stay inside.
    """

    values: np.ndarray
    kind: CurveKind
    valid_mask: np.ndarray
    branch: str | None = None
    offsets: np.ndarray = (0,)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid_mask, dtype=bool)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise ValueError("values and valid_mask must be 1-D arrays of equal length")
        offsets = np.array(self.offsets, dtype=np.intp, ndmin=1)
        if offsets[:1].tolist() != [0] or (np.diff(offsets, append=max(len(vals), 1)) <= 0).any():
            raise ValueError("offsets must rise from 0 and start segments inside the curve")
        vals = np.where(mask, vals, 0.0)
        mask = mask.copy()
        for name, arr in (("values", vals), ("valid_mask", mask), ("offsets", offsets)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def selection_values(self) -> np.ndarray:   # kept for perfbench/driver.py
        """Values with masked samples at 0, for peak finding: ``values`` already is."""
        return self.values


def _masked_ratio(num: np.ndarray, den: np.ndarray, mask: np.ndarray,
                  kind: CurveKind) -> DescriptorCurve:
    vals = np.zeros_like(num)
    np.divide(num, den, out=vals, where=mask)
    return DescriptorCurve(vals, kind, mask)


def descriptor_kernel(d: DerivativeStack, v: np.ndarray, rate: bool, torsion: bool = False
                      ) -> tuple[DescriptorCurve, DescriptorCurve | None]:
    """Curvature and (with ``torsion``, else None) torsion magnitude.

    The one kernel behind curvature_s/_t, torsion_s/_t and the merit engine;
    ``v`` is the speed of ``d``, and d1 x d2 is computed once.  ``rate`` selects
    the time parameterization (K, |T|) over arc length (kappa, |tau|).
    """
    if torsion and d.dim != 3:
        raise ValueError("torsion is a 3-D notion; got a 2-D derivative stack")
    if d.d2 is None or (torsion and d.d3 is None):
        what = "torsion needs third" if torsion else "curvature needs second"
        raise ValueError(f"{what} derivatives")
    if d.dim == 2:
        cross_vec = None
        cross_mag = np.abs(d.d1[:, 0] * d.d2[:, 1] - d.d1[:, 1] * d.d2[:, 0])
    else:
        cross_vec = np.cross(d.d1, d.d2)
        cross_mag = np.linalg.norm(cross_vec, axis=1)
    moving = v >= SPEED_EPS
    kind = (CurveKind.K_T_3D if d.dim == 3 else CurveKind.K_T_2D) if rate \
        else (CurveKind.KAPPA_S_3D if d.dim == 3 else CurveKind.KAPPA_S_2D)
    curvature = _masked_ratio(cross_mag, v**2 if rate else v**3, moving, kind)
    if not torsion:
        return curvature, None
    num = np.abs(np.einsum("ij,ij->i", cross_vec, d.d3))
    if rate:
        num = num * v
    tau = _masked_ratio(num, cross_mag**2, moving & (cross_mag >= CROSS_EPS),
                        CurveKind.T_T if rate else CurveKind.TAU_S)
    return curvature, tau


def curvature_s(d: DerivativeStack) -> DescriptorCurve:
    """Arc-length curvature per sample; masked where the speed degenerates."""
    return descriptor_kernel(d, speed(d), rate=False)[0]


def curvature_t(d: DerivativeStack) -> DescriptorCurve:
    """Time-parameterized curvature (instantaneous turning rate, 1/s)."""
    return descriptor_kernel(d, speed(d), rate=True)[0]


def torsion_s(d: DerivativeStack) -> DescriptorCurve:
    """Arc-length torsion magnitude; 3-D only, masked where curvature degenerates."""
    return descriptor_kernel(d, speed(d), rate=False, torsion=True)[1]


def torsion_t(d: DerivativeStack) -> DescriptorCurve:
    """Time-parameterized torsion magnitude (twist rate, 1/s); 3-D only."""
    return descriptor_kernel(d, speed(d), rate=True, torsion=True)[1]
