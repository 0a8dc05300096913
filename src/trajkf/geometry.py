"""Discrete curvature, torsion, and moving-frame computation.

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
CROSS_EPS = 1e-9   # below this |d1 x d2| torsion and frames are undefined

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
    """

    values: np.ndarray
    kind: CurveKind
    valid_mask: np.ndarray
    branch: str | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid_mask, dtype=bool)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise ValueError("values and valid_mask must be 1-D arrays of equal length")
        vals = np.where(mask, vals, 0.0)
        vals.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid_mask", mask)

    def __len__(self) -> int:
        return self.values.shape[0]

    def selection_values(self) -> np.ndarray:
        """Values with masked samples forced to 0, for peak finding."""
        return np.where(self.valid_mask, self.values, 0.0)


@dataclass(frozen=True, eq=False)
class FrenetFrame:
    """Per-sample tangent/normal/binormal unit vectors, masked where undefined."""

    t_vec: np.ndarray
    n_vec: np.ndarray
    b_vec: np.ndarray
    valid_mask: np.ndarray


def _cross(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Cross product of derivative rows: (vector or None for 2-D, magnitude)."""
    if d1.shape[1] == 2:
        scalar = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        return None, np.abs(scalar)
    vec = np.cross(d1, d2)
    return vec, np.linalg.norm(vec, axis=1)


def _require(d: DerivativeStack, order: int, what: str) -> None:
    if order >= 2 and d.d2 is None:
        raise ValueError(f"{what} needs second derivatives")
    if order >= 3 and d.d3 is None:
        raise ValueError(f"{what} needs third derivatives")


def _masked_ratio(num: np.ndarray, den: np.ndarray, mask: np.ndarray,
                  kind: CurveKind) -> DescriptorCurve:
    vals = np.zeros_like(num)
    np.divide(num, den, out=vals, where=mask)
    return DescriptorCurve(vals, kind, mask)


def _descriptor_kernel(
    d: DerivativeStack, rate: bool, torsion: bool = False
) -> tuple[np.ndarray, DescriptorCurve, DescriptorCurve | None]:
    """Speed, curvature and (with ``torsion``, else None) torsion magnitude.

    The one kernel behind curvature_s/_t, torsion_s/_t and the merit engine;
    speed and d1 x d2 are computed once.  ``rate`` selects the time
    parameterization (K, |T|) over arc length (kappa, |tau|).
    """
    if torsion and d.dim != 3:
        raise ValueError("torsion is a 3-D notion; got a 2-D derivative stack")
    _require(d, 3 if torsion else 2, "torsion" if torsion else "curvature")
    v = speed(d)
    cross_vec, cross_mag = _cross(d.d1, d.d2)
    moving = v >= SPEED_EPS
    kind = (CurveKind.K_T_3D if d.dim == 3 else CurveKind.K_T_2D) if rate \
        else (CurveKind.KAPPA_S_3D if d.dim == 3 else CurveKind.KAPPA_S_2D)
    curvature = _masked_ratio(cross_mag, v**2 if rate else v**3, moving, kind)
    if not torsion:
        return v, curvature, None
    num = np.abs(np.einsum("ij,ij->i", cross_vec, d.d3))
    if rate:
        num = num * v
    tau = _masked_ratio(num, cross_mag**2, moving & (cross_mag >= CROSS_EPS),
                        CurveKind.T_T if rate else CurveKind.TAU_S)
    return v, curvature, tau


def curvature_s(d: DerivativeStack) -> DescriptorCurve:
    """Arc-length curvature per sample; masked where the speed degenerates."""
    return _descriptor_kernel(d, rate=False)[1]


def curvature_t(d: DerivativeStack) -> DescriptorCurve:
    """Time-parameterized curvature (instantaneous turning rate, 1/s)."""
    return _descriptor_kernel(d, rate=True)[1]


def torsion_s(d: DerivativeStack) -> DescriptorCurve:
    """Arc-length torsion magnitude; 3-D only, masked where curvature degenerates."""
    return _descriptor_kernel(d, rate=False, torsion=True)[2]


def torsion_t(d: DerivativeStack) -> DescriptorCurve:
    """Time-parameterized torsion magnitude (twist rate, 1/s); 3-D only."""
    return _descriptor_kernel(d, rate=True, torsion=True)[2]


def frenet_frame(d: DerivativeStack) -> FrenetFrame:
    """Tangent/normal/binormal unit vectors per sample (3-D only).

    The tangent is the normalized velocity d1, the binormal the normalized
    d1 x d2, and the normal completes the right-handed frame as b x t.
    Samples with degenerate speed or curvature are masked (stored as 0).
    """
    if d.dim != 3:
        raise ValueError("moving frames are 3-D; got a 2-D derivative stack")
    _require(d, 2, "frame")
    v = speed(d)
    cross_vec, cross_mag = _cross(d.d1, d.d2)
    mask = (v >= SPEED_EPS) & (cross_mag >= CROSS_EPS)
    t_vec = np.zeros_like(d.d1)
    b_vec = np.zeros_like(d.d1)
    np.divide(d.d1, v[:, None], out=t_vec, where=mask[:, None])
    np.divide(cross_vec, cross_mag[:, None], out=b_vec, where=mask[:, None])
    n_vec = np.cross(b_vec, t_vec)
    for arr in (t_vec, n_vec, b_vec, mask):
        arr.flags.writeable = False
    return FrenetFrame(t_vec, n_vec, b_vec, mask)
