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

import numpy as np

from .trajectory import DerivativeStack, speed

SPEED_EPS = 1e-6   # below this speed (units/s) descriptors are undefined
CROSS_EPS = 1e-9   # below this |d1 x d2| torsion is undefined

BRANCH_PLANAR = "planar_curvature"
BRANCH_NONPLANAR = "harmonic_mean"


@dataclass(frozen=True, eq=False)
class DescriptorCurve:
    """Per-sample scalar descriptor aligned to trajectory samples.

    ``values[n]`` is meaningful only where ``valid_mask[n]``; masked entries
    are stored as 0 so the curve can feed peak selection directly.  ``branch``
    records which merit branch produced the curve, when applicable.
    ``offsets`` are the start indices of the curve's segments (one by default,
    one per interval when intervals are laid end to end); peaks stay inside.
    The values and mask are copied (masked values as 0), the offsets checked.
    """

    values: np.ndarray
    valid_mask: np.ndarray
    branch: str | None = None
    offsets: np.ndarray = (0,)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid_mask, dtype=bool)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise ValueError("values and valid_mask must be 1-D arrays of equal length")
        offsets = np.array(self.offsets, dtype=np.intp, ndmin=1)
        if offsets[:1].tolist() != [0] or offsets[-1] >= max(len(vals), 1) \
                or (offsets[1:] <= offsets[:-1]).any():
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


def masked_ratio(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> DescriptorCurve:
    """num / den where ``mask`` holds; elsewhere masked, and stored as 0."""
    vals = np.zeros(len(num))
    np.divide(num, den, out=vals, where=mask)
    return DescriptorCurve(vals, mask)


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
        cross_vec = np.empty_like(d.d1)   # np.cross's component products, in its order
        for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
            np.subtract(d.d1[:, j] * d.d2[:, k], d.d1[:, k] * d.d2[:, j], out=cross_vec[:, i])
        cross_mag = np.sqrt(np.add.reduce(cross_vec * cross_vec, axis=1))   # its norm
    moving = v >= SPEED_EPS
    curvature = masked_ratio(cross_mag, v**2 if rate else v**3, moving)
    if not torsion:
        return curvature, None
    num = np.abs(np.einsum("ij,ij->i", cross_vec, d.d3))
    del cross_vec   # freed once read: a merit batch's traced peak is in this kernel
    if rate:
        num *= v
    valid = moving & (cross_mag >= CROSS_EPS)
    tau = masked_ratio(num, np.square(cross_mag, out=cross_mag), valid)
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
