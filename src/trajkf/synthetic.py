"""Analytic test trajectories with known descriptors and keyframes.

Generates circles, helices, lines, planar polynomials, and rest-to-rest
"signing" sequences from closed-form curves, together with the exact
curvature/torsion/turn-rate/twist-rate values at every sample and (for
burst-phased motion) the frames where the merit attains its analytic maxima.
These serve as the independent ground truth for the numerical machinery.

A curve is traversed according to a phase function:

    linear      theta(t) = rate * t
    quadratic   theta(t) = rate * t^2
    burst       theta(t) = rate * (t - sin(w t) / w),  w = 2 pi n_bursts / T

The burst profile starts and ends every cycle at zero speed, peaking halfway
through, which is what makes the analytic merit maxima well defined.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .formats import CURVE_KINDS, PHASE_KINDS, SigningInterval
from .geometry import SPEED_EPS, DescriptorCurve
from .trajectory import FRAME_RATES, TimedTrajectory

_SEGMENT_KINDS = ("arc", "helix")


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of a synthetic trajectory.

    ``radius`` and ``pitch`` are the circle/helix shape parameters;
    ``orientation`` tilts the curve by Euler angles (x, y, z).  ``duration``
    is the total clip length, except for piecewise_signing where it is the
    length of each motion segment and ``rest_duration`` / ``n_segments`` /
    ``segment_kinds`` shape the rest-to-rest structure.  ``embed=2`` emits a
    planar, untilted curve as a genuinely 2-D trajectory.

    Every number must be finite.  ``radius``, ``n_bursts``, ``duration``,
    ``n_segments`` and ``rest_duration`` must be positive, ``fps`` in FRAME_RATES
    and ``noise_sigma`` non-negative; ``n_bursts`` is at most ``duration * fps``.
    """

    kind: str
    radius: float = 1.0
    pitch: float = 0.0
    phase: str = "linear"
    rate: float = 1.0
    n_bursts: int = 1
    duration: float = 5.0
    fps: float = 60.0
    noise_sigma: float = 0.0
    orientation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    embed: int = 3
    poly_coeffs: tuple[float, ...] = (0.0, 0.0, 0.5)
    n_segments: int = 3
    rest_duration: float = 0.5
    segment_kinds: tuple[str, ...] | None = None

    def __post_init__(self):
        # messages name the fields they are about (the CLI puts each field's flag there)
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.phase not in PHASE_KINDS:
            raise ValueError(f"unknown phase kind {self.phase!r}")
        for name in ("radius", "pitch", "rate", "n_bursts", "duration", "fps", "noise_sigma",
                     "n_segments", "rest_duration", "orientation", "poly_coeffs"):
            value = getattr(self, name)
            if not _finite(*np.atleast_1d(value).tolist()):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("radius", "n_bursts", "duration", "fps", "n_segments", "rest_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not FRAME_RATES[0] <= self.fps <= FRAME_RATES[1]:
            raise ValueError("fps must lie in [%g, %g], got %r" % (*FRAME_RATES, self.fps))
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not _finite(self.duration * self.fps, self.rest_duration * self.fps):
            raise ValueError("duration * fps and rest_duration * fps must be finite")
        min_samples = 9 if self.kind == "piecewise_signing" else 2
        if round(self.duration * self.fps) < min_samples:
            raise ValueError(f"duration * fps must give at least {min_samples} samples")
        if self.n_bursts > self.duration * self.fps:
            raise ValueError("n_bursts must be at most duration * fps")
        if self.embed not in (2, 3):
            raise ValueError("embed must be 2 or 3")
        if self.embed == 2 and (
            self.kind in ("helix", "piecewise_signing") or any(self.orientation)
        ):
            raise ValueError("embed 2 requires an untilted planar curve")
        if self.segment_kinds is not None:
            if len(self.segment_kinds) != self.n_segments:
                raise ValueError("segment_kinds length must equal n_segments")
            if not set(self.segment_kinds) <= set(_SEGMENT_KINDS):
                raise ValueError("segment_kinds must each be arc or helix")


@dataclass(frozen=True, eq=False)
class SyntheticResult:
    """A generated trajectory plus its exact descriptor curves."""

    trajectory: TimedTrajectory
    curvature_s: DescriptorCurve
    torsion_s: DescriptorCurve | None
    curvature_t: DescriptorCurve
    torsion_t: DescriptorCurve | None
    keyframes: tuple[int, ...]
    intervals: tuple[SigningInterval, ...]
    position_fn: Callable[[np.ndarray], np.ndarray]


def _finite(*values) -> bool:
    # compared, not converted: an int may be too large for a float
    return all(-math.inf < v < math.inf for v in values)


def _rotation(angles: tuple[float, float, float]) -> np.ndarray:
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _burst(rate: float, w: float):
    """(theta, dtheta) of a burst phase of angular frequency ``w``."""
    return (lambda t: rate * (t - np.sin(w * t) / w)), (lambda t: rate * (1 - np.cos(w * t)))


def _phase_fns(spec: CurveSpec):
    """(theta, dtheta) closures over absolute time."""
    rate = spec.rate
    if spec.phase == "linear":
        return (lambda t: rate * t), (lambda t: rate * np.ones_like(t))
    if spec.phase == "quadratic":
        return (lambda t: rate * t**2), (lambda t: 2 * rate * t)
    return _burst(rate, 2 * np.pi * spec.n_bursts / spec.duration)


def _arc(a: float, b: float | None):
    """Points at turn angles theta of a helix of radius a and pitch b (b None: a circle)."""
    def shape(theta):
        z = np.zeros(np.shape(theta)) if b is None else b * theta
        return np.column_stack([a * np.cos(theta), a * np.sin(theta), z])
    return shape


def _graph(coeffs: np.ndarray):
    """Points (x, y(x), 0) of the graph of the polynomial y with ``coeffs``, lowest first."""
    polyval = np.polynomial.polynomial.polyval   # numpy imports it on first use
    return lambda x: np.column_stack([x, polyval(x, coeffs), np.zeros(x.shape)])


def _burst_maxima(spec: CurveSpec) -> tuple[int, ...]:
    """Sorted distinct interior frames nearest the burst peaks; bursts about
    one frame apart round to one frame, which is listed once."""
    n = round(spec.duration * spec.fps)
    t_star = (np.arange(spec.n_bursts) + 0.5) * spec.duration / spec.n_bursts
    return tuple(int(f) for f in np.unique(np.round(t_star * spec.fps)) if 0 < f < n - 1)


def generate(spec: CurveSpec, seed: int = 0) -> SyntheticResult:
    """Sample a synthetic curve and return it with its exact descriptors.

    Position noise of standard deviation ``noise_sigma`` is drawn from a
    generator seeded with ``seed``, so generation is bit-reproducible.  The
    returned ``position_fn`` evaluates the noise-free curve at arbitrary
    times (used for exact time warping and for test oracles).
    """
    rng = np.random.default_rng(seed)
    if spec.kind == "piecewise_signing":
        return _generate_signing(spec, rng)

    n = round(spec.duration * spec.fps)
    t = np.arange(n) / spec.fps
    rot = _rotation(spec.orientation)
    k_vals = None
    keyframes: tuple[int, ...] = ()
    if spec.kind == "planar_polynomial":
        coeffs = np.array(spec.poly_coeffs, dtype=float)
        shape = _graph(coeffs)
        theta = np.asarray   # the identity phase: the curve's x is the time
        poly = np.polynomial.polynomial
        y1 = poly.polyval(t, poly.polyder(coeffs))
        y2 = poly.polyval(t, poly.polyder(coeffs, 2))
        v = np.sqrt(1 + y1**2)
        kappa = np.abs(y2) / v**3
        k_vals = np.abs(y2) / v**2
        tau = np.zeros(n)
    else:
        a, b = spec.radius, spec.pitch
        if spec.kind == "circle":
            shape, shape_speed, kappa_c, tau_c = _arc(a, None), a, 1.0 / a, 0.0
        elif spec.kind == "helix":
            c2 = a * a + b * b
            shape, shape_speed, kappa_c, tau_c = _arc(a, b), np.sqrt(c2), a / c2, abs(b) / c2
        else:
            shape, shape_speed, kappa_c, tau_c = _graph(np.zeros(1)), 1.0, 0.0, 0.0
        theta, dtheta = _phase_fns(spec)
        v = np.abs(dtheta(t)) * shape_speed
        kappa = np.full(n, kappa_c)
        tau = np.full(n, tau_c)
        if spec.phase == "burst":
            keyframes = _burst_maxima(spec)

    def position_fn(tt):
        tt = np.atleast_1d(np.asarray(tt, dtype=float))
        return shape(theta(tt)) @ rot.T

    points = position_fn(t)
    if spec.embed == 2:
        points = points[:, :2]
    return _result(spec, rng, points, v, kappa, tau, keyframes,
                   (SigningInterval(0, n - 1),), position_fn, k_vals)


def _result(spec, rng, points, v, kappa, tau, keyframes, intervals, position_fn,
            k_vals=None) -> SyntheticResult:
    """Add the noise last, and pair the points with their exact descriptor curves.

    A descriptor is defined where the speed is at least SPEED_EPS, torsion
    also only where the curvature is positive.  The turn and twist rates are
    curvature and torsion times speed, unless ``k_vals`` gives the turn rate.
    """
    if spec.noise_sigma > 0:
        points = points + rng.normal(0.0, spec.noise_sigma, points.shape)
    if not np.isfinite(points).all():
        raise ValueError("radius, pitch, rate, duration, poly_coeffs or noise_sigma too large: "
                         "the curve leaves the float range")
    moving = v >= SPEED_EPS
    tau_mask = moving & (kappa > 0)
    three_d = spec.embed == 3
    return SyntheticResult(
        trajectory=TimedTrajectory(points, spec.fps, 0),
        curvature_s=DescriptorCurve(kappa, moving),
        torsion_s=DescriptorCurve(tau, tau_mask) if three_d else None,
        curvature_t=DescriptorCurve(kappa * v if k_vals is None else k_vals, moving),
        torsion_t=DescriptorCurve(tau * v, tau_mask) if three_d else None,
        keyframes=tuple(keyframes),
        intervals=tuple(intervals),
        position_fn=position_fn,
    )


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _segment(shape, theta, rot: np.ndarray, a: float, origin: np.ndarray):
    """A motion segment's position at local times: its arc moved to start at ``origin``."""
    return lambda tt: (shape(theta(tt)) - np.array([a, 0.0, 0.0])) @ rot.T + origin


def _generate_signing(spec: CurveSpec, rng: np.random.Generator) -> SyntheticResult:
    """Rest / motion / rest ... sequence with one merit maximum per motion.

    Each motion segment is a tilted circular arc (planar) or a balanced-pitch
    helix stretch (robustly non-planar), traversed with a single burst so the
    speed vanishes at the segment ends; segments chain continuously through
    stationary rests.  The clip is one rest of n_rest samples, then per
    segment n_mot motion samples and n_rest rest samples.
    """
    fps = spec.fps
    n_rest = max(2, round(spec.rest_duration * fps))
    n_mot = round(spec.duration * fps)
    t_local = np.arange(n_mot) / fps
    dur_mot = n_mot / fps   # segment length snapped to the sample grid
    w = 2 * np.pi / dur_mot

    kinds = spec.segment_kinds or tuple(
        str(rng.choice(_SEGMENT_KINDS)) for _ in range(spec.n_segments)
    )
    stride = n_mot + n_rest
    n = n_rest + len(kinds) * stride
    starts = range(n_rest, n, stride)   # first sample of each motion segment
    points = np.zeros((n, 3))
    v, kappa, tau = np.zeros(n), np.zeros(n), np.zeros(n)

    motions = []   # each motion segment's position at local times
    for i, seg_kind in zip(starts, kinds):
        a = spec.radius * rng.uniform(0.7, 1.3)
        if seg_kind == "helix":
            total_turn = rng.uniform(4 * np.pi, 6 * np.pi)
            b = a * np.sqrt(6.0) / total_turn   # z spread balances the radial spread
        else:
            total_turn = rng.uniform(0.6 * np.pi, 1.4 * np.pi)
            b = 0.0
        rate = total_turn / dur_mot
        rot = _random_rotation(rng)
        c2 = a * a + b * b
        theta, dtheta = _burst(rate, w)
        origin = points[i - 1].copy()   # the point the rest before the segment holds
        motions.append(_segment(_arc(a, b), theta, rot, a, origin))
        raw_end = _arc(a, b)(rate * dur_mot)[0]

        points[i : i + n_mot] = motions[-1](t_local)
        points[i + n_mot : i + stride] = rot @ (raw_end - np.array([a, 0.0, 0.0])) + origin
        v[i : i + n_mot] = dtheta(t_local) * np.sqrt(c2)
        kappa[i : i + n_mot] = a / c2
        tau[i : i + n_mot] = abs(b) / c2

    rests = points[n_rest - 1 :: stride].copy()   # the point each rest holds
    # start time of each rest and motion, summed one piece after another in clip order
    t0 = np.cumsum([0.0, n_rest / fps, *[dur_mot, n_rest / fps] * len(kinds)])[:-1]

    def position_fn(tt):
        tt = np.atleast_1d(np.asarray(tt, dtype=float))
        # even pieces are rests and odd ones motions; times before the clip take the first rest
        piece = np.maximum(np.searchsorted(t0 - 1e-12, tt, side="right") - 1, 0)
        out = rests[piece // 2]
        for j in np.unique(piece[piece % 2 == 1]):
            sel = piece == j
            out[sel] = motions[j // 2](tt[sel] - t0[j])
        return out

    return _result(spec, rng, points, v, kappa, tau,
                   [i + round(n_mot / 2) for i in starts],
                   [SigningInterval(i, i + n_mot - 1) for i in starts], position_fn)


def warp_time(
    traj: TimedTrajectory,
    f: Callable[[np.ndarray], np.ndarray],
    position_fn: Callable[[np.ndarray], np.ndarray],
) -> TimedTrajectory:
    """Resample a synthetic trajectory at warped times f(t_n).

    ``f`` maps the array of sample times to an array of warped times; it must
    be strictly increasing on the sample grid and fix both endpoints.  The
    warped positions are evaluated exactly by ``position_fn`` (the curve's
    ``SyntheticResult.position_fn``).
    """
    times = traj.times()
    warped = np.asarray(f(times), dtype=float)
    if warped.shape != times.shape:
        raise ValueError(f"time warp must return shape {times.shape}, got {warped.shape}")
    if np.any(np.diff(warped) <= 0):
        raise ValueError("time warp must be strictly increasing")
    tol = 1e-9 * max(1.0, times[-1] - times[0])
    if abs(warped[0] - times[0]) > tol or abs(warped[-1] - times[-1]) > tol:
        raise ValueError("time warp must fix both endpoints")
    new_points = position_fn(warped)
    if traj.dim == 2:
        new_points = new_points[:, :2]
    return TimedTrajectory(new_points, traj.frame_rate, traj.start_frame)
