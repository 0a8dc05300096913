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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import SPEED_EPS, CurveKind, DescriptorCurve
from .trajectory import SigningInterval, TimedTrajectory

CURVE_KINDS = ("circle", "helix", "line", "planar_polynomial", "piecewise_signing")
PHASE_KINDS = ("linear", "quadratic", "burst")


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of a synthetic trajectory.

    ``radius`` and ``pitch`` are the circle/helix shape parameters;
    ``orientation`` tilts the curve by Euler angles (x, y, z).  ``duration``
    is the total clip length, except for piecewise_signing where it is the
    length of each motion segment and ``rest_duration`` / ``n_segments`` /
    ``segment_kinds`` shape the rest-to-rest structure.  ``embed=2`` emits a
    planar, untilted curve as a genuinely 2-D trajectory.
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
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.phase not in PHASE_KINDS:
            raise ValueError(f"unknown phase kind {self.phase!r}")
        if self.fps <= 0 or self.duration <= 0:
            raise ValueError("fps and duration must be positive")
        if self.kind in ("circle", "helix") and self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.embed not in (2, 3):
            raise ValueError("embed must be 2 or 3")
        if self.embed == 2 and (
            self.kind in ("helix", "piecewise_signing") or any(self.orientation)
        ):
            raise ValueError("2-D output requires an untilted planar curve")
        if self.kind == "piecewise_signing":
            if self.n_segments < 1 or self.rest_duration <= 0:
                raise ValueError("piecewise_signing needs n_segments >= 1 and rest_duration > 0")
            if self.segment_kinds is not None and len(self.segment_kinds) != self.n_segments:
                raise ValueError("segment_kinds length must equal n_segments")


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


def _rotation(angles: tuple[float, float, float]) -> np.ndarray:
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _phase_fns(spec: CurveSpec):
    """(theta, dtheta) closures over absolute time."""
    rate = spec.rate
    if spec.phase == "linear":
        return (lambda t: rate * t), (lambda t: rate * np.ones_like(t))
    if spec.phase == "quadratic":
        return (lambda t: rate * t**2), (lambda t: 2 * rate * t)
    w = 2 * np.pi * spec.n_bursts / spec.duration
    return (
        lambda t: rate * (t - np.sin(w * t) / w),
        lambda t: rate * (1 - np.cos(w * t)),
    )


def _burst_maxima(spec: CurveSpec) -> tuple[int, ...]:
    n = round(spec.duration * spec.fps)
    frames = []
    for k in range(spec.n_bursts):
        t_star = (k + 0.5) * spec.duration / spec.n_bursts
        frame = round(t_star * spec.fps)
        if 0 < frame < n - 1:
            frames.append(frame)
    return tuple(frames)


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
    if n < 2:
        raise ValueError("duration * fps must give at least 2 samples")
    t = np.arange(n) / spec.fps
    rot = _rotation(spec.orientation)

    if spec.kind == "planar_polynomial":
        coeffs = np.array(spec.poly_coeffs, dtype=float)
        d1c = np.polynomial.polynomial.polyder(coeffs)
        d2c = np.polynomial.polynomial.polyder(coeffs, 2)
        y1 = np.polynomial.polynomial.polyval(t, d1c)
        y2 = np.polynomial.polynomial.polyval(t, d2c)
        base = np.column_stack([t, np.polynomial.polynomial.polyval(t, coeffs), np.zeros(n)])
        v = np.sqrt(1 + y1**2)
        kappa_vals = np.abs(y2) / v**3
        k_vals = np.abs(y2) / v**2
        tau_vals = np.zeros(n)
        tau_defined = kappa_vals > 0

        def position_fn(tt, _rot=rot, _c=coeffs):
            tt = np.atleast_1d(np.asarray(tt, dtype=float))
            pts = np.column_stack(
                [tt, np.polynomial.polynomial.polyval(tt, _c), np.zeros(tt.shape)]
            )
            return pts @ _rot.T

        keyframes: tuple[int, ...] = ()
    else:
        theta, dtheta = _phase_fns(spec)
        th = theta(t)
        dth = np.abs(dtheta(t))
        a, b = spec.radius, spec.pitch
        if spec.kind == "circle":
            shape_speed, kappa_c, tau_c = a, 1.0 / a, 0.0

            def shape_fn(theta_vals, _a=a):
                return np.column_stack(
                    [_a * np.cos(theta_vals), _a * np.sin(theta_vals),
                     np.zeros(np.shape(theta_vals))]
                )

        elif spec.kind == "helix":
            c2 = a * a + b * b
            shape_speed, kappa_c, tau_c = np.sqrt(c2), a / c2, abs(b) / c2

            def shape_fn(theta_vals, _a=a, _b=b):
                return np.column_stack(
                    [_a * np.cos(theta_vals), _a * np.sin(theta_vals), _b * theta_vals]
                )

        else:  # line
            shape_speed, kappa_c, tau_c = 1.0, 0.0, 0.0

            def shape_fn(theta_vals):
                theta_vals = np.asarray(theta_vals, dtype=float)
                return np.column_stack(
                    [theta_vals, np.zeros(theta_vals.shape), np.zeros(theta_vals.shape)]
                )

        base = shape_fn(th)
        v = dth * shape_speed
        kappa_vals = np.full(n, kappa_c)
        tau_vals = np.full(n, tau_c)
        k_vals = kappa_c * v
        tau_defined = np.full(n, kappa_c > 0)

        def position_fn(tt, _rot=rot, _theta=theta, _shape=shape_fn):
            tt = np.atleast_1d(np.asarray(tt, dtype=float))
            return _shape(_theta(tt)) @ _rot.T

        keyframes = _burst_maxima(spec) if spec.phase == "burst" else ()

    moving = v >= SPEED_EPS if spec.kind != "planar_polynomial" else np.full(n, True)
    tau_mask = moving & tau_defined

    points = base @ rot.T
    if spec.embed == 2:
        points = points[:, :2]
    if spec.noise_sigma > 0:
        points = points + rng.normal(0.0, spec.noise_sigma, points.shape)

    traj = TimedTrajectory(points, spec.fps, 0)
    three_d = spec.embed == 3
    kappa_kind = CurveKind.KAPPA_S_3D if three_d else CurveKind.KAPPA_S_2D
    k_kind = CurveKind.K_T_3D if three_d else CurveKind.K_T_2D
    return SyntheticResult(
        trajectory=traj,
        curvature_s=DescriptorCurve(kappa_vals, kappa_kind, moving),
        torsion_s=DescriptorCurve(tau_vals, CurveKind.TAU_S, tau_mask) if three_d else None,
        curvature_t=DescriptorCurve(k_vals, k_kind, moving),
        torsion_t=DescriptorCurve(tau_vals * v, CurveKind.T_T, tau_mask) if three_d else None,
        keyframes=keyframes,
        intervals=(SigningInterval(0, n - 1),),
        position_fn=position_fn,
    )


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _generate_signing(spec: CurveSpec, rng: np.random.Generator) -> SyntheticResult:
    """Rest / motion / rest ... sequence with one merit maximum per motion.

    Each motion segment is a tilted circular arc (planar) or a balanced-pitch
    helix stretch (robustly non-planar), traversed with a single burst so the
    speed vanishes at the segment ends; segments chain continuously through
    stationary rests.
    """
    fps = spec.fps
    n_rest = max(2, round(spec.rest_duration * fps))
    n_mot = round(spec.duration * fps)
    if n_mot < 9:
        raise ValueError("motion segments need at least 9 samples")
    t_local = np.arange(n_mot) / fps
    dur_mot = n_mot / fps   # segment length snapped to the sample grid
    w = 2 * np.pi / dur_mot

    kinds = spec.segment_kinds or tuple(
        str(rng.choice(["arc", "helix"])) for _ in range(spec.n_segments)
    )

    blocks: list[np.ndarray] = []
    pieces: list[tuple[float, float, Callable]] = []   # (t_start, t_end, local fn)
    intervals: list[SigningInterval] = []
    keyframes: list[int] = []
    kappa_parts: list[np.ndarray] = []
    tau_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    tau_def_parts: list[np.ndarray] = []

    def add_rest(point: np.ndarray, t0: float) -> None:
        blocks.append(np.tile(point, (n_rest, 1)))
        pieces.append((t0, t0 + n_rest / fps, lambda tt, _p=point: np.tile(_p, (len(tt), 1))))
        kappa_parts.append(np.zeros(n_rest))
        tau_parts.append(np.zeros(n_rest))
        v_parts.append(np.zeros(n_rest))
        tau_def_parts.append(np.zeros(n_rest, dtype=bool))

    pos = np.zeros(3)
    idx = 0
    t_cursor = 0.0
    add_rest(pos, t_cursor)
    idx += n_rest
    t_cursor += n_rest / fps

    for seg_kind in kinds:
        a = spec.radius * rng.uniform(0.7, 1.3)
        if seg_kind == "helix":
            total_turn = rng.uniform(4 * np.pi, 6 * np.pi)
            b = a * np.sqrt(6.0) / total_turn   # z spread balances the radial spread
        elif seg_kind == "arc":
            total_turn = rng.uniform(0.6 * np.pi, 1.4 * np.pi)
            b = 0.0
        else:
            raise ValueError(f"unknown segment kind {seg_kind!r}")
        rate = total_turn / dur_mot
        rot = _random_rotation(rng)
        c2 = a * a + b * b

        def local_fn(tt, _a=a, _b=b, _rate=rate, _rot=rot, _w=w, _p=pos.copy()):
            tt = np.atleast_1d(np.asarray(tt, dtype=float))
            th = _rate * (tt - np.sin(_w * tt) / _w)
            raw = np.column_stack([_a * np.cos(th), _a * np.sin(th), _b * th])
            return (raw - np.array([_a, 0.0, 0.0])) @ _rot.T + _p

        seg_pts = local_fn(t_local)
        theta_end = rate * dur_mot
        raw_end = np.array([a * np.cos(theta_end), a * np.sin(theta_end), b * theta_end])
        raw_start = np.array([a, 0.0, 0.0])
        end_pos = rot @ (raw_end - raw_start) + pos

        blocks.append(seg_pts)
        pieces.append((t_cursor, t_cursor + dur_mot, local_fn))
        intervals.append(SigningInterval(idx, idx + n_mot - 1))
        keyframes.append(idx + round(n_mot / 2))

        dth = rate * (1 - np.cos(w * t_local))
        v_parts.append(dth * np.sqrt(c2))
        kappa_parts.append(np.full(n_mot, a / c2))
        tau_parts.append(np.full(n_mot, abs(b) / c2))
        tau_def_parts.append(np.full(n_mot, True))

        pos = end_pos
        idx += n_mot
        t_cursor += dur_mot
        add_rest(pos, t_cursor)
        idx += n_rest
        t_cursor += n_rest / fps

    points = np.vstack(blocks)
    n = points.shape[0]
    v = np.concatenate(v_parts)
    kappa_vals = np.concatenate(kappa_parts)
    tau_vals = np.concatenate(tau_parts)
    moving = v >= SPEED_EPS
    tau_mask = moving & np.concatenate(tau_def_parts)

    def position_fn(tt, _pieces=tuple(pieces)):
        tt = np.atleast_1d(np.asarray(tt, dtype=float))
        out = np.empty((len(tt), 3))
        for t0, t1, fn in _pieces:
            sel = (tt >= t0 - 1e-12) & (tt < t1 - 1e-12)
            if np.any(sel):
                out[sel] = fn(tt[sel] - t0)
        tail = tt >= _pieces[-1][1] - 1e-12
        if np.any(tail):
            out[tail] = fn(np.full(np.sum(tail), 0.0))
        return out

    if spec.noise_sigma > 0:
        points = points + rng.normal(0.0, spec.noise_sigma, points.shape)

    return SyntheticResult(
        trajectory=TimedTrajectory(points, fps, 0),
        curvature_s=DescriptorCurve(kappa_vals, CurveKind.KAPPA_S_3D, moving),
        torsion_s=DescriptorCurve(tau_vals, CurveKind.TAU_S, tau_mask),
        curvature_t=DescriptorCurve(kappa_vals * v, CurveKind.K_T_3D, moving),
        torsion_t=DescriptorCurve(tau_vals * v, CurveKind.T_T, tau_mask),
        keyframes=tuple(keyframes),
        intervals=tuple(intervals),
        position_fn=position_fn,
    )


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
