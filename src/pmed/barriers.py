"""Closed-form barrier families and pointwise sub/supersolution checks.

The pressure equation under scrutiny is

    u_t = (m-1) u Lap(u) + |grad u|^2 + grad u . grad Phi + (m-1) u Lap(Phi)

with free-boundary law  u_t = |grad u|^2 + grad Phi . grad u,  its limit as
u -> 0, on the edge of the positivity set.  Two explicit families act as
comparison profiles:

* the self-similar Barenblatt pressure
      B(x, t) = (C (t+tau)^(2 lam) - K |x|^2)_+ / (t+tau),
      lam = 1 / ((m-1) d + 2),  K = lam / 2,
  an exact solution of the drift-free equation, and

* annular traveling waves  H(x, t) = A (|x| + omega t - B)_+, which are
  supersolutions of the drift-free equation on {|x| <= R} x [ (B-R)/omega, 0 ]
  whenever omega/A > 1 + 2(m-1)(n-1)(R-B)/R and R/2 < B < R.

Ball-extremized, exponentially weighted perturbations (sup/inf convolutions)
followed by a velocity-preserving hyperbolic rescale turn these into local
barriers for the full drift equation.  Both profiles are radial about the
origin and monotone in |x|, so each convolution is exact: it evaluates w at
the ball points nearest to and farthest from the origin.  ``residual_pmed``
checks one pointwise residual of the pressure equation by centered finite
differences, on a sample lattice and on the level set of a small floor.

Every profile takes its time ``t`` as a float or as an array that
broadcasts against the points' leading shape: one time per batch of
points, such as ``(levels, 1, ...)`` against ``(levels, *lattice, dim)``,
or one per point.  Each value is the float that the point's own scalar call
gives, and a time outside the profile's range raises the scalar call's
error, quoting the first such entry.

Every profile's domain is convex in space and an interval in time: the
rescale cylinder is a ball x [t0 - alpha, t0], and the convolutions and the
Barenblatt bound only t.  So ``residual_pmed`` checks a box's domain once,
by one call at the extreme points of what differences over the whole
lattice would evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import Potential, dot_last, level_crossings
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    InvalidTimeError,
    OutOfCylinderError,
    require,
)

__all__ = [
    "BarenblattSpec",
    "SphericalWaveSpec",
    "RescaleSpec",
    "RescaledBarrierSpec",
    "BarrierSpec",
    "Evaluable",
    "barenblatt",
    "spherical_wave",
    "validate_wave_params",
    "sup_convolution",
    "inf_convolution",
    "hyperbolic_rescale",
    "build_barrier",
    "SpaceTimeBox",
    "ResidualReport",
    "residual_pmed",
]

# evaluable profile: (points of shape (..., dim), time) -> values of shape (...);
# the time is a float or an array that broadcasts against the leading shape
# (...), and each value is bit for bit that of the point's scalar call
Evaluable = Callable[[np.ndarray, Union[float, np.ndarray]], np.ndarray]


def _first(values, bad):
    """The entry an error message quotes: ``values`` itself when it is a
    scalar, else its first entry where ``bad`` holds."""
    return values if np.ndim(values) == 0 else values[bad].flat[0]


@dataclass(frozen=True)
class BarenblattSpec:
    """Parameters of the self-similar compactly supported pressure profile."""

    m: float
    d: int
    tau: float
    C: float

    def __post_init__(self):
        require("m", self.m, 1.0)
        if self.d not in (1, 2):
            raise InvalidParameterError(f"d must be 1 or 2, got {self.d}")
        require("tau", self.tau, 0.0)
        require("C", self.C, 0.0)

    @property
    def lam(self) -> float:
        return 1.0 / ((self.m - 1.0) * self.d + 2.0)

    @property
    def K(self) -> float:
        return 0.5 * self.lam

    def _s(self, t):
        """The profile's own time s = t + tau, like t a float or an array;
        raises unless every entry is > 0."""
        s = t + self.tau
        low = s <= 0.0
        if np.any(low):
            raise InvalidTimeError(f"t + tau must be > 0, got {_first(s, low)}")
        return s

    def support_radius(self, t: float) -> float:
        return float(np.sqrt(self.C / self.K) * self._s(t)**self.lam)

    def boundary_speed(self, t: float) -> float:
        """d/dt of the support radius (hand-differentiated closed form)."""
        return float(self.lam * np.sqrt(self.C / self.K) * self._s(t) ** (self.lam - 1.0))

    def boundary_gradient(self, t: float) -> float:
        """|grad u| on the support boundary: 2 K r(t) / (t + tau)."""
        return float(2.0 * self.K * self.support_radius(t) / self._s(t))


@dataclass(frozen=True)
class SphericalWaveSpec:
    """Annular traveling-wave supersolution A(|x| + omega t - B)_+."""

    A: float
    omega: float
    B: float
    R: float
    m: float
    d: int

    def __post_init__(self):
        require("A", self.A, 0.0)
        require("omega", self.omega, 0.0)
        require("R", self.R, 0.0)
        require("m", self.m, 1.0)
        if self.d not in (1, 2):
            raise InvalidParameterError(f"d must be 1 or 2, got {self.d}")

    def is_valid(self) -> bool:
        return validate_wave_params(self.A, self.omega, self.B, self.R, self.m, self.d)


@dataclass(frozen=True)
class RescaleSpec:
    """Data of the velocity-preserving local rescale around (x0, t0).

    ``drift`` is the frozen drift vector grad Phi(x0); ``C_pert`` scales the
    convolution strength needed to absorb the potential's curvature.
    """

    alpha: float
    x0: tuple[float, ...]
    t0: float
    drift: tuple[float, ...]
    C_pert: float

    def __post_init__(self):
        # alpha = 1 is the identity rescale; convolution strengths must still
        # land strictly inside (0, 1)
        require("alpha", self.alpha, 0.0, 1.0)
        if len(self.x0) != len(self.drift):
            raise InvalidParameterError("x0 and drift must have the same dimension")
        require("C_pert", self.C_pert, 0.0)


@dataclass(frozen=True)
class RescaledBarrierSpec:
    """A base profile pushed through convolution + hyperbolic rescale."""

    base: Union[BarenblattSpec, SphericalWaveSpec]
    rescale: RescaleSpec


BarrierSpec = Union[BarenblattSpec, SphericalWaveSpec, RescaledBarrierSpec]


def _radii(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sqrt(dot_last(x, x))


def barenblatt(x: np.ndarray, t, spec: BarenblattSpec) -> np.ndarray:
    """Evaluate the self-similar pressure profile at points x, time t."""
    s = spec._s(t)
    x = np.asarray(x, dtype=float)
    r2 = dot_last(x, x)
    # float_power is libm's pow, as Python's ** on a float is; np.power's
    # vector loop can differ from it in the last bit
    return np.maximum(spec.C * np.float_power(s, 2.0 * spec.lam) - spec.K * r2, 0.0) / s


def spherical_wave(x: np.ndarray, t, spec: SphericalWaveSpec) -> np.ndarray:
    """Evaluate A(|x| + omega t - B)_+ at points x, time t."""
    r = _radii(x)
    return spec.A * np.maximum(r + spec.omega * t - spec.B, 0.0)


def validate_wave_params(
    A: float, omega: float, B: float, R: float, m: float, n: int
) -> bool:
    """True iff the wave parameters satisfy the supersolution criterion."""
    require("R", R, 0.0)
    require("A", A, 0.0)
    in_range = R / 2.0 < B < R
    slope_ok = omega / A > 1.0 + 2.0 * (m - 1.0) * (n - 1) * (R - B) / R
    return bool(in_range and slope_ok)


def _ball_extremized(w: Evaluable, alpha: float, sign: float) -> Evaluable:
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")

    def _conv(x: np.ndarray, t) -> np.ndarray:
        late = t > 1.0 + 1e-12
        if np.any(late):
            raise InvalidTimeError(f"convolution radius negative for t = {_first(t, late)}")
        x = np.asarray(x, dtype=float)
        # on a trailing axis of length 1, like the norms n1 below
        radius = np.expand_dims(alpha * (1.0 - np.minimum(t, 1.0)), -1)
        # w is radial and monotone in |x|: its ball extrema lie at the points nearest
        # to and farthest from the origin (x is scaled so |x|^2 cannot under/overflow)
        s = np.maximum(np.abs(x[..., :1]), np.abs(x[..., -1:]))  # max |x_k|: d is 1 or 2
        x1 = np.where(s > 0.0, x / np.where(s > 0.0, s, 1.0), np.eye(x.shape[-1])[0])
        n1 = _radii(x1)[..., None]
        near = w(x - np.minimum(radius, s * n1) * (x1 / n1), t)
        far = w(x + radius * (x1 / n1), t)
        ext = np.maximum(near, far) if sign > 0 else np.minimum(near, far)
        return np.exp(-sign * alpha * t) * ext

    return _conv


def sup_convolution(w: Evaluable, alpha: float) -> Evaluable:
    """e^(-alpha t) * sup of w over the ball of radius alpha (1 - t); exact
    when w is radial about the origin and monotone in |x|."""
    return _ball_extremized(w, alpha, sign=+1.0)


def inf_convolution(w: Evaluable, alpha: float) -> Evaluable:
    """e^(+alpha t) * inf of w over the ball of radius alpha (1 - t); exact
    when w is radial about the origin and monotone in |x|."""
    return _ball_extremized(w, alpha, sign=-1.0)


def hyperbolic_rescale(w: Evaluable, spec: RescaleSpec) -> Evaluable:
    """u(x, t) = alpha * w(alpha^-1 (x - x0 + drift (t - t0)), alpha^-1 (t - t0)).

    Amplitudes shrink by alpha while gradients (hence boundary velocities)
    are preserved.  Evaluation is restricted to the cylinder
    |x - x0| <= alpha, t in [t0 - alpha, t0].
    """
    a = spec.alpha
    x0 = np.asarray(spec.x0, dtype=float)
    b = np.asarray(spec.drift, dtype=float)

    def _rescaled(x: np.ndarray, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dt = t - spec.t0
        out = (dt > 1e-9) | (dt < -a - 1e-9)
        if np.any(out):
            raise OutOfCylinderError(
                f"t = {_first(t, out)} outside [{spec.t0 - a}, {spec.t0}] for alpha = {a}"
            )
        rel = x - x0
        if np.any(dot_last(rel, rel) > a * a * (1.0 + 1e-9)):
            raise OutOfCylinderError(f"points outside the ball of radius {a} around {spec.x0}")
        return a * w((rel + b * np.expand_dims(dt, -1)) / a, dt / a)

    return _rescaled


def build_barrier(spec: BarrierSpec) -> Evaluable:
    """Turn a barrier parameter set into an evaluable space-time profile.

    Rescaled kinds are composed as convolution at strength C_pert * alpha in
    the unit scale followed by the hyperbolic rescale: inf convolution for
    the wave (supersolution side), sup convolution for the Barenblatt
    (subsolution side).
    """
    if isinstance(spec, BarenblattSpec):
        return lambda x, t: barenblatt(x, t, spec)
    if isinstance(spec, SphericalWaveSpec):
        return lambda x, t: spherical_wave(x, t, spec)
    if isinstance(spec, RescaledBarrierSpec):
        base = build_barrier(spec.base)
        strength = spec.rescale.C_pert * spec.rescale.alpha
        if isinstance(spec.base, SphericalWaveSpec):
            conv = inf_convolution(base, strength)
        else:
            conv = sup_convolution(base, strength)
        return hyperbolic_rescale(conv, spec.rescale)
    raise InvalidParameterError(f"unknown barrier spec {spec!r}")


@dataclass(frozen=True)
class SpaceTimeBox:
    """Axis-aligned sampling region: per-axis [lo, hi] plus a time window."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InvalidParameterError("lo and hi must have the same dimension")
        if not all(map(math.isfinite, (*self.lo, *self.hi, self.t_lo, self.t_hi))):
            raise InvalidParameterError(
                f"box bounds must be finite, got lo {self.lo}, hi {self.hi}, "
                f"t_lo {self.t_lo}, t_hi {self.t_hi}")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise InvalidParameterError("box must satisfy lo <= hi per axis")
        if self.t_lo > self.t_hi:
            raise InvalidParameterError("box must satisfy t_lo <= t_hi")


def _side(kind: str) -> float:
    """+1 for the subsolution check (r <= tol), -1 for the supersolution
    check (r >= -tol)."""
    if kind not in ("sub", "super"):
        raise InvalidParameterError(f"kind must be 'sub' or 'super', got {kind!r}")
    return 1.0 if kind == "sub" else -1.0


@dataclass(frozen=True)
class ResidualReport:
    """Sampled inequality residuals for one candidate profile.

    One residual of the pressure equation,
        r = u_t - (m-1) u Lap(u) - |grad u|^2 - grad u . grad Phi
            - (m-1) u Lap(Phi),
    read at the interior samples (u above the floor) and at the boundary
    samples (the floor's level set, where the free-boundary law is the
    limit of r = 0 as u -> 0).  Both checks read the same residuals: a
    subsolution ("sub") check passes when the worst residuals stay below
    +tol, a supersolution ("super") check when they stay above -tol; a
    check with no interior or no boundary sample fails.
    """

    tol: float
    interior_residuals: np.ndarray
    boundary_residuals: np.ndarray

    @property
    def interior_count(self) -> int:
        return int(self.interior_residuals.size)

    @property
    def boundary_count(self) -> int:
        return int(self.boundary_residuals.size)

    def worst(self, kind: str) -> tuple[float, float]:
        """The worst (interior, boundary) residuals of the ``kind`` check,
        the largest for "sub" and the smallest for "super"; 0.0 where there
        is no sample."""
        pick = np.max if _side(kind) > 0 else np.min
        return tuple(float(pick(v)) if v.size else 0.0
                     for v in (self.interior_residuals, self.boundary_residuals))

    def passed(self, kind: str) -> bool:
        worst = max(_side(kind) * w for w in self.worst(kind))
        return self.interior_count > 0 and self.boundary_count > 0 and worst <= self.tol


def _lattice(lo: float, hi: float, step: float) -> np.ndarray:
    steps = (hi - lo) / step + 1e-9
    if not steps < math.inf:
        raise InvalidParameterError(
            f"box extent [{lo}, {hi}] at h_s {step} gives a lattice point count "
            f"that overflows a float")
    n = int(np.floor(steps)) + 1
    try:
        x = lo + np.arange(n) * step
        if len(x) == n:  # np.arange(2**63) returns an empty array
            return x
    except (ValueError, MemoryError):  # numpy refuses the size, or cannot allocate it
        pass
    raise InvalidParameterError(
        f"box extent [{lo}, {hi}] at h_s {step} gives a lattice of {n} points, "
        f"more than numpy can allocate")


def _derivatives(
    candidate: Evaluable,
    pot: Potential,
    pts: np.ndarray,
    u0: np.ndarray,
    t,
    h_s: float,
    m: float,
) -> np.ndarray:
    """The residual r of the pressure equation by centered differences at
    sample points pts, of shape (k, dim), where u0 = candidate(pts, t) and
    t is one float or one time per sample.

    The shifted points pts +- h_s e_k go into one work copy of pts: each
    shift rewrites column k only, and the column is restored after, so the
    candidate must not keep a view of its input.  The other columns hold
    pts's own values, which equal pts + 0.0 since no sample coordinate is
    -0.0 (a lattice value lo + i h_s is +0.0 where it is zero, and so is a
    crossing x_i + theta (x_(i+1) - x_i)).  The gradients are taken one axis
    at a time, grad Phi by ``pot.grad`` on the coordinate column, and their
    products summed onto +0.0 in axis order, which rounds as ``dot_last``.
    """
    def u(x, at):  # the candidate's values as floats, as u0 is
        return np.asarray(candidate(x, at), dtype=float)

    dt = h_s * h_s
    u_t = (u(pts, t + dt) - u(pts, t - dt)) / (2.0 * dt)
    two_u0 = 2.0 * u0
    # Lap(u), Lap(Phi), |grad u|^2 and grad u . grad Phi
    lap, lap_phi, grad_sq, transport = np.zeros((4,) + u0.shape)
    work = pts.copy()
    for k in range(pts.shape[-1]):
        x = pts[:, k]
        x_up, x_um = x + h_s, x - h_s
        work[:, k] = x_up
        up = u(work, t)
        work[:, k] = x_um
        um = u(work, t)
        work[:, k] = x
        lap += (up - two_u0 + um) / dt
        lap_phi += (pot.grad(x_up) - pot.grad(x_um)) / (2.0 * h_s)
        grad = (up - um) / (2.0 * h_s)
        grad_sq += grad * grad
        transport += grad * pot.grad(x)
    # r = u_t - (m-1) u0 Lap(u) - |grad u|^2 - grad u . grad Phi - (m-1) u0 Lap(Phi),
    # term by term in u_t's buffer
    mu0 = (m - 1.0) * u0
    lap *= mu0
    lap_phi *= mu0
    np.subtract(u_t, lap, out=u_t)
    u_t -= grad_sq
    u_t -= transport
    u_t -= lap_phi
    return u_t


_BATCH_POINTS = 16384  # lattice points per batch of time levels


def residual_pmed(
    candidate: Evaluable,
    pot: Potential,
    box: SpaceTimeBox,
    h_s: float,
    m: float,
) -> ResidualReport:
    """Sample the sub/supersolution inequalities of the pressure equation.

    The candidate must be evaluable on the box enlarged by h_s in space and
    h_s^2 in time.  One residual, that of ``ResidualReport``, is read at the
    interior samples, the lattice points with u above the floor 10 h_s, and
    at the boundary samples, every crossing of the floor by a lattice line.
    The tolerance is 50 (1 + max u) h_s.

    One call, before the first batch, checks the candidate's domain at the
    lattice's corners moved outward by h_s along each axis, at the first
    and the last level, and at the corners themselves at t -+ h_s^2 past
    those levels.  On a domain convex in space and an interval in time (see
    the module docstring) these bound every point that differences over the
    whole lattice evaluate, so a box whose enlargement leaves the domain
    raises as if every point were differenced.

    Consecutive time levels are then taken as one batch of at most
    ``_BATCH_POINTS`` lattice points, or one level when its lattice is
    larger: 4 + 2 dim calls per batch.  The candidate is evaluated on the
    whole lattice of every level, with one time per level, and at the
    crossings; then differences, at t +- h_s^2 and x +- h_s e_k, are taken
    in one pass over the interior samples followed by the crossings, each
    at its own level's t.  The crossings and the differences take one time
    per sample, or a float when the batch is one level.  The candidate must
    act on each point alone, as every profile here does: the residuals are
    then bit for bit those of differences over the whole lattice,
    restricted to the samples read, in level order.
    """
    require("h_s", h_s, 0.0)
    require("m", m, 1.0)
    floor = 10.0 * h_s

    axes = [_lattice(lo, hi, h_s) for lo, hi in zip(box.lo, box.hi)]
    times = _lattice(box.t_lo, box.t_hi, h_s)
    try:
        grids = np.meshgrid(*axes, indexing="ij")  # each axis's coordinate at every point
        pts = np.stack(grids, axis=-1)
    except (ValueError, MemoryError):
        raise InvalidParameterError(
            f"box {box.lo} .. {box.hi} at h_s {h_s} gives a lattice of "
            f"{' x '.join(str(len(x)) for x in axes)} points, more than numpy can allocate"
        ) from None
    dim = pts.shape[-1]
    # the domain probe: each of its points is one that differences over the
    # whole lattice evaluate
    high = np.indices((2,) * dim).reshape(dim, -1).T  # per corner, 1 at an axis's high end
    corners = np.array([(x[0], x[-1]) for x in axes])[np.arange(dim), high]
    outward = np.where(high, h_s, -h_s)[:, None] * np.eye(dim)  # (corner, k, axis)
    faces = (corners[:, None] + outward).reshape(-1, dim)
    t_lo, t_hi, dt = times[0], times[-1], h_s * h_s
    candidate(np.concatenate((faces, faces, corners, corners)),
              np.repeat([t_lo, t_hi, t_lo - dt, t_hi + dt], [len(faces)] * 2 + [len(corners)] * 2))
    per_batch = max(1, _BATCH_POINTS // (pts.size // dim))

    int_res, bd_res = [], []
    u_max = 0.0
    for start in range(0, len(times), per_batch):
        tb = times[start:start + per_batch]
        t = tb.reshape(tb.shape + (1,) * dim)  # against (levels, *lattice)
        lattice = np.broadcast_to(pts, tb.shape + pts.shape)
        u0 = np.asarray(candidate(lattice, t), dtype=float)
        u_max = max(u_max, float(u0.max(initial=0.0)))
        inside = u0 > floor
        found = [level_crossings(level, axes, floor) for level in u0]
        crossings = np.concatenate(found)
        # interior samples per level, and their coordinates gathered per axis
        counts = np.count_nonzero(inside.reshape(len(tb), -1), axis=1)
        n = int(counts.sum())
        samples = np.empty((n + len(crossings), dim))
        for k, grid in enumerate(grids):
            samples[:n, k] = np.broadcast_to(grid, inside.shape)[inside]
        samples[n:] = crossings
        if len(tb) == 1:  # a float spares the profiles per-sample work, such as pow
            t_cross = t_at = float(tb[0])
        else:
            t_cross = np.repeat(tb, [len(f) for f in found])
            t_at = np.concatenate((np.repeat(tb, counts), t_cross))
        u_at = np.concatenate((u0[inside], np.asarray(candidate(crossings, t_cross), dtype=float)))
        r = _derivatives(candidate, pot, samples, u_at, t_at, h_s, m)
        int_res.append(r[:n])
        bd_res.append(r[n:])

    interior, boundary = np.concatenate(int_res), np.concatenate(bd_res)
    if not (np.all(np.isfinite(interior)) and np.all(np.isfinite(boundary))):
        raise InvalidInputError("candidate produced non-finite residuals")
    tol = 50.0 * (1.0 + u_max) * h_s
    return ResidualReport(tol=tol, interior_residuals=interior, boundary_residuals=boundary)
