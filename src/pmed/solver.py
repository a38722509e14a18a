"""Mass-conservative explicit stepping for the density equation.

The density form

    rho_t = div( grad(rho^m) + rho grad Phi )

is discretized in flux form on the uniform cell grid: per axis, the
interface flux is

    F_{i+1/2} = ( (rho^m)_{i+1} - (rho^m)_i ) / h  +  rho_up * g_{i+1/2},

with g_{i+1/2} = (Phi_{i+1} - Phi_i)/h and rho_up taken from the cell the
drift flows out of (the drift velocity is -g).  The update

    rho'_i = rho_i + dt/h * (F_{i+1/2} - F_{i-1/2})

telescopes, so total mass is conserved to rounding as long as the support
stays away from the box edge (enforced: two empty cell rings).  Explicit
stepping under the CFL limit keeps the update positivity-preserving;
negative values can only arise from rounding and are clipped, with the
clipped mass tracked per run.

All reductions are fixed-order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Field, FieldVariable, Grid, Potential, dot_last, ring
from .errors import (
    DomainOverflowError,
    InvalidInputError,
    InvalidParameterError,
    PmedError,
    StepTooLargeError,
)

__all__ = [
    "SolverConfig",
    "Snapshot",
    "Trajectory",
    "StepReport",
    "cfl_dt",
    "step_density_report",
    "simulate",
    "SpaceTimeTestFunction",
    "weak_residual",
    "ComparisonReport",
    "comparison_harness",
]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SolverConfig:
    """Physics and run parameters for one simulation."""

    m: float
    potential: Potential
    t_end: float
    snapshot_every: float
    cfl_safety: float = 0.4

    def __post_init__(self):
        if not self.m > 1.0:
            raise InvalidParameterError(f"m must be > 1, got {self.m}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidParameterError(
                f"cfl_safety must be in (0, 1], got {self.cfl_safety}"
            )
        if not self.t_end > 0.0:
            raise InvalidParameterError(f"t_end must be > 0, got {self.t_end}")
        if not self.snapshot_every > 0.0:
            raise InvalidParameterError(
                f"snapshot_every must be > 0, got {self.snapshot_every}"
            )


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: Field
    mass: float
    clipped_cum: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered density snapshots with conservation accounting."""

    snapshots: tuple[Snapshot, ...]
    config: SolverConfig
    dt_max: float

    def __post_init__(self):
        if not self.snapshots:
            raise InvalidInputError("trajectory needs at least one snapshot")
        ts = [s.t for s in self.snapshots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError("snapshot timestamps must be strictly increasing")
        m0 = self.snapshots[0].mass
        if m0 > 0.0:
            drift = max(abs(s.mass - m0) for s in self.snapshots)
            if drift > 1e-10 * m0:
                raise InvalidInputError(
                    f"mass drift {drift / m0:.3e} (relative) exceeds 1e-10"
                )

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def clipped_total(self) -> float:
        return self.snapshots[-1].clipped_cum

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]


@dataclass(frozen=True)
class StepReport:
    field: Field
    clipped_mass: float


class _DriftContext:
    """Per-(grid, potential) precomputed drift data: interface gradients of
    Phi along each axis and gradient norms at cell centers."""

    def __init__(self, grid: Grid, potential: Potential):
        phi = np.asarray(potential.eval(grid.centers()), dtype=float)
        self.g = tuple(np.diff(phi, axis=a) / grid.h for a in range(grid.dim))
        grad = np.asarray(potential.grad(grid.centers()), dtype=float)
        self.grad_norms = np.sqrt(dot_last(grad, grad))


@lru_cache(maxsize=32)
def _drift_context(grid: Grid, potential: Potential) -> _DriftContext:
    return _DriftContext(grid, potential)


def _support_margin_ok(v: np.ndarray, v_top: float) -> bool:
    # "support" at machine scale: values above 1e-12 of the current max v_top
    return not np.any(ring(v, 2) > 1e-12 * v_top)


def _cfl_dt_values(
    v: np.ndarray, v_top: float, grid: Grid, cfg: SolverConfig, ctx: _DriftContext
) -> float:
    """cfl_dt on raw values; ``v_top`` is ``v.max()``, which the caller
    computes once per step and shares with ``_support_margin_ok``."""
    d_max = cfg.m * v_top ** (cfg.m - 1.0) if v_top > 0.0 else 0.0
    v_max = float(np.max(ctx.grad_norms, where=v > 0.0, initial=0.0))
    v_max = max(v_max, _TINY)
    dt_diff = grid.h**2 / (2.0 * grid.dim * d_max) if d_max > 0.0 else np.inf
    dt_adv = grid.h / (2.0 * grid.dim * v_max)
    dt = cfg.cfl_safety * min(dt_diff, dt_adv)
    return float(min(dt, cfg.snapshot_every))


def cfl_dt(rho: Field, cfg: SolverConfig) -> float:
    """Largest stable explicit step, capped at the snapshot cadence.

    dt = cfl_safety * min( h^2 / (2 dim D_max), h / (2 dim V_max) ) with
    D_max = max m rho^(m-1) and V_max = max |grad Phi| over the support
    (floored at machine-tiny so the empty field stays finite).
    """
    ctx = _drift_context(rho.grid, cfg.potential)
    return _cfl_dt_values(rho.values, float(rho.values.max()), rho.grid, cfg, ctx)


def _flux_divergence(v: np.ndarray, grid: Grid, m: float, ctx: _DriftContext) -> np.ndarray:
    """(F_{i+1/2} - F_{i-1/2}) / h per cell.

    Interfaces touching the outermost cell ring carry zero flux, so the ring
    stays identically zero (the field invariant) and the effective no-flux
    wall sits one cell inside the box.  Mass still telescopes exactly.
    """
    h = grid.h
    rm = np.power(v, m)
    every = (slice(None),) * v.ndim
    div = None
    for a, g in enumerate(ctx.g):
        lo = every[:a] + (slice(None, -1),)
        hi = every[:a] + (slice(1, None),)
        f = (rm[hi] - rm[lo]) / h + np.where(g > 0.0, v[hi], v[lo]) * g
        for b in range(v.ndim):
            f[every[:b] + (0,)] = 0.0
            f[every[:b] + (-1,)] = 0.0
        d = np.zeros_like(v)
        d[every[:a] + (slice(1, -1),)] = np.diff(f, axis=a)
        div = d if div is None else div + d  # axis 0 first, as a fixed order
    return div / h


def _step_values(
    v: np.ndarray, v_top: float, grid: Grid, cfg: SolverConfig, ctx: _DriftContext, dt: float
) -> tuple[np.ndarray, float]:
    if not _support_margin_ok(v, v_top):
        raise DomainOverflowError("support within two cells of the box edge")
    new = v + dt * _flux_divergence(v, grid, cfg.m, ctx)
    neg = new < 0.0
    clipped = -grid.cell_volume * float(np.sum(new[neg])) if np.any(neg) else 0.0
    if clipped > 0.0:
        new = np.where(neg, 0.0, new)
    return new, clipped


def step_density_report(rho: Field, cfg: SolverConfig, dt: float) -> StepReport:
    """One explicit flux-form step of size dt (dt must respect cfl_dt).

    Reports the mass removed by clipping rounding-level negative values.
    """
    if rho.variable is not FieldVariable.DENSITY:
        raise InvalidInputError("step_density_report expects a density field")
    ctx = _drift_context(rho.grid, cfg.potential)
    v_top = float(rho.values.max())
    dt_max = _cfl_dt_values(rho.values, v_top, rho.grid, cfg, ctx)
    if dt > dt_max * (1.0 + 1e-9):
        raise StepTooLargeError(f"dt = {dt} exceeds stability limit {dt_max}")
    new, clipped = _step_values(rho.values, v_top, rho.grid, cfg, ctx, dt)
    return StepReport(
        field=Field(rho.grid, new, FieldVariable.DENSITY, cfg.m), clipped_mass=clipped
    )


def simulate(rho0: Field, cfg: SolverConfig) -> Trajectory:
    """Step with cfl_dt, recording snapshots at multiples of snapshot_every.

    The run ends at the largest snapshot multiple <= t_end; if t_end is
    smaller than the cadence, no step is taken and only the initial snapshot
    is returned.
    """
    if rho0.variable is not FieldVariable.DENSITY:
        raise InvalidInputError("simulate expects a density field")
    if not _support_margin_ok(rho0.values, float(rho0.values.max())):
        raise DomainOverflowError("initial support within two cells of the box edge")
    grid = rho0.grid
    ctx = _drift_context(grid, cfg.potential)
    vol = grid.cell_volume

    v = rho0.values.copy()
    snaps = [Snapshot(0.0, rho0, vol * float(np.sum(v)), 0.0)]
    clipped_cum = 0.0
    dt_max = 0.0
    n_targets = int(np.floor(cfg.t_end / cfg.snapshot_every + 1e-9))
    t = 0.0
    for k in range(1, n_targets + 1):
        target = k * cfg.snapshot_every
        while t < target * (1.0 - 1e-14):
            v_top = float(v.max())  # the one full-field max of this step
            dt = min(_cfl_dt_values(v, v_top, grid, cfg, ctx), target - t)
            if not dt > 0.0:
                raise PmedError(f"stepping stalled at t = {t}")
            try:
                v, clipped = _step_values(v, v_top, grid, cfg, ctx, dt)
            except PmedError as exc:
                raise type(exc)(f"{exc} (at t = {t:.9g})") from None
            clipped_cum += clipped
            dt_max = max(dt_max, dt)
            t += dt
            if abs(t - target) <= 1e-12 * max(1.0, target):
                t = target
        t = target
        field = Field(grid, v, FieldVariable.DENSITY, cfg.m)
        snaps.append(Snapshot(t, field, vol * float(np.sum(v)), clipped_cum))
    return Trajectory(tuple(snaps), cfg, dt_max)


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Smooth space-time test function with analytically supplied derivatives.

    Each callable maps (points of shape (..., dim), time) to arrays: value,
    time derivative and Laplacian of shape (...), gradient of shape
    (..., dim).
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    dt: Callable[[np.ndarray, float], np.ndarray]
    grad: Callable[[np.ndarray, float], np.ndarray]
    lap: Callable[[np.ndarray, float], np.ndarray]

    @staticmethod
    def constant(c: float = 1.0) -> "SpaceTimeTestFunction":
        return SpaceTimeTestFunction(
            value=lambda x, t: np.full(np.asarray(x).shape[:-1], c),
            dt=lambda x, t: np.zeros(np.asarray(x).shape[:-1]),
            grad=lambda x, t: np.zeros(np.asarray(x).shape),
            lap=lambda x, t: np.zeros(np.asarray(x).shape[:-1]),
        )


def weak_residual(traj: Trajectory, phi: SpaceTimeTestFunction) -> float:
    """Defect of the integral identity of the divergence-form equation.

    residual = | int rho(T) phi(T) - int rho(0) phi(0)
                - int_0^T int ( rho phi_t + rho^m Lap(phi)
                                - rho grad Phi . grad phi ) |

    with midpoint quadrature in space and trapezoid quadrature over the
    snapshot times.  For a valid run this is O(h + dt).
    """
    cfg = traj.config
    grid = traj.snapshots[0].field.grid
    pts = grid.centers()
    vol = grid.cell_volume
    g_phi = np.asarray(cfg.potential.grad(pts), dtype=float)

    boundary_terms = []
    interior_terms = []
    for snap in traj.snapshots:
        rho = snap.field.values
        t = snap.t
        boundary_terms.append(vol * float(np.sum(rho * phi.value(pts, t))))
        integrand = (
            rho * phi.dt(pts, t)
            + np.power(rho, cfg.m) * phi.lap(pts, t)
            - rho * dot_last(g_phi, phi.grad(pts, t))
        )
        interior_terms.append(vol * float(np.sum(integrand)))

    ts = [s.t for s in traj.snapshots]
    spacetime = 0.0
    for k in range(len(ts) - 1):
        spacetime += (ts[k + 1] - ts[k]) * 0.5 * (interior_terms[k] + interior_terms[k + 1])
    return abs(boundary_terms[-1] - boundary_terms[0] - spacetime)


@dataclass(frozen=True)
class ComparisonReport:
    ordered: bool
    max_violation: float
    first_violation_time: float | None
    tol_order: float


def comparison_harness(
    rho0_lo: Field, rho0_hi: Field, cfg: SolverConfig
) -> ComparisonReport:
    """Run both initial data and check that ordering is preserved.

    The discrete scheme cannot reproduce the exact ordering theorem, so the
    ordering tolerance scales with the discretization:
    tol_order = 10 (h + dt_max).
    """
    if rho0_lo.grid != rho0_hi.grid:
        raise InvalidInputError("comparison requires a common grid")
    if np.any(rho0_lo.values > rho0_hi.values):
        raise InvalidInputError("initial data not ordered: rho_lo > rho_hi somewhere")
    traj_lo = simulate(rho0_lo, cfg)
    traj_hi = simulate(rho0_hi, cfg)
    tol = 10.0 * (rho0_lo.grid.h + max(traj_lo.dt_max, traj_hi.dt_max))
    worst = -np.inf
    first_violation = None
    for lo, hi in zip(traj_lo.snapshots, traj_hi.snapshots):
        v = float(np.max(lo.field.values - hi.field.values))
        if v > tol and first_violation is None:
            first_violation = lo.t
        worst = max(worst, v)
    return ComparisonReport(
        ordered=first_violation is None,
        max_violation=worst,
        first_violation_time=first_violation,
        tol_order=tol,
    )
