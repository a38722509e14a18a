"""Support-boundary extraction, Hausdorff diagnostics, and equilibria.

The discrete stand-in for the boundary of the positivity set is the
epsilon-crossing cloud of a field: in 1D the linearly interpolated interval
endpoints, in 2D the marching-squares-style edge crossings between adjacent
cell centers.  Equilibrium pressures (C - Phi)_+ are pinned down by
conserving the density mass; the constant is found by bisection on the
(continuous, nondecreasing) discrete mass map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    level_crossings,
    pressure_from_density,
    ring,
)
from .errors import (
    BoundaryGapError,
    DomainTooSmallError,
    EmptyBoundarySetError,
    InvalidInputError,
    InvalidParameterError,
    PmedError,
)
from .solver import Trajectory

__all__ = [
    "extract_boundary",
    "default_support_threshold",
    "hausdorff",
    "equilibrium_constant",
    "EquilibriumProfile",
    "equilibrium_profile",
    "sublevel_shell_check",
    "VelocitySample",
    "boundary_velocity",
]


def default_support_threshold(f: Field) -> float:
    """Grid-scale threshold min(10 h |f|_inf / L, |f|_inf / 2); the cap serves coarse grids."""
    return min(10.0 * f.grid.h * f.max() / f.grid.extent, 0.5 * f.max())


def extract_boundary(f: Field, eps_fb: float | None = None) -> np.ndarray:
    """Crossing points of the eps_fb level between adjacent cell centers.

    The threshold defaults to the grid scale of default_support_threshold;
    the scheme smears the support edge over a few cells, so thresholds well
    below that scale probe the numerical tail rather than the front.
    Returns the points as a (k, dim) array, empty (not an error) when the
    field never exceeds the threshold.  Point ordering is deterministic:
    axis-0 edges before axis-1 edges in 2D, each in row-major order.
    """
    if eps_fb is None:
        if f.max() == 0.0:
            return np.empty((0, f.grid.dim))
        eps_fb = default_support_threshold(f)
    if not eps_fb > 0.0:
        raise InvalidParameterError(f"eps_fb must be > 0, got {eps_fb}")
    ax = f.grid.axis_centers()
    return level_crossings(f.values, (ax,) * f.grid.dim, eps_fb)


_ROWS = 128  # rows per distance block: 128 x 1k points is 1 MB per temporary


def _sq_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Squared distances between the rows of a (k, dim) and b (l, dim), as
    (row slice of a, block of shape (rows, l)) over fixed row blocks, so
    the whole (k, l) matrix is never held."""
    for start in range(0, len(a), _ROWS):
        rows = a[start:start + _ROWS]
        yield slice(start, start + len(rows)), sum(
            (rows[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1]))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two nonempty (k, dim) point clouds."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyBoundarySetError("hausdorff requires nonempty boundary sets")
    a_to_b, b_to_a = 0.0, None  # largest row minimum; running column minima
    for _, d2 in _sq_distance_blocks(a, b):
        a_to_b = max(a_to_b, d2.min(axis=1).max())
        b_to_a = d2.min(axis=0) if b_to_a is None else np.minimum(b_to_a, d2.min(axis=0))
    # sqrt is monotone and correctly rounded: one root at the end is exact
    return float(np.sqrt(max(a_to_b, b_to_a.max())))


def _discrete_mass(c: float, phi: np.ndarray, m: float, vol: float, out=None) -> float:
    u = np.maximum(np.subtract(c, phi, out=out), 0.0, out=out)
    rho = np.power(np.multiply((m - 1.0) / m, u, out=out), 1.0 / (m - 1.0), out=out)
    return vol * float(np.sum(rho))


def equilibrium_constant(
    target_mass: float, pot: Potential, m: float, grid: Grid
) -> float:
    """Level C such that the density of (C - Phi)_+ carries the target mass.

    Bisection on the discrete mass map M(C) (continuous and nondecreasing on
    a fixed grid); the bracket is grown geometrically from the lower of the
    grid minimum of Phi and its computed minimum, where M vanishes.  Runs to
    |M(C) - target| <= 1e-10 target.  Raises UnsupportedPotentialError
    unless Phi is strictly convex.
    """
    if not target_mass > 0.0:
        raise InvalidParameterError(f"target_mass must be > 0, got {target_mass}")
    if not m > 1.0:
        raise InvalidParameterError(f"m must be > 1, got {m}")
    phi = np.asarray(pot.eval(grid.centers()), dtype=float)
    phi_min = min(float(phi.min()), pot.min_value())
    buf = np.empty_like(phi)  # for _discrete_mass: no grid-sized temporaries per step

    # capacity check: the support {Phi < C} must stay off the boundary ring
    c_cap = float(ring(phi, 1).min())
    if _discrete_mass(c_cap, phi, m, grid.cell_volume, buf) < target_mass:
        raise DomainTooSmallError(
            f"target mass {target_mass} needs a level beyond the box capacity"
        )

    lo, hi = phi_min, phi_min + 1.0
    while _discrete_mass(hi, phi, m, grid.cell_volume, buf) < target_mass:
        lo = hi
        hi = phi_min + 2.0 * (hi - phi_min)
    hi = min(hi, c_cap)
    tol = 1e-10 * target_mass
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        value = _discrete_mass(mid, phi, m, grid.cell_volume, buf)
        if abs(value - target_mass) <= tol:
            return mid
        if value < target_mass:
            lo = mid
        else:
            hi = mid
        if hi - lo <= np.finfo(float).eps * max(1.0, abs(hi)):
            break
    raise PmedError("equilibrium bisection failed to meet the mass tolerance")


@dataclass(frozen=True)
class EquilibriumProfile:
    """Stationary pressure (C_inf - Phi)_+ with its (k, dim) boundary points."""

    c_inf: float
    pressure: Field
    boundary: np.ndarray


def equilibrium_profile(
    target_mass: float,
    pot: Potential,
    m: float,
    grid: Grid,
    eps_fb: float | None = None,
) -> EquilibriumProfile:
    c = equilibrium_constant(target_mass, pot, m, grid)
    phi = np.asarray(pot.eval(grid.centers()), dtype=float)
    u = np.maximum(c - phi, 0.0)
    if np.any(ring(u, 1) > 0.0):
        raise DomainTooSmallError("equilibrium support reaches the box edge")
    pressure = Field(grid, u, FieldVariable.PRESSURE)
    return EquilibriumProfile(
        c_inf=c, pressure=pressure, boundary=extract_boundary(pressure, eps_fb)
    )


def sublevel_shell_check(
    points: np.ndarray, pot: Potential, c_inf: float, eps: float
) -> bool:
    """True iff every point sits in the shell C_inf - eps <= Phi <= C_inf + eps."""
    if len(points) == 0:
        raise EmptyBoundarySetError("shell check requires a nonempty boundary set")
    vals = np.asarray(pot.eval(points), dtype=float)
    return bool(np.all(vals >= c_inf - eps) and np.all(vals <= c_inf + eps))


@dataclass(frozen=True)
class VelocitySample:
    """Per-snapshot boundary kinematics: normal velocities and law defects."""

    t: float
    normal_velocity: np.ndarray
    law_residual: np.ndarray


def boundary_velocity(traj: Trajectory, eps_fb: float) -> list[VelocitySample]:
    """Normal-velocity estimates against the free-boundary law.

    Velocity: displacement from the nearest point of the previous boundary,
    projected on the outward normal, divided by the snapshot spacing.
    Law value: |grad u| + grad Phi . grad u / |grad u| with the pressure
    gradient taken by central differences a few up-gradient cells inside
    the support (grad u / |grad u| is the inward normal).  Residuals are
    O(h + dt_snap) wherever the gradient stays away from zero.
    """
    if len(traj.snapshots) < 3:
        raise InvalidInputError("boundary_velocity needs at least 3 snapshots")
    cfg = traj.config
    boundaries = [extract_boundary(snap.field, eps_fb) for snap in traj.snapshots]
    gaps = [snap.t for snap, b in zip(traj.snapshots, boundaries) if len(b) == 0]
    if gaps:
        raise BoundaryGapError(gaps)

    samples: list[VelocitySample] = []
    for k in range(1, len(traj.snapshots)):
        snap = traj.snapshots[k]
        prev = boundaries[k - 1]
        cur = boundaries[k]
        dt_snap = snap.t - traj.snapshots[k - 1].t
        u = pressure_from_density(snap.field, cfg.m)
        nearest = np.empty_like(cur)
        for rows, d2 in _sq_distance_blocks(cur, prev):
            nearest[rows] = prev[np.argmin(d2, axis=1)]
        vels, resids = [], []
        for p, q in zip(cur, nearest):
            found = _interior_gradient(u, p, eps_fb)
            if found is None:
                continue
            grad, where = found
            norm = float(np.sqrt(np.sum(grad * grad)))
            n_hat = -grad / norm
            v_n = float(np.dot(p - q, n_hat)) / dt_snap
            # grad Phi sampled where grad u is sampled, so the two gradients
            # cancel coherently on near-stationary profiles
            g_phi = np.asarray(cfg.potential.grad(where), dtype=float)
            law = norm + float(np.dot(g_phi, grad)) / norm
            vels.append(v_n)
            resids.append(v_n - law)
        samples.append(
            VelocitySample(
                t=snap.t,
                normal_velocity=np.asarray(vels),
                law_residual=np.asarray(resids),
            )
        )
    return samples


def _interior_gradient(
    u: Field, p: np.ndarray, eps_fb: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Central-difference pressure gradient just inside the support near p.

    Starts at the cell nearest to p (kept off the outermost ring) and takes
    up to 3 steps to its largest neighbour, in the order +axis0, -axis0,
    +axis1, -axis1, while that rises; this leaves the scheme's smeared
    collar before differencing.  Returns (gradient, stencil location) or
    None when no usable interior stencil exists.
    """
    grid = u.grid
    v = u.values
    n = grid.n_cells

    def clamp(cell):
        return tuple(min(max(i, 1), n - 2) for i in cell)

    def shifted(cell, axis, step):
        return tuple(i + step if a == axis else i for a, i in enumerate(cell))

    cell = clamp(grid.index_of_coord(float(x)) for x in p)
    moves = [(axis, step) for axis in range(grid.dim) for step in (1, -1)]
    for _ in range(3):
        best = max((shifted(cell, *mv) for mv in moves), key=lambda c: v[c])
        if v[best] <= v[cell]:
            break
        cell = clamp(best)
    if v[cell] <= eps_fb:
        return None
    grad = np.array([
        (v[shifted(cell, axis, 1)] - v[shifted(cell, axis, -1)]) / (2.0 * grid.h)
        for axis in range(grid.dim)
    ])
    if np.all(grad == 0.0):
        return None
    return grad, np.array([grid.coord_of_index(i) for i in cell])
