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
    UnsupportedPotentialError,
)
from .solver import Trajectory

__all__ = [
    "BoundarySet",
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


@dataclass(frozen=True)
class BoundarySet:
    """Finite point cloud approximating the support boundary of one field."""

    points: np.ndarray  # (k, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 1)
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def empty(self) -> bool:
        return len(self) == 0


def default_support_threshold(f: Field) -> float:
    """Grid-scale default for the support threshold: 10 h ||f||_inf / L."""
    return 10.0 * f.grid.h * f.max() / f.grid.extent


def extract_boundary(f: Field, eps_fb: float | None = None) -> BoundarySet:
    """Crossing points of the eps_fb level between adjacent cell centers.

    The threshold defaults to the grid scale (10 h ||f||_inf / L); the
    scheme smears the support edge over a few cells, so thresholds well
    below that scale probe the numerical tail rather than the front.
    Returns an empty set (not an error) when the field never exceeds the
    threshold.  Point ordering is deterministic: axis-0 edges before axis-1
    edges in 2D, each in row-major order.
    """
    if eps_fb is None:
        if f.max() == 0.0:
            return BoundarySet(points=np.empty((0, f.grid.dim)))
        eps_fb = default_support_threshold(f)
    if not eps_fb > 0.0:
        raise InvalidParameterError(f"eps_fb must be > 0, got {eps_fb}")
    ax = f.grid.axis_centers()
    arr = level_crossings(f.values, (ax,) * f.grid.dim, eps_fb)
    return BoundarySet(points=arr)


def hausdorff(aset: BoundarySet, bset: BoundarySet) -> float:
    """Symmetric Hausdorff distance between two nonempty point clouds."""
    if aset.empty or bset.empty:
        raise EmptyBoundarySetError("hausdorff requires nonempty boundary sets")
    a = aset.points
    b = bset.points
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    d_ab = float(dist.min(axis=1).max())
    d_ba = float(dist.min(axis=0).max())
    return max(d_ab, d_ba)


def _discrete_mass(c: float, phi: np.ndarray, m: float, cell_volume: float) -> float:
    u = np.maximum(c - phi, 0.0)
    rho = np.power(((m - 1.0) / m) * u, 1.0 / (m - 1.0))
    return cell_volume * float(np.sum(rho))


def equilibrium_constant(
    target_mass: float, pot: Potential, m: float, grid: Grid
) -> float:
    """Level C such that the density of (C - Phi)_+ carries the target mass.

    Bisection on the discrete mass map M(C) (continuous and nondecreasing on
    a fixed grid); the bracket is grown geometrically from the potential
    minimum.  Runs to |M(C) - target| <= 1e-10 target.
    """
    if not target_mass > 0.0:
        raise InvalidParameterError(f"target_mass must be > 0, got {target_mass}")
    if not m > 1.0:
        raise InvalidParameterError(f"m must be > 1, got {m}")
    if not pot.strictly_convex:
        raise UnsupportedPotentialError(
            "equilibrium profiles need a strictly convex potential"
        )
    phi = np.asarray(pot.eval(grid.centers()), dtype=float)
    phi_min = pot.min_value() if pot.min_point is not None else float(phi.min())
    vol = grid.cell_volume

    # capacity check: the support {Phi < C} must stay off the boundary ring
    c_cap = float(ring(phi, 1).min())
    if _discrete_mass(c_cap, phi, m, vol) < target_mass:
        raise DomainTooSmallError(
            f"target mass {target_mass} needs a level beyond the box capacity"
        )

    lo, hi = phi_min, phi_min + 1.0
    while _discrete_mass(hi, phi, m, vol) < target_mass:
        lo = hi
        hi = phi_min + 2.0 * (hi - phi_min)
    hi = min(hi, c_cap)
    tol = 1e-10 * target_mass
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        value = _discrete_mass(mid, phi, m, vol)
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
    """Stationary pressure (C_inf - Phi)_+ with its boundary point cloud."""

    c_inf: float
    pressure: Field
    boundary: BoundarySet


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
    pressure = Field(grid, u, FieldVariable.PRESSURE, m)
    thresh = eps_fb if eps_fb is not None else default_support_threshold(pressure)
    return EquilibriumProfile(
        c_inf=c, pressure=pressure, boundary=extract_boundary(pressure, thresh)
    )


def sublevel_shell_check(
    bset: BoundarySet, pot: Potential, c_inf: float, eps: float
) -> bool:
    """True iff every boundary point sits in the shell C_inf - eps <= Phi <= C_inf + eps."""
    if bset.empty:
        raise EmptyBoundarySetError("shell check requires a nonempty boundary set")
    vals = np.asarray(pot.eval(bset.points), dtype=float)
    return bool(np.all(vals >= c_inf - eps) and np.all(vals <= c_inf + eps))


@dataclass(frozen=True)
class VelocitySample:
    """Per-snapshot boundary kinematics: normal velocities and law defects."""

    t: float
    points: np.ndarray
    normal_velocity: np.ndarray
    law_residual: np.ndarray


def boundary_velocity(traj: Trajectory, eps_fb: float) -> list[VelocitySample]:
    """Normal-velocity estimates against the free-boundary law.

    Velocity: nearest-point displacement between consecutive boundary sets,
    projected on the outward normal, divided by the snapshot spacing.
    Law value: |grad u| + grad Phi . grad u / |grad u| with the pressure
    gradient taken by one-sided differences a couple of cells inside the
    support (grad u / |grad u| is the inward normal).  Residuals are
    O(h + dt_snap) wherever the gradient stays away from zero.
    """
    if len(traj.snapshots) < 3:
        raise InvalidInputError("boundary_velocity needs at least 3 snapshots")
    cfg = traj.config
    boundaries = []
    gaps = []
    for snap in traj.snapshots:
        bset = extract_boundary(snap.field, eps_fb)
        if bset.empty:
            gaps.append(snap.t)
        boundaries.append(bset)
    if gaps:
        raise BoundaryGapError(gaps)

    samples: list[VelocitySample] = []
    for k in range(1, len(traj.snapshots)):
        snap = traj.snapshots[k]
        prev = boundaries[k - 1]
        cur = boundaries[k]
        dt_snap = snap.t - traj.snapshots[k - 1].t
        u = pressure_from_density(snap.field, cfg.m)
        pts, vels, resids = [], [], []
        for p in cur.points:
            found = _interior_gradient(u, p, eps_fb)
            if found is None:
                continue
            grad, where = found
            norm = float(np.sqrt(np.sum(grad * grad)))
            n_hat = -grad / norm
            diff = prev.points - p
            q = prev.points[np.argmin(np.sum(diff * diff, axis=-1))]
            v_n = float(np.dot(p - q, n_hat)) / dt_snap
            # grad Phi sampled where grad u is sampled, so the two gradients
            # cancel coherently on near-stationary profiles
            g_phi = np.asarray(cfg.potential.grad(where), dtype=float)
            law = norm + float(np.dot(g_phi, grad)) / norm
            pts.append(p)
            vels.append(v_n)
            resids.append(v_n - law)
        samples.append(
            VelocitySample(
                t=snap.t,
                points=np.asarray(pts) if pts else np.empty((0, cur.points.shape[1])),
                normal_velocity=np.asarray(vels),
                law_residual=np.asarray(resids),
            )
        )
    return samples


def _interior_gradient(
    u: Field, p: np.ndarray, eps_fb: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """One-sided pressure gradient just inside the support near point p.

    Steps a couple of cells inward (away from the scheme's smeared collar)
    before differencing.  Returns (gradient, stencil location) or None when
    no usable interior stencil exists.
    """
    grid = u.grid
    v = u.values
    n = grid.n_cells
    h = grid.h

    if grid.dim == 1:
        i = min(max(grid.index_of_coord(float(p[0])), 0), n - 1)
        if grid.coord_of_index(i) > p[0] and i > 0:
            i -= 1  # crossing lies between centers i and i+1
        if i + 1 > n - 1:
            return None
        left_inside = v[i] > v[min(i + 1, n - 1)]
        for inset in (2, 1, 0):
            if left_inside:
                b = i - inset
                a = b - 1
            else:
                a = i + 1 + inset
                b = a + 1
            if 0 <= a and b <= n - 1 and v[a] > eps_fb and v[b] > eps_fb:
                mid = 0.5 * (grid.coord_of_index(a) + grid.coord_of_index(b))
                return np.array([(v[b] - v[a]) / h]), np.array([mid])
        return None

    # 2D: walk up-gradient from the nearest cell, then central differences
    i = min(max(grid.index_of_coord(float(p[0])), 1), n - 2)
    j = min(max(grid.index_of_coord(float(p[1])), 1), n - 2)
    for _ in range(3):
        neighbors = [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        best = max(neighbors, key=lambda ij: v[ij])
        if v[best] <= v[i, j]:
            break
        i, j = min(max(best[0], 1), n - 2), min(max(best[1], 1), n - 2)
    if v[i, j] <= eps_fb:
        return None
    grad = np.array(
        [
            (v[i + 1, j] - v[i - 1, j]) / (2.0 * h),
            (v[i, j + 1] - v[i, j - 1]) / (2.0 * h),
        ]
    )
    if np.all(grad == 0.0):
        return None
    where = np.array([grid.coord_of_index(i), grid.coord_of_index(j)])
    return grad, where
