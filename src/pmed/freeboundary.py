"""Support-boundary extraction, Hausdorff diagnostics, and equilibria.

The discrete stand-in for the boundary of the positivity set is the
epsilon-crossing cloud of a field: in 1D the linearly interpolated interval
endpoints, in 2D the marching-squares-style edge crossings between adjacent
cell centers.  Equilibrium pressures (C - Phi)_+ are pinned down by
conserving the density mass; the constant is found by a safeguarded Newton
iteration on the (continuous, nondecreasing) discrete mass map.
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
    require,
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
    require("eps_fb", eps_fb, 0.0)
    ax = f.grid.axis_centers()
    return level_crossings(f.values, (ax,) * f.grid.dim, eps_fb)


_ROWS = 128  # rows per distance block: 128 x 1k points is 1 MB per temporary
_BAND_ROWS = 64  # rows of the sorted cloud per banded block
_BAND_POINTS = 16  # band half-width, in mean point spacings of the larger cloud


def _sq_distances(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of (r, dim) and (l, dim) arrays, (r, l)."""
    return sum((rows[:, None, k] - b[None, :, k]) ** 2 for k in range(b.shape[1]))


def _sq_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Squared distances between the rows of a (k, dim) and b (l, dim), as
    (row slice of a, block of shape (rows, l)) over fixed row blocks, so
    the whole (k, l) matrix is never held."""
    for start in range(0, len(a), _ROWS):
        rows = a[start:start + _ROWS]
        yield slice(start, start + len(rows)), _sq_distances(rows, b)


def _settle(mins: np.ndarray, bound: float, a: np.ndarray, b: np.ndarray) -> float:
    """Largest of the exact nearest squared distances from the rows of a to b,
    given ``mins``, banded minima that are exact where they are <= bound;
    the rows above it are reduced over all of b."""
    open_rows = np.flatnonzero(~(mins <= bound))
    for rows, d2 in _sq_distance_blocks(a[open_rows], b):
        mins[open_rows[rows]] = d2.min(axis=1)
    return float(mins.max())


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two nonempty (k, dim) point clouds.

    Raises InvalidInputError if the clouds are not 2-D with one number of
    columns, or if a coordinate is NaN or infinite.  Both
    clouds are sorted along axis 0; each block of rows of a is reduced only
    against the points of b whose axis-0 coordinate lies within delta of
    the block's range, delta = 16 span / max(k, l) with span the largest
    extent of the two clouds along any axis.  Every pair left out is at
    least delta apart along axis 0, after rounding too, so a row or column
    minimum of at most (delta/2)^2 is exact; the others are reduced over
    the whole other cloud.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1:] != b.shape[1:] or a.shape[1] == 0:
        raise InvalidInputError(f"hausdorff requires (k, dim) clouds of one dim, "
                                f"got shapes {a.shape} and {b.shape}")
    if len(a) == 0 or len(b) == 0:
        raise EmptyBoundarySetError("hausdorff requires nonempty boundary sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("hausdorff requires finite coordinates")
    a = a[np.argsort(a[:, 0], kind="stable")]
    b = b[np.argsort(b[:, 0], kind="stable")]
    span = float(np.max(np.maximum(a.max(axis=0), b.max(axis=0))
                        - np.minimum(a.min(axis=0), b.min(axis=0))))
    delta = _BAND_POINTS * span / max(len(a), len(b))
    # band of each block: b[los[i]:his[i]]; a point of b left out lies below
    # fl(first - delta) or above fl(last + delta), so at least delta away
    starts = np.arange(0, len(a), _BAND_ROWS)
    ends = np.minimum(starts + _BAND_ROWS, len(a))
    los = np.searchsorted(b[:, 0], a[starts, 0] - delta, side="left")
    his = np.searchsorted(b[:, 0], a[ends - 1, 0] + delta, side="right")
    row_min = np.full(len(a), np.inf)
    col_min = np.full(len(b), np.inf)  # running column minima over the bands
    for start, end, lo, hi in zip(starts, ends, los, his):
        if lo < hi:
            d2 = _sq_distances(a[start:end], b[lo:hi])
            row_min[start:end] = d2.min(axis=1)
            np.minimum(col_min[lo:hi], d2.min(axis=0), out=col_min[lo:hi])
    bound = (0.5 * delta) ** 2
    # sqrt is monotone and correctly rounded: one root at the end is exact
    return float(np.sqrt(max(_settle(row_min, bound, a, b), _settle(col_min, bound, b, a))))


class _MassMap:
    """c -> (M(c), M'(c)), the discrete mass map of phi and its slope, each
    density computed only on the box of cells that holds every phi below c.
    Every other cell has density +0.0, which the one buffer holds there; the
    sum runs over the whole buffer, so M(c) is the float of the full-grid sum."""

    def __init__(self, phi: np.ndarray, m: float, vol: float):
        self.phi, self.vol, self.a, self.k = phi, vol, (m - 1.0) / m, 1.0 / (m - 1.0)
        axes = range(phi.ndim)  # per axis, the least phi of each index along it
        self.profiles = [phi.min(axis=tuple(k for k in axes if k != a)) for a in axes]
        self.buf, self.box = np.zeros_like(phi), (slice(0, 0),)

    def __call__(self, c: float) -> tuple[float, float]:
        self.buf[self.box] = 0.0  # re-zero the previous box
        live = [np.flatnonzero(~(least >= c)) for least in self.profiles]
        self.box = tuple(slice(i[0], i[-1] + 1) if len(i) else slice(0, 0) for i in live)
        s = self.buf[self.box]
        np.maximum(np.subtract(c, self.phi[self.box], out=s), 0.0, out=s)
        # M'(c) = vol k a sum (a u)^(k-1) over u = c - phi > 0, as (a u)^k / (a u)
        # with a zero a u, whose (a u)^k is 0 too, raised to the least normal float
        rate = np.maximum(np.multiply(self.a, s, out=s), np.finfo(float).tiny)
        np.divide(np.power(s, self.k, out=s), rate, out=rate)
        return self.vol * float(np.sum(self.buf)), self.vol * self.k * self.a * float(np.sum(rate))


def _cell_potential(pot: Potential, grid: Grid) -> np.ndarray:
    """Phi at every cell center, from its axis polynomial p at the axis
    centers: p(x_i) + p(x_j) in 2D, bit for bit pot.eval(grid.centers()).

    Raises InvalidParameterError unless every value is finite, read from p
    alone: a float sum is monotone in each term, so all p(x_i) + p(x_j) are
    finite iff 2 min p and 2 max p are."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.asarray(pot.eval(grid.axis_centers()[:, None]), dtype=float)
        ends = grid.dim * np.array([p.min(), p.max()])
    if not np.isfinite(ends).all():
        raise InvalidParameterError(
            f"the potential {pot.coefficients} is not finite on the grid")
    return p if grid.dim == 1 else p[:, None] + p[None, :]


def _equilibrium(
    target_mass: float, pot: Potential, m: float, grid: Grid
) -> tuple[float, Field]:
    """equilibrium_constant's level C and the pressure (C - Phi)_+, from one
    evaluation of Phi."""
    require("target_mass", target_mass, 0.0)
    require("m", m, 1.0)
    phi = _cell_potential(pot, grid)
    phi_min = min(float(phi.min()), pot.min_value(grid.dim))
    mass = _MassMap(phi, m, grid.cell_volume)

    # C stays <= c_cap, the least Phi on the outer ring, so (C - Phi)_+ is 0 there;
    # M(c_cap), the capacity, is evaluated only when the iteration reaches c_cap
    c_cap = float(ring(phi, 1).min())
    tol = 1e-10 * target_mass
    lo, hi, hi_known = phi_min, c_cap, False  # M(lo) < target <= M(hi), once known
    c, prev, newton, best = min(phi_min + 1.0, c_cap), None, True, (np.inf, c_cap)
    for _ in range(400):
        value, slope = mass(c)
        err = value - target_mass
        best = min(best, (abs(err), c))
        if err >= 0.0:
            hi, hi_known = c, True
        elif c < c_cap:
            lo = c
        else:
            raise DomainTooSmallError(
                f"target mass {target_mass} needs a level beyond the box capacity")
        step = -err / slope if slope > 0.0 else np.inf
        # converged, before any safeguard: the step is under one ulp or cycles back
        newton = newton and abs(step) >= np.spacing(abs(c)) and c + step != prev
        if not newton and best[0] <= tol:
            break
        prev, c = c, c + step
        if not (newton and lo < c < hi):
            # bisection, also after Newton's end when its level misses the tolerance
            if hi_known and np.nextafter(lo, hi) >= hi:  # no float left between them
                break
            c = 0.5 * (lo + hi) if hi_known else hi
    err, c = best
    if err > tol:  # name the bracket: a level tied at M = 0 may be far below it
        (m_lo, _), (m_hi, _) = mass(lo), mass(hi)
        raise InvalidParameterError(
            f"no level meets target mass {target_mass} to 1e-10: the final bracket"
            f" C in [{lo}, {hi}] has M = {m_lo} at its lower end and {m_hi} at its upper end")
    # the mass map's buffer becomes the pressure, so no third grid-sized array
    pressure = np.maximum(np.subtract(c, phi, out=mass.buf), 0.0, out=mass.buf)
    return c, Field(grid, pressure, FieldVariable.PRESSURE)


def equilibrium_constant(
    target_mass: float, pot: Potential, m: float, grid: Grid
) -> float:
    """Level C such that the density of (C - Phi)_+ carries the target mass.

    Safeguarded Newton on the discrete mass map M(C), continuous and
    nondecreasing on a fixed grid, from one unit above the lower of the grid
    minimum of Phi and its computed minimum (where M vanishes).  It bisects
    its bracket where Newton leaves it, down to two adjacent floats, and
    stops once a step stays within one ulp of C or returns to the previous
    iterate.  The level must meet
    |M(C) - target| <= 1e-10 target; a target that no float C meets (for
    m > 2, M jumps by about (ulp of Phi)^(1/(m-1)) where C passes a cell's
    Phi) raises InvalidParameterError, which names the final bracket and M
    at its ends.  Raises UnsupportedPotentialError
    unless Phi is strictly convex.
    """
    return _equilibrium(target_mass, pot, m, grid)[0]


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
    c, pressure = _equilibrium(target_mass, pot, m, grid)
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
