"""Mass-conservative explicit stepping for the density equation.

The density form

    rho_t = div( grad(rho^m) + rho grad Phi )

is discretized in flux form on the uniform cell grid: per axis, the
interface flux is

    F_{i+1/2} = ( (rho^m)_{i+1} - (rho^m)_i ) / h  +  rho_up * g_{i+1/2},

with g_{i+1/2} = (Phi_{i+1} - Phi_i)/h and rho_up taken from the cell the
drift flows out of (the drift velocity is -g).  Phi is a sum of one
polynomial p per axis, so along axis a g_{i+1/2} = (p(x_{i+1}) - p(x_i))/h,
the same on every grid line: one vector per grid.  The update

    rho'_i = rho_i + dt/h * (F_{i+1/2} - F_{i-1/2})

telescopes, so total mass is conserved to rounding as long as the support
stays away from the box edge (enforced: two empty cell rings).  It is
nondecreasing in every neighbor of cell i, and in rho_i itself as long as

    dt * ( 2 dim m rho_i^(m-1) / h^2 + out_i / h ) <= 1,

where out_i = sum over axes of max(-g_{i+1/2}, 0) + max(g_{i-1/2}, 0) is
the cell's upwind outflow rate.  The step bounds this diagonal rate from
above (see _Stack.cfl_dt), so for every cfl_safety <= 1 the update is
monotone: it keeps fields nonnegative and ordered fields ordered.  Negative
values can only arise from rounding and are clipped, with the clipped mass
tracked per run.

All reductions are fixed-order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Field, FieldVariable, Grid, Potential, dot_last, integrate, ring
from .errors import (
    DomainOverflowError,
    InvalidInputError,
    PmedError,
    StepTooLargeError,
    require,
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


@dataclass(frozen=True)
class SolverConfig:
    """Physics and run parameters for one simulation."""

    m: float
    potential: Potential
    t_end: float
    snapshot_every: float
    cfl_safety: float = 0.8

    def __post_init__(self):
        require("m", self.m, 1.0)
        require("cfl_safety", self.cfl_safety, 0.0, 1.0)
        require("t_end", self.t_end, 0.0)
        require("snapshot_every", self.snapshot_every, 0.0)


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


@lru_cache(maxsize=32)
def _drift(grid: Grid, potential: Potential) -> tuple[np.ndarray, np.ndarray]:
    """Drift data of every axis, from Phi's axis polynomial p at the axis's
    cell centers x: the interface gradients g = diff(p(x)) / h and each
    cell's outflow rate max(-g_{i+1/2}, 0) + max(g_{i-1/2}, 0), with no flux
    through the grid walls.  What depends on the support box is made from
    these by that box's _Window."""
    x = grid.axis_centers()
    g = np.diff(potential.eval(x[:, None])) / grid.h
    walls = np.concatenate(([0.0], g, [0.0]))  # interfaces -1/2 .. n-1/2
    return g, np.maximum(-walls[1:], 0.0) + np.maximum(walls[:-1], 0.0)


class _Window:
    """Everything a stack keeps per support box: the views and buffers one
    step reads and writes, and the outflow rate cfl_dt reads.  The window is
    the box grown by 2 cells and clipped to the grid.  Built once per box,
    so a step makes no slice and allocates nothing.

    ``outflow`` is the largest outflow rate out_i of a cell in the box.
    Phi is separable, so out_i is a sum of one vector per axis, and its max
    over the box is the sum of the axes' maxima (rounded + is monotone).

    Per axis a, interface i+1/2 joins window cells i and i+1; its flux goes
    to ``f`` and the divergence (F_{i+1/2} - F_{i-1/2}) / h to ``div``.  The
    interfaces at the grid edge carry zero flux (``edges``), so the outermost
    cell ring stays zero and the no-flux wall sits one cell inside the grid.
    Every other interface on the window's rim, and every border cell of
    ``div``, joins cells outside the support, so it is +0.0 without zeroing
    (but for the rims below).  The axes take turns with one flux buffer.
    Each axis puts its upwind terms rho_up * g (``up``) where nothing is
    held until f += up: the last axis in rho^m's buffer, which it has read
    by then, and axis 1 of 2 in ``div``'s, which it has not written yet;
    the two rims of ``div`` along axis 1, which no difference overwrites,
    are re-zeroed with the ``edges``.  Axis 2 differences its fluxes in
    rho^m's buffer too: three window-sized buffers in all.

    g is fixed per window, so each axis splits into runs of interfaces with
    one sign of g (at most 2 for a convex Phi): the upwind value is the high
    side's where g > 0, the low side's elsewhere.  ``axes`` holds per axis:
    rho^m on the low and high side of each interface, per run the upwind
    values, g (shaped to broadcast along the axis) and ``up``'s slice, then
    ``up``, the flux ``f``, the views to zero and the flux's two shifts, the
    divergence's inner slice along the axis and, past axis 1, a view of that
    slice's shape on rho^m's buffer.
    """

    def __init__(self, stack: "_Stack", box: tuple[tuple[int, int], ...]):
        n = stack.n
        self.box = box
        self.outflow = sum(float(stack.out[lo:hi].max()) for lo, hi in box)
        self.cells = cells = tuple(slice(max(lo - 2, 0), min(hi + 2, n)) for lo, hi in box)
        self.starts = tuple(c.start for c in cells)
        self.w = w = stack.v[(slice(None),) + cells]
        self.rm = rm = np.empty(w.shape)
        self.div = div = np.zeros(w.shape)
        flux = np.empty(w.size)
        self.axes = []
        for a, c in enumerate(cells, start=1):
            every = (slice(None),) * a
            lo, hi = every + (slice(None, -1),), every + (slice(1, None),)
            w_lo, w_hi, div_in = w[lo], w[hi], div[every + (slice(1, -1),)]
            f = flux[:w_lo.size].reshape(w_lo.shape)
            last = a == len(cells)
            up = (rm if last else div).reshape(-1)[:w_lo.size].reshape(w_lo.shape)
            g = stack.g[c.start:c.stop - 1]
            ends = [0, *(np.flatnonzero(np.diff(g > 0.0)) + 1).tolist(), len(g)]
            runs = [((w_hi if g[i] > 0.0 else w_lo)[every + (slice(i, j),)],
                     g[i:j].reshape((-1,) + (1,) * (len(cells) - a)), up[every + (slice(i, j),)])
                    for i, j in zip(ends, ends[1:])]
            edges = [f[every + (i,)] for i, wall in ((0, c.start == 0), (-1, c.stop == n)) if wall]
            if not last:  # its upwind terms overwrote div's two rims along the axis
                edges += [div[every + (0,)], div[every + (-1,)]]
            scratch = rm.reshape(-1)[:div_in.size].reshape(div_in.shape) if a > 1 else None
            self.axes.append((rm[lo], rm[hi], runs, up, f, edges, f[lo], f[hi], div_in, scratch))

    def divergence(self, h: float, m: float) -> np.ndarray:
        """(F_{i+1/2} - F_{i-1/2}) / h per window cell and member, with

            F_{i+1/2} = ((rho^m)_{i+1} - (rho^m)_i) / h + rho_up * g_{i+1/2}

        written into ``div`` in the float order of one expression per axis;
        the axes' differences are summed axis 1 first."""
        np.power(self.w, m, out=self.rm)
        for rm_lo, rm_hi, runs, up, f, edges, f_lo, f_hi, div_in, scratch in self.axes:
            np.subtract(rm_hi, rm_lo, out=f)
            f /= h
            for w_up, g, up_run in runs:
                np.multiply(w_up, g, out=up_run)
            f += up
            for edge in edges:
                edge.fill(0.0)
            if scratch is None:
                np.subtract(f_hi, f_lo, out=div_in)
            else:
                np.subtract(f_hi, f_lo, out=scratch)
                div_in += scratch
        self.div /= h
        return self.div


class _Stack:
    """B density fields on one grid, stepped in place with one shared dt.

    A step reads and writes only the support window (see _Window): the
    bounding box of v > 0 over all members, grown by 2 cells and clipped to
    the grid.  The 3-point stencil moves the support by at most one cell per
    step (grow by 1), and those cells' stencils read one cell further (grow
    by 1 more).  Every cell outside the window has an all-zero stencil, so
    the full-grid step would leave it at v + dt*0 = v.  Values, clipped
    masses and dt are those of stepping each member on the whole grid, bit
    for bit, for fields that hold no -0.0 (a step never makes one).
    """

    def __init__(self, values: np.ndarray, grid: Grid, cfg: SolverConfig):
        self.v = values  # (B, *grid.shape)
        self.grid, self.cfg, self.n = grid, cfg, grid.n_cells
        self.g, self.out = _drift(grid, cfg.potential)
        self.clipped_cum = [0.0] * len(values)
        self._spatial = tuple(range(1, values.ndim))
        self._across = [(0,) + self._spatial[:a] + self._spatial[a + 1:] for a in range(grid.dim)]
        self.box = self._win = None
        self._track(values, (0,) * grid.dim)

    def _track(self, w: np.ndarray, starts: tuple[int, ...]) -> None:
        """Per-member max and the support's bounding box, from the values
        ``w`` of the cells from ``starts`` on (which hold every positive
        value)."""
        self.tops = np.maximum.reduce(w, axis=self._spatial).tolist()
        pos = w > 0.0
        box = []
        for start, across in zip(starts, self._across):
            seen = np.logical_or.reduce(pos, axis=across)
            first = int(seen.argmax())
            if not seen[first]:
                box = None
                break
            box.append((start + first, start + seen.size - int(seen[::-1].argmax())))
        self.box = box and tuple(box)  # per axis [first, last + 1) of the support

    def _window(self) -> _Window:
        """The window of the current box, which must be nonempty."""
        if self._win is None or self._win.box != self.box:
            self._win = None  # free the old window's buffers first
            self._win = _Window(self, self.box)
        return self._win

    def margin_ok(self) -> bool:
        """No member holds support within two cells of the box edge.

        "Support" at machine scale: values above 1e-12 of the member's max.
        The ring is scanned only when the box reaches into it; otherwise the
        ring holds no positive value.
        """
        n = self.n
        if self.box is None or all(lo >= 2 and hi <= n - 2 for lo, hi in self.box):
            return True
        return not any(np.any(ring(v, 2) > 1e-12 * top) for v, top in zip(self.v, self.tops))

    def cfl_dt(self) -> float:
        """The shared step of every member, capped at the snapshot cadence:

            dt = cfl_safety / ( 2 dim m T^(m-1) / h^2 + O / h )

        with T the largest value of any member and O the largest outflow
        rate out_i of a cell in the support box.  The rate bounds every
        cell's diagonal rate from above (see the module docstring), so the
        step is monotone for every cfl_safety <= 1.  A zero rate (no drift
        out of the box, and T^(m-1) rounding to 0) leaves the cadence.
        """
        m, h, dim = self.cfg.m, self.grid.h, self.grid.dim
        outflow = self._window().outflow if self.box is not None else 0.0
        rate = 2.0 * dim * m * max(self.tops) ** (m - 1.0) / h**2 + outflow / h
        if not rate > 0.0:
            return self.cfg.snapshot_every
        return min(self.cfg.snapshot_every, self.cfg.cfl_safety / rate)

    def step(self, dt: float) -> None:
        """One explicit step of every member, adding to ``clipped_cum``."""
        if not self.margin_ok():
            raise DomainOverflowError("support within two cells of the box edge")
        if self.box is None:  # all zero: a fixed point
            return
        win = self._window()
        div = win.divergence(self.grid.h, self.cfg.m)
        div *= dt
        w = win.w
        w += div
        if np.fmin.reduce(w, axis=None) < 0.0:  # fmin skips NaN, as w < 0.0 does
            for b, wb in enumerate(w):
                negb = wb < 0.0
                if negb.any():  # even where their mass rounds to 0.0
                    self.clipped_cum[b] += -self.grid.cell_volume * float(np.sum(wb[negb]))
                    wb[negb] = 0.0
        self._track(w, win.starts)


def cfl_dt(rho: Field, cfg: SolverConfig) -> float:
    """Largest stable explicit step for ``rho``, capped at the snapshot
    cadence (see _Stack.cfl_dt)."""
    return _Stack(rho.values[None], rho.grid, cfg).cfl_dt()


def step_density_report(rho: Field, cfg: SolverConfig, dt: float) -> StepReport:
    """One explicit flux-form step of size dt (dt must respect cfl_dt).

    Reports the mass removed by clipping rounding-level negative values.
    """
    if rho.variable is not FieldVariable.DENSITY:
        raise InvalidInputError("step_density_report expects a density field")
    stack = _Stack(rho.values[None].copy(), rho.grid, cfg)
    dt_max = stack.cfl_dt()
    if dt > dt_max * (1.0 + 1e-9):
        raise StepTooLargeError(f"dt = {dt} exceeds stability limit {dt_max}")
    stack.step(dt)
    return StepReport(field=Field(rho.grid, stack.v[0], FieldVariable.DENSITY),
                      clipped_mass=stack.clipped_cum[0])


def _simulate_stack(fields: tuple[Field, ...], cfg: SolverConfig) -> list[Trajectory]:
    """Step density fields of one grid together, with the smallest member's
    cfl_dt as the shared step; one trajectory per field (see simulate)."""
    if any(f.variable is not FieldVariable.DENSITY for f in fields):
        raise InvalidInputError("simulate expects a density field")
    grid = fields[0].grid
    stack = _Stack(np.stack([f.values for f in fields]), grid, cfg)
    if not stack.margin_ok():
        raise DomainOverflowError("initial support within two cells of the box edge")
    snaps = [[Snapshot(0.0, f, integrate(f), 0.0)] for f in fields]
    n_targets = int(np.floor(cfg.t_end / cfg.snapshot_every + 1e-9))
    t = 0.0
    for k in range(1, n_targets + 1):
        target = k * cfg.snapshot_every
        while t < target * (1.0 - 1e-14):
            dt = min(stack.cfl_dt(), target - t)
            if not dt > 0.0:
                raise PmedError(f"stepping stalled at t = {t}")
            try:
                stack.step(dt)
            except PmedError as exc:
                raise type(exc)(f"{exc} (at t = {t:.9g})") from None
            t += dt
            if abs(t - target) <= 1e-12 * max(1.0, target):
                t = target
        t = target
        for member, v, clipped in zip(snaps, stack.v, stack.clipped_cum):
            field = Field(grid, v, FieldVariable.DENSITY)
            member.append(Snapshot(t, field, integrate(field), clipped))
    return [Trajectory(tuple(s), cfg) for s in snaps]


def simulate(rho0: Field, cfg: SolverConfig) -> Trajectory:
    """Step with cfl_dt, recording snapshots at multiples of snapshot_every.

    The run ends at the largest snapshot multiple <= t_end; if t_end is
    smaller than the cadence, no step is taken and only the initial snapshot
    is returned.
    """
    return _simulate_stack((rho0,), cfg)[0]


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

    Both are stepped as one stack with one shared dt, at which the update is
    monotone (see _Stack.cfl_dt), so they stay ordered up to rounding: the
    ordering tolerance is tol_order = 4 ulp of M, the largest value of
    rho_hi over the run's snapshots.
    """
    if rho0_lo.grid != rho0_hi.grid:
        raise InvalidInputError("comparison requires a common grid")
    if np.any(rho0_lo.values > rho0_hi.values):
        raise InvalidInputError("initial data not ordered: rho_lo > rho_hi somewhere")
    traj_lo, traj_hi = _simulate_stack((rho0_lo, rho0_hi), cfg)
    top = max(float(s.field.values.max()) for s in traj_hi.snapshots)
    tol = 4.0 * float(np.spacing(top))
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
