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

    rho'_i = rho_i + dt/h^2 * sum over axes of (h F_{i+1/2} - h F_{i-1/2}),
    h F_{i+1/2} = (rho^m)_{i+1} - (rho^m)_i + rho_up * dPhi_{i+1/2},

with dPhi = h g, has no division per cell.  It telescopes, so total mass
is conserved to rounding as long as the support stays away from the box
edge (enforced: two empty cell rings).  It is nondecreasing in every
neighbor of cell i, and in rho_i itself as long as

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (Field, FieldVariable, Grid, Potential, dot_last, integrate, ring,
                   support_box)
from .errors import (
    DomainOverflowError,
    InvalidInputError,
    InvalidParameterError,
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
            # a rounding errs by at most 2^-53 max(|x|, 2^-1022): below the
            # smallest normal it is absolute, so each of the N cells has the
            # budget of a cell holding 2^-1022, about 4.5e5 units of
            # 2^-1074 vol; no mass above ~1e-300 notices the floor
            f0 = self.snapshots[0].field
            floor = 1e-10 * f0.values.size * f0.grid.cell_volume * 2.0**-1022
            if drift > 1e-10 * m0 + floor:
                raise InvalidInputError(
                    f"mass drift {drift / m0:.3e} (relative) exceeds 1e-10"
                    f" and the subnormal floor {floor:.3e}"
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


def _drift(grid: Grid, potential: Potential) -> tuple[np.ndarray, np.ndarray]:
    """Drift data of every axis, from Phi's axis polynomial p at the axis's
    cell centers x: the interface differences dPhi = diff(p(x)) and each
    cell's outflow rate max(-g_{i+1/2}, 0) + max(g_{i-1/2}, 0), g = dPhi / h,
    with no flux through the grid walls.  A box's _Window slices these.

    Raises InvalidParameterError unless all of them are finite: every p(x_i)
    enters a dPhi and every dPhi a rate, so the rates alone tell."""
    with np.errstate(over="ignore", invalid="ignore"):
        dphi = np.diff(potential.eval(grid.axis_centers()[:, None]))
        walls = np.concatenate(([0.0], dphi / grid.h, [0.0]))  # g at interfaces -1/2 .. n-1/2
        out = np.maximum(-walls[1:], 0.0) + np.maximum(walls[:-1], 0.0)
    if not np.isfinite(out).all():
        raise InvalidParameterError(
            f"the drift of the potential {potential.coefficients} is not finite on the grid:"
            " p at the cell centers, its differences or the outflow rates overflow a float")
    return dphi, out


class _Window:
    """Everything a stack keeps per support box, the box grown by 2 cells and
    clipped to the grid: the stepping state, the buffers and views of one
    step, cfl_dt's drift rate O / h (O, the largest outflow rate in the box,
    is the sum of the axes' maxima: Phi is separable and rounded + monotone)
    and ``near``, whether margin_ok must scan (the box is in the margin).

    ``w`` is a C-contiguous copy of the (B, *window) values, then one axis-1
    stride of zeros.  Along an axis of stride s, interface k joins the flat
    cells k and k + s for every k: each kernel call is one contiguous slice.
    A pair that wraps to the next line, member or the pad joins two rim
    cells, which stay zero (2 cells off the box, or on the grid's outer
    ring), and carries dPhi = 0: its h F is +0.0, as between empty cells.
    Grid-edge interfaces get zero flux (``edges``).  Each axis splits into
    runs of one sign of dPhi; one multiply per run of the upwind values (the
    high side's where dPhi > 0) by dPhi forms rho_up * dPhi, the kernel's
    product, on every input.  The terms go where nothing is held until
    f += up: rho^m's buffer on the last axis, ``div``'s on axis 1 of 2 (its
    first s cells are re-zeroed with the edges).  Axis 2 of 2 differences in
    rho^m's buffer: four window-sized buffers in all.
    """

    def __init__(self, stack: "_Stack", box: tuple[tuple[int, int], ...]):
        self.box, n = box, stack.n
        self.near = any(lo < 2 or hi > n - 2 for lo, hi in box)
        self.outflow = sum(float(stack.out[lo:hi].max()) for lo, hi in box)
        self.drift = self.outflow / stack.grid.h
        self.cells = cells = tuple(slice(max(lo - 2, 0), min(hi + 2, n)) for lo, hi in box)
        self.starts, self.index = tuple(c.start for c in cells), (slice(None),) + cells
        shape, size = (block := stack.v[self.index]).shape, block.size
        state, rmp = np.zeros((2, size + size // shape[0] // shape[1]))  # padded by a stride
        self.w, self.rm, self.div, self.flux = w, rm, div, flux = (
            state[:size], rmp[:size], np.zeros(size), np.empty(size))
        self.values, self.view = w.reshape(shape), div.reshape(shape)
        self.values[...] = block
        self.axes, self.rims = [], []
        for a, (c, (lo, hi)) in enumerate(zip(cells, box), start=1):
            na, s = shape[a], math.prod(shape[a + 1:])
            lines = (-1, na, s)[:3 - (s == 1)]  # (lines of all members, axis a[, stride])
            dv = np.append(stack.dphi[c.start:c.stop - 1], 0.0)  # the wrap pairs: dPhi = 0
            dp, up = dv.reshape((na, 1)[:len(lines) - 1]), rm if a == len(cells) else div
            ends = [0, *(np.flatnonzero(np.diff(dv[:-1] > 0.0)) + 1).tolist(), na]
            runs = [(state[s * int(dv[i] > 0.0):][:size].reshape(lines)[:, i:j], dp[i:j],
                     up.reshape(lines)[:, i:j]) for i, j in zip(ends, ends[1:])]
            walls = [i for i, wall in ((0, c.start == 0), (na - 2, c.stop == n)) if wall]
            edges = [flux.reshape(lines)[:, i] for i in walls] + ([div[:s]] if up is div else [])
            sub = (div[s:], None) if a == 1 else (rm[:size - s], div[s:])
            self.axes.append((rmp[s:size + s], runs, up, edges, flux[s:], flux[:-s], *sub))
            cuts = (np.array([lo - 1, lo, lo + 1, hi - 1, hi]) - c.start) * s
            self.rims.append((w, (cuts + np.arange(0, size, size // shape[0])[:, None]).ravel())
                             if a == 1 else (self.values, cuts))

    def divergence(self, m: float) -> np.ndarray:
        """h^2 times the flux divergence per window cell and member, a
        (B, *window) view: over the axes, the sum of h F_{i+1/2} - h F_{i-1/2},

            h F_{i+1/2} = (rho^m)_{i+1} - (rho^m)_i + rho_up * dPhi_{i+1/2},

        in the float order of one expression per axis, summed axis 1 first,
        in ``div``.  The step scales it by dt/h^2, so nothing divides."""
        rm, f = self.rm, self.flux
        np.power(self.w, m, out=rm)
        for rm_hi, runs, up, edges, f_hi, f_lo, out, total in self.axes:
            np.subtract(rm_hi, rm, out=f)
            for w_up, dp, up_run in runs:
                np.multiply(w_up, dp, out=up_run)
            f += up
            for edge in edges:
                edge.fill(0.0)
            np.subtract(f_hi, f_lo, out=out)
            if total is not None:
                total += out
        return self.view

    def rim_top(self) -> float | None:
        """The largest value of any member if the step kept the box, else
        None; the values must be >= 0, no NaN.  The box is kept iff along each
        axis the cells just outside each face are zero and each face holds a
        positive value.  ``rims`` cuts each axis at [lo-1, lo, lo+1, hi-1, hi]:
        the flat members into segments along axis 1 (they cover every cell
        from lo-1 on, so they give the max; a thin box repeats a cut, which
        yields one covered cell), the rows into five columns along axis 2."""
        r = None
        for view, cuts in self.rims:
            seg = (np.maximum.reduceat(view, cuts) if view.ndim == 1
                   else np.maximum.reduce(view[..., cuts], 1).ravel()).tolist()
            if any(seg[0::5] + seg[4::5]) or not (any(seg[1::5]) and any(seg[3::5])):
                return None
            r = r or seg
        return max(r)


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

    The window's flat copy is the stepping state; ``v`` writes it back
    before it returns the (B, *grid.shape) values.  After a step the box and
    ``top``, the largest value of any member, come from the window's rim
    test (rim_top), or from a full scan of the window (_track) when the test
    fails or a value was clipped.  Member maxima are taken from the window
    only when margin_ok scans.
    """

    def __init__(self, values: np.ndarray, grid: Grid, cfg: SolverConfig):
        self._v = values  # (B, *grid.shape), behind the window's copy while _stale
        self.grid, self.cfg, self.n = grid, cfg, grid.n_cells
        self.dphi, self.out = _drift(grid, cfg.potential)
        self.clipped_cum = [0.0] * len(values)
        self._spatial = tuple(range(1, values.ndim))
        self._diffusion, self._h2 = 2.0 * grid.dim * cfg.m, grid.h**2  # cfl_dt's, in its order
        self.box = self._win = None
        self._stale = False
        self._track(values, (0,) * grid.dim)

    @property
    def v(self) -> np.ndarray:
        """The members' values, (B, *grid.shape), up to date."""
        if self._stale:
            self._v[self._win.index] = self._win.values
            self._stale = False
        return self._v

    def _track(self, w: np.ndarray, starts: tuple[int, ...]) -> None:
        """The largest value of any member (``top``) and the support's
        bounding box, from the values ``w`` of the cells from ``starts`` on
        (which hold every positive value)."""
        self.top = max(np.maximum.reduce(w, axis=self._spatial).tolist())
        box = support_box(np.logical_or.reduce(w > 0.0, axis=0))
        self.box = None if box is None else tuple(
            (start + lo, start + hi) for start, (lo, hi) in zip(starts, box))

    def _window(self) -> _Window:
        """The window of the current box, which must be nonempty."""
        if self._win is None or self._win.box != self.box:
            self._v, self._win = self.v, None  # write back, then free the old buffers
            self._win = _Window(self, self.box)
        return self._win

    def margin_ok(self) -> bool:
        """No member holds support within two cells of the box edge.

        "Support" at machine scale: values above 1e-12 of the member's max.
        The ring is scanned only when the box reaches into it; otherwise the
        ring holds no positive value.
        """
        if self.box is None or not self._window().near:
            return True
        tops = np.maximum.reduce(self._win.values, axis=self._spatial).tolist()
        return not any(np.any(ring(v, 2) > 1e-12 * top) for v, top in zip(self.v, tops))

    def cfl_dt(self) -> float:
        """The shared step of every member, capped at the snapshot cadence:

            dt = cfl_safety / ( 2 dim m T^(m-1) / h^2 + O / h )

        with T the largest value of any member and O the largest outflow
        rate out_i of a cell in the support box.  The rate bounds every
        cell's diagonal rate from above (see the module docstring), so the
        step is monotone for every cfl_safety <= 1.  A zero rate (no drift
        out of the box, and T^(m-1) rounding to 0) leaves the cadence; any
        other rate that is not finite raises InvalidInputError.
        """
        drift = self._window().drift if self.box is not None else 0.0
        try:
            rate = self._diffusion * self.top ** (self.cfg.m - 1.0) / self._h2 + drift
        except OverflowError:  # a float power raises where a product gives inf
            rate = math.inf
        if not 0.0 < rate < math.inf:
            if rate != 0.0:  # +inf or NaN
                cause = ("the drift out of the support box" if drift == math.inf else
                         f"the largest density {self.top!r} at m = {self.cfg.m!r}")
                raise InvalidInputError(
                    f"step rate is not finite: {cause} gives a rate that overflows a float")
            return self.cfg.snapshot_every
        return min(self.cfg.snapshot_every, self.cfg.cfl_safety / rate)

    def step(self, dt: float) -> None:
        """One explicit step of every member, adding to ``clipped_cum``."""
        if self.box is None:  # all zero: a fixed point
            return
        win = self._window()
        if win.near and not self.margin_ok():
            raise DomainOverflowError("support within two cells of the box edge")
        scale = dt / self._h2
        if not scale < math.inf:  # inf * a zero divergence would be NaN
            raise InvalidInputError(f"step scale dt / h^2 = {dt!r} / {self._h2!r} is not finite")
        win.divergence(self.cfg.m)
        win.div *= scale
        win.w += win.div
        self._stale = True
        if not np.minimum.reduce(win.w) >= 0.0:  # a negative value, or NaN
            for b, wb in enumerate(win.values):
                negb = wb < 0.0
                if negb.any():  # even where their mass rounds to 0.0
                    self.clipped_cum[b] += -self.grid.cell_volume * float(np.sum(wb[negb]))
                    wb[negb] = 0.0
        elif (top := win.rim_top()) is not None:
            self.top = top
            return
        self._track(win.values, win.starts)


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
