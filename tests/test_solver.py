import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from pmed.barriers import BarenblattSpec
from pmed.core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    integrate,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
)
from pmed.errors import (
    DomainOverflowError,
    InvalidInputError,
    InvalidParameterError,
    StepTooLargeError,
)
from pmed.initialdata import barenblatt_density, bump_density, equilibrium_offset_density
from pmed.solver import (
    SolverConfig,
    SpaceTimeTestFunction,
    Trajectory,
    cfl_dt,
    comparison_harness,
    simulate,
    step_density_report,
    weak_residual,
)
from pmed.solver import _drift, _simulate_stack, _Stack, _Window


def loop_flux_divergence(values, grid, m, potential):
    """Independent scalar-loop evaluation of the scheme's flux divergence."""
    h = grid.h
    ax = grid.axis_centers()
    n = grid.n_cells
    assert grid.dim == 1
    phi = [float(potential.eval(np.array([x]))) for x in ax]
    flux = [0.0] * (n + 1)  # flux[i] = F_{i-1/2}
    for i in range(1, n):
        g = (phi[i] - phi[i - 1]) / h
        up = values[i] if g > 0 else values[i - 1]
        flux[i] = (values[i] ** m - values[i - 1] ** m) / h + up * g
    flux[1] = flux[n - 1] = 0.0  # ring interfaces are inert
    return np.array([(flux[i + 1] - flux[i]) / h for i in range(n)])


def reference_dphi(grid, potential):
    """Interface differences of Phi = sum_k p(x_k) along each axis, in the
    full-grid shapes the solver once kept: p(x_{i+1}) - p(x_i) from p at
    each axis center on its own, the same on every grid line."""
    p = np.array([float(potential.eval(np.array([x]))) for x in grid.axis_centers()])
    d = p[1:] - p[:-1]
    if grid.dim == 1:
        return (d,)
    n = grid.n_cells
    return (np.broadcast_to(d[:, None], (n - 1, n)), np.broadcast_to(d[None, :], (n, n - 1)))


def reference_g(grid, potential):
    """Interface gradients (p(x_{i+1}) - p(x_i)) / h, shaped as reference_dphi."""
    return tuple(d / grid.h for d in reference_dphi(grid, potential))


def pair_slices(a):
    """The lower and the upper cells of every interface along axis a."""
    return tuple((slice(None),) * a + (ends,) for ends in (slice(None, -1), slice(1, None)))


def reference_scaled_divergence(v, grid, m, dphi):
    """h^2 times the flux divergence on the full grid, in the solver's float
    order: per axis h F = ((rho^m)_{i+1} - (rho^m)_i) + rho_up * dPhi, zero
    on every interface of the outer ring; the differences of h F summed
    over the axes, axis 0 first.  Nothing divides.  The step is
    v + this * (dt / h**2)."""
    rm = np.power(v, m)
    divs = []
    for a, d in enumerate(dphi):
        lo, hi = pair_slices(a)
        f = (rm[hi] - rm[lo]) + np.where(d > 0.0, v[hi], v[lo]) * d
        for b in range(grid.dim):
            f[(slice(None),) * b + (0,)] = f[(slice(None),) * b + (-1,)] = 0.0
        f = np.pad(f, [(1, 1) if b == a else (0, 0) for b in range(grid.dim)])
        divs.append(np.diff(f, axis=a))
    return sum(divs[1:], divs[0])


def reference_flux_divergence(v, grid, m, g):
    """The solver's former 1D and 2D flux-divergence bodies, kept verbatim:
    F = ((rho^m)_{i+1} - (rho^m)_i) / h + rho_up * g, and (F_hi - F_lo) / h.
    The former step was v + dt * this."""
    h = grid.h
    rm = np.power(v, m)
    if grid.dim == 1:
        g = g[0]
        f = (rm[1:] - rm[:-1]) / h + np.where(g > 0.0, v[1:], v[:-1]) * g
        f[0] = f[-1] = 0.0
        return np.diff(np.concatenate(([0.0], f, [0.0]))) / h
    g0, g1 = g
    f0 = (rm[1:, :] - rm[:-1, :]) / h + np.where(g0 > 0.0, v[1:, :], v[:-1, :]) * g0
    f1 = (rm[:, 1:] - rm[:, :-1]) / h + np.where(g1 > 0.0, v[:, 1:], v[:, :-1]) * g1
    f0[0, :] = f0[-1, :] = 0.0
    f0[:, 0] = f0[:, -1] = 0.0
    f1[0, :] = f1[-1, :] = 0.0
    f1[:, 0] = f1[:, -1] = 0.0
    n = grid.n_cells
    z0 = np.zeros((1, n))
    z1 = np.zeros((n, 1))
    div0 = np.diff(np.concatenate([z0, f0, z0], axis=0), axis=0)
    div1 = np.diff(np.concatenate([z1, f1, z1], axis=1), axis=1)
    return (div0 + div1) / h


def free_energy(rho, phi, m, h):
    """The discrete free energy E_h = h^d sum(rho^m / (m - 1) + rho Phi) of
    a density field rho and the potential's cell values phi."""
    return h**rho.ndim * float(np.sum(rho**m / (m - 1.0) + rho * phi))


def same_bits(a, b):
    """Equal shapes and identical IEEE-754 bit patterns (signed zeros included)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def kernel_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 14))
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    grid = Grid(dim=dim, h=h, extent=n * h / 2.0)
    kind = draw(st.sampled_from(["quadratic", "zero", "polynomial"]))
    if kind == "quadratic":
        pot = make_quadratic_potential(draw(st.floats(0.01, 5.0)))
    elif kind == "zero":
        pot = make_zero_potential()
    else:
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
        pot = make_polynomial_potential(coeffs)
    # palettes with zeros force ties, empty cells and zero fluxes
    palette = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5)) + [0.0]
    v = np.array(draw(st.lists(st.sampled_from(palette), min_size=n**dim,
                               max_size=n**dim))).reshape(grid.shape)
    inner = (slice(1, -1),) * dim
    ring_zero = np.zeros(grid.shape)
    ring_zero[inner] = v[inner]
    m = draw(st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.01, 4.0))
    return grid, pot, ring_zero, m


class TestFluxKernelReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_bitwise_equal_to_full_grid_code(self, case):
        # fields reaching the ring's neighbors: windows touching the grid edge
        grid, pot, v, m = case
        dphi, out = _drift(grid, pot)
        ref_dphi = reference_dphi(grid, pot)
        assert len(ref_dphi) == grid.dim
        for a, ra in enumerate(ref_dphi):  # the one vector per grid, along axis a
            along = dphi.reshape((-1,) + (1,) * (grid.dim - 1 - a))
            assert same_bits(np.broadcast_to(along, ra.shape), ra)
        dense = out if grid.dim == 1 else np.add.outer(out, out)  # axis 0's rate + axis 1's
        np.testing.assert_array_equal(dense, reference_outflow(grid, pot), strict=True)
        ref = reference_scaled_divergence(v, grid, m, ref_dphi)
        stack = _Stack(v[None], grid, SolverConfig(m=m, potential=pot, t_end=1.0,
                                                   snapshot_every=1.0))
        outside = np.ones(grid.shape, dtype=bool)
        if stack.box is not None:
            win = _Window(stack, stack.box)
            assert same_bits(win.divergence(m)[0], ref[win.cells])
            outside[win.cells] = False
        assert same_bits(ref[outside], np.zeros(np.count_nonzero(outside)))

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), st.sampled_from([1.0, 10.0]))
    def test_step_within_rounding_of_the_former_step(self, case, overshoot):
        # the division-free order moves each cell by rounding only
        grid, pot, v, m = case
        cfg = SolverConfig(m=m, potential=pot, t_end=1.0, snapshot_every=1.0)
        dt = overshoot * cfl_dt(Field(grid, v, FieldVariable.DENSITY), cfg)
        dphi, k = reference_dphi(grid, pot), dt / grid.h**2
        new = v + reference_scaled_divergence(v, grid, m, dphi) * k
        former = v + dt * reference_flux_divergence(v, grid, m, reference_g(grid, pot))
        # Rounding, in units u of T, the sum over the cell's interfaces of
        # |(rho^m)_{i+1} - (rho^m)_i| + |rho_up * dPhi|, times k: the former
        # flux carries 3 u (two quotients and the sum), its difference, the
        # axis sum, / h and * dt 1 u each: 7 u; the new h F 2 u, the
        # difference and the axis sum 1 u each, dt / h^2 2 u and the product
        # 1 u: 7 u.  Each final sum adds 1 u of |v| + k T: under 17 u of
        # |v| + k T in all; and where a result is subnormal, an absolute
        # 2^-1075 per rounding, times at most k: 16 of them.
        rm, terms = np.power(v, m), np.zeros(grid.shape)
        for a, d in enumerate(dphi):
            lo, hi = pair_slices(a)
            t = np.abs(rm[hi] - rm[lo]) + np.abs(np.where(d > 0.0, v[hi], v[lo]) * d)
            t = np.pad(t, [(1, 1) if b == a else (0, 0) for b in range(grid.dim)])
            terms += t[lo] + t[hi]
        u = np.finfo(float).eps / 2.0
        bound = 17.0 * u * (v + k * terms) + 8.0 * 2.0**-1074 * max(1.0, k)
        assert np.all(np.abs(new - former) <= bound)
        if np.any(new != former):
            event("some cell moved")

    def test_drift_data_is_one_vector_per_grid(self):
        grid = Grid(dim=2, h=0.01, extent=2.0)
        dphi, out = _drift(grid, make_quadratic_potential(1.0))
        assert (dphi.shape, out.shape) == ((399,), (400,))


def reference_step(v, grid, m, pot, dt):
    """One full-grid step with the reference kernel, clipped as the solver
    clips (every negative cell, whatever its mass): the stepped values and
    the clipped mass."""
    scaled = reference_scaled_divergence(v, grid, m, reference_dphi(grid, pot))
    new = v + scaled * (dt / grid.h**2)
    neg = new < 0.0
    if not np.any(neg):
        return new, 0.0
    return np.where(neg, 0.0, new), -grid.cell_volume * float(np.sum(new[neg]))


def reference_outflow(grid, potential):
    """Each cell's upwind outflow rate, sum over axes of
    max(-g_{i+1/2}, 0) + max(g_{i-1/2}, 0), on the full grid from
    reference_g, with zero-flux walls past the grid's outer interfaces."""
    total = 0.0
    for a, g in enumerate(reference_g(grid, potential)):
        pad = [(0, 0)] * grid.dim
        pad[a] = (1, 1)
        walls = np.pad(g, pad)
        every = (slice(None),) * a
        total = total + (np.maximum(-walls[every + (slice(1, None),)], 0.0)
                         + np.maximum(walls[every + (slice(None, -1),)], 0.0))
    return total


def reference_dt(members, grid, cfg):
    """The shared step for fields ``members``, written out: cfl_safety over
    the rate 2 dim m T^(m-1) / h^2 + O / h, with T the largest value of any
    member and O the largest outflow rate over the members' union support
    box, capped at the cadence; and whether the drift term is the larger."""
    h, dim, m = grid.h, grid.dim, cfg.m
    union = np.any(np.stack(members) > 0.0, axis=0)
    outflow = 0.0
    if union.any():
        box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(union))
        outflow = float(reference_outflow(grid, cfg.potential)[box].max())
    diffusion = 2.0 * dim * m * max(float(v.max()) for v in members) ** (m - 1.0) / h**2
    rate = diffusion + outflow / h
    dt = min(cfg.snapshot_every, cfg.cfl_safety / rate) if rate > 0.0 else cfg.snapshot_every
    return dt, outflow / h > diffusion


def kernel_diagonal(grid, dphi, cells):
    """Per cell of the mask ``cells``, the coefficients a_i and c_i of
    rho_i in the reference kernel's divergence

        div_i = -a_i rho_i^m - c_i rho_i + (terms of the neighbors):

    at m = 1 a unit field in cell i reads -a_i without drift and
    -(a_i + c_i) with it.  The diagonal rate -d(div_i)/d(rho_i) is then
    m a_i rho_i^(m-1) + c_i."""
    zero, h2 = tuple(np.zeros(d.shape) for d in dphi), grid.h**2
    a, c = np.zeros(grid.shape), np.zeros(grid.shape)
    for i in zip(*np.nonzero(cells)):
        unit = np.zeros(grid.shape)
        unit[i] = 1.0
        a[i] = -reference_scaled_divergence(unit, grid, 1.0, zero)[i] / h2
        c[i] = -reference_scaled_divergence(unit, grid, 1.0, dphi)[i] / h2 - a[i]
    return a, c


@st.composite
def stack_cases(draw):
    """B fields with supports anywhere off the two-cell margin, some with
    values below 1e-12 of their max inside it, under a random polynomial,
    steep or not."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 16))
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    grid = Grid(dim=dim, h=h, extent=n * h / 2.0)
    # steep: the advective limit binds on some or all steps
    steep = draw(st.sampled_from([1.0, 40.0]))
    pot = Potential(tuple(steep * c for c in draw(st.lists(st.floats(-3.0, 3.0),
                                                          min_size=1, max_size=5))))
    m = draw(st.sampled_from([1.5, 2.0, 3.0, 4.0]) | st.floats(1.01, 4.0))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        v = np.zeros(grid.shape)
        box = []
        for _ in range(dim):
            lo = draw(st.integers(2, n - 3))
            box.append(slice(lo, draw(st.integers(lo, n - 3)) + 1))
        shape = tuple(b.stop - b.start for b in box)
        size = int(np.prod(shape))
        palette = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)) + [0.0]
        v[tuple(box)] = np.reshape(draw(st.lists(st.sampled_from(palette),
                                                 min_size=size, max_size=size)), shape)
        if v.max() > 0.0 and draw(st.booleans()):
            # a value inside the margin, too small to count as support
            axis = draw(st.integers(0, dim - 1))
            idx = [draw(st.integers(1, n - 2)) for _ in range(dim)]
            idx[axis] = draw(st.sampled_from([1, n - 2]))
            v[tuple(idx)] = draw(st.floats(1e-300, 1e-13)) * v.max()
        members.append(v)
    cfg = SolverConfig(m=m, potential=pot, t_end=1.0, snapshot_every=1.0)
    return grid, cfg, members


def one_cell_case(grid, i, value, cfg):
    """A stack case of one member with one positive cell, at flat index i."""
    v = np.zeros(grid.shape)
    v.flat[i] = value
    return grid, cfg, [v]


def faded_face_case(mirror):
    """1D: one face of the box is the least subnormal, with empty cells on
    both sides, which the inward drift empties in one step; the other face,
    1e-200, keeps its value and its zero outside (its rho^m underflows)."""
    grid = Grid(dim=1, h=0.1, extent=0.8)
    v = np.zeros(grid.shape)
    v[6:10], v[3], v[12] = 1.0, 5e-324, 1e-200
    cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(200.0), t_end=1.0,
                       snapshot_every=1.0)
    return grid, cfg, [v[::-1].copy() if mirror else v]


class TestWindowedStep:
    @settings(max_examples=300, deadline=None)
    @given(stack_cases(), st.sampled_from([1.0, 10.0]))
    def test_bitwise_equal_to_full_grid_step(self, case, overshoot):
        # overshoot 10 steps far past the CFL limit: values go negative and are clipped
        grid, cfg, members = case
        stack = _Stack(np.stack(members), grid, cfg)
        dt, _ = reference_dt(members, grid, cfg)
        assert stack.cfl_dt() == dt
        assert dt <= min(cfl_dt(Field(grid, v, FieldVariable.DENSITY), cfg) for v in members)
        stack.step(overshoot * dt)
        for v, stepped, clipped in zip(members, stack.v, stack.clipped_cum):
            ref, ref_clipped = reference_step(v, grid, cfg.m, cfg.potential, overshoot * dt)
            assert same_bits(stepped, ref)
            assert clipped == ref_clipped
        if any(stack.clipped_cum):
            event("clipped")

    @settings(max_examples=150, deadline=None)
    @given(stack_cases())
    def test_twenty_steps_bitwise_equal_to_full_grid_steps(self, case):
        grid, cfg, members = case
        stack = _Stack(np.stack(members), grid, cfg)
        clipped_cum = [0.0] * len(members)
        event(f"B = {len(members)}")
        for _ in range(20):
            if not stack.margin_ok():
                break
            dt, advective = reference_dt(members, grid, cfg)
            assert stack.cfl_dt() == dt
            if advective:
                event("drift term is the larger")
            if stack.box is not None and any(lo <= 2 or hi >= grid.n_cells - 2
                                             for lo, hi in stack.box):
                event("window touches the grid edge")
            box = stack.box
            stack.step(dt)
            if stack.box != box:
                event("box changes")
            for b, v in enumerate(members):
                members[b], clipped = reference_step(v, grid, cfg.m, cfg.potential, dt)
                clipped_cum[b] += clipped
                assert same_bits(stack.v[b], members[b])
            assert stack.clipped_cum == clipped_cum

    @settings(max_examples=200, deadline=None)
    @given(stack_cases())
    def test_window_drift_data(self, case):
        # the sum of the axes' maxima is the dense per-cell max, bit for bit
        grid, cfg, members = case
        stack = _Stack(np.stack(members), grid, cfg)
        if stack.box is None:
            reject()
        win = stack._window()
        box = tuple(slice(lo, hi) for lo, hi in stack.box)
        assert win.outflow == float(reference_outflow(grid, cfg.potential)[box].max())
        stack.cfl_dt()
        assert stack._window() is win  # one window per box serves cfl_dt and step

    @settings(max_examples=100, deadline=None)
    @given(stack_cases(), st.floats(0.05, 1.0))
    @example(one_cell_case(Grid(dim=1, h=0.05, extent=0.225), 4, 5.96046448e-08, SolverConfig(
        m=2.0, potential=Potential((0.0, 0.0, -0.0078125, 1.0, -2.101386799162184)),
        t_end=1.0, snapshot_every=1.0)), 0.0625)  # dt * rate = safety * (1 + 1.7e-12)
    def test_dt_within_every_cells_diagonal_rate(self, case, safety):
        # the step is monotone where it matters: in every cell that holds mass
        grid, cfg, members = case
        cfg = replace(cfg, cfl_safety=safety)
        support = np.any(np.stack(members) > 0.0, axis=0)
        a, c = kernel_diagonal(grid, reference_dphi(grid, cfg.potential), support)
        dt = _Stack(np.stack(members), grid, cfg).cfl_dt()
        # Rounding, in units u of the terms' magnitudes: the kernel's a carries
        # 2 u (h^2 and the quotient) and its c, a difference of two kernel
        # outputs, 6 u of a + |c| (h F, its difference, the axis sum, / h^2);
        # the diffusion term adds 7 u of itself (m * a, the power, the product)
        # and the sum 1 u: under 16 u in all.  The solver's rate carries 8 u,
        # dt and dt * rate 1 u each: under 16 u of safety.
        u = np.finfo(float).eps / 2.0
        rate = 0.0
        for v in members:
            diffusion = cfg.m * a * v ** (cfg.m - 1.0)
            exact_at_least = diffusion + c - 16.0 * u * (diffusion + a + np.abs(c))
            rate = max(rate, float(np.max(exact_at_least)))
        assert dt * rate <= safety * (1.0 + 16.0 * u)
        if dt * rate >= 0.5 * safety:
            event("within 2x of the exact rate")

    @settings(max_examples=150, deadline=None)
    @given(stack_cases(), st.booleans(), st.sampled_from([None, 0, -1]),
           st.sampled_from([1.0, 1.0, 4.0]))
    @example(faded_face_case(mirror=False), False, None, 1.0)
    @example(faded_face_case(mirror=True), False, None, 1.0)
    def test_rim_tracking_equals_a_full_scan(self, case, empty_member, fading, overshoot):
        # after every step the box and the largest value are a full scan's, and
        # the window is scanned in full only where the box changed or a value
        # was clipped; overshoot 4 makes negative values, some on the box's
        # faces, and the least subnormal on a face can round to zero unclipped
        grid, cfg, members = case
        members = members + [np.zeros(grid.shape)] * empty_member
        if fading is not None and members[0].any():  # its first or last positive cell
            members[0].flat[np.flatnonzero(members[0])[fading]] = 5e-324
        stack = _Stack(np.stack(members), grid, cfg)
        scans, full = [], stack._track
        stack._track = lambda w, starts: scans.append(starts) or full(w, starts)
        if empty_member:
            event("an all-zero member")
        dphi = reference_dphi(grid, cfg.potential)
        for _ in range(20):
            if not stack.margin_ok():
                break
            box, scanned, dt = stack.box, len(scans), overshoot * stack.cfl_dt()
            if box is not None and any(lo <= 2 or hi >= grid.n_cells - 2 for lo, hi in box):
                event("window touches the grid edge")
            if box is not None and min(hi - lo for lo, hi in box) < 3:
                event("box thinner than 3 cells")
            clipping = any(np.any(v + reference_scaled_divergence(v, grid, cfg.m, dphi)
                                  * (dt / grid.h**2) < 0.0) for v in stack.v)
            stack.step(dt)
            ref = _Stack(stack.v.copy(), grid, cfg)
            assert (stack.box, stack.top) == (ref.box, ref.top)
            if clipping:
                event("clipped" + (", box changed" if stack.box != box else ""))
            elif stack.box == box:
                assert len(scans) == scanned
                event("the rim test kept the box")
            else:
                event("box changed, nothing clipped")

    @settings(max_examples=100, deadline=None)
    @given(stack_cases())
    def test_cells_outside_box_plus_one_never_change(self, case):
        grid, cfg, members = case
        stack = _Stack(np.stack(members), grid, cfg)
        for _ in range(20):
            if not stack.margin_ok():
                break
            before, box = stack.v.copy(), stack.box
            stack.step(stack.cfl_dt())
            near = np.zeros(grid.shape, dtype=bool)
            if box is not None:
                near[tuple(slice(max(lo - 1, 0), hi + 1) for lo, hi in box)] = True
            assert same_bits(stack.v[:, ~near], before[:, ~near])
            support = np.nonzero(np.any(stack.v > 0.0, axis=0))
            assert stack.box == (tuple((int(i.min()), int(i.max()) + 1) for i in support)
                                 if support[0].size else None)


@st.composite
def driftless_cases(draw):
    """A density field of a random palette on a box at least two cells off
    the margin, with Phi = 0, m in [1.1, 4] and cfl_safety in [0.001, 1]."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(10, 20 if dim == 2 else 40))
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    grid = Grid(dim=dim, h=h, extent=n * h / 2.0)
    box = []
    for _ in range(dim):
        lo = draw(st.integers(4, n - 5))
        box.append(slice(lo, draw(st.integers(lo, n - 5)) + 1))
    shape = tuple(b.stop - b.start for b in box)
    size = math.prod(shape)
    palette = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)) + [0.0]
    v = np.zeros(grid.shape)
    v[tuple(box)] = np.reshape(draw(st.lists(st.sampled_from(palette), min_size=size,
                                             max_size=size)), shape)
    cfg = SolverConfig(m=draw(st.floats(1.1, 4.0)), potential=make_zero_potential(),
                       t_end=1.0, snapshot_every=1.0,
                       cfl_safety=draw(st.just(1.0) | st.floats(1e-3, 1.0)))
    return grid, cfg, v


class TestFreeEnergy:
    @settings(max_examples=200, deadline=None)
    @given(driftless_cases(), st.integers(1, 6))
    def test_no_rise_without_drift(self, case, steps):
        # At Phi = 0 the step is conservative and monotone, with constants as
        # fixed points, so every convex entropy, E_h among them, is
        # non-increasing (Crandall & Tartar, Proc. AMS 78 (1980)).  Rounding:
        # each stepped cell is within 8 u (rho_i + k T_i) of the exact step,
        # T_i the cell's interface terms |(rho^m)_{i+1} - (rho^m)_i| and
        # k = dt / h^2 (see test_step_within_rounding_of_the_former_step),
        # which moves E_h by E_h'(rho_i) = m / (m - 1) rho_i^(m-1) per unit,
        # taken at the larger of the two values and doubled; each E_h sums N
        # positive terms, within (N + 2) u of their sum.
        grid, cfg, v = case
        m, u = cfg.m, np.finfo(float).eps / 2.0
        phi = np.zeros(grid.shape)
        stack = _Stack(v[None].copy(), grid, cfg)
        for _ in range(steps):
            if not stack.margin_ok():
                break
            before = stack.v[0].copy()
            dt = stack.cfl_dt()
            stack.step(dt)
            after = stack.v[0]
            rm, terms = np.power(before, m), np.zeros(grid.shape)
            for a in range(grid.dim):
                lo, hi = pair_slices(a)
                t = np.pad(np.abs(rm[hi] - rm[lo]),
                           [(1, 1) if b == a else (0, 0) for b in range(grid.dim)])
                terms += t[lo] + t[hi]
            slope = m / (m - 1.0) * np.maximum(before, after) ** (m - 1.0)
            e0, e1 = (free_energy(r, phi, m, grid.h) for r in (before, after))
            moved = grid.cell_volume * float(np.sum(slope * (before + dt / grid.h**2 * terms)))
            bound = u * (16.0 * moved + (before.size + 2) * (e0 + e1))
            assert e1 - e0 <= bound, (e0, e1, bound)
            event("E_h fell" if e1 < e0 else "E_h rose within rounding" if e1 > e0
                  else "E_h kept")


def empty_density(grid):
    return Field(grid, np.zeros(grid.shape), FieldVariable.DENSITY)


class TestCflDt:
    def test_empty_field_capped_at_snapshot(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=0.25)
        assert cfl_dt(empty_density(g), cfg) == 0.25

    def test_diffusion_limited_value(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = np.zeros(20)
        v[8:12] = 1.0
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=10.0)
        # 0.8 / (2 * dim * m * rho_max^(m-1) / h^2) = 0.8 * 0.01 / 4
        assert cfl_dt(rho, cfg) == pytest.approx(2e-3, rel=1e-12)

    def test_drift_limited_value_reads_the_interface_gradient(self):
        # Phi = -10 x^2 drives mass out of the cell at x = 0.55 through its
        # right interface, into an empty cell: |g| there is 10 (0.55 + 0.65)
        # = 12, above the cell-center |grad Phi| = 11
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = np.zeros(20)
        v[15] = 1e-3
        assert g.axis_centers()[15] == pytest.approx(0.55)
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=Potential((0.0, 0.0, -10.0)),
                           t_end=1.0, snapshot_every=10.0)
        diffusion = 2.0 * 2.0 * 1e-3 / 0.01
        assert cfl_dt(rho, cfg) == pytest.approx(0.8 / (diffusion + 12.0 / 0.1), rel=1e-12)
        assert cfl_dt(rho, cfg) < 0.8 / (diffusion + 11.0 / 0.1)

    def test_rate_rounding_to_zero_leaves_the_cadence(self):
        # 5e-324 ** 2 is 0.0, and no drift: the rate is 0.0, not a divisor
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = np.zeros(20)
        v[10] = 5e-324
        cfg = SolverConfig(m=3.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=0.25)
        assert cfl_dt(Field(g, v, FieldVariable.DENSITY), cfg) == 0.25

    def test_doubling_h_quadruples_dt_when_diffusion_limited(self):
        def dt_for(h):
            g = Grid(dim=1, h=h, extent=2.0)
            v = np.zeros(g.n_cells)
            v[g.n_cells // 2] = 1.0
            rho = Field(g, v, FieldVariable.DENSITY)
            cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                               t_end=1.0, snapshot_every=100.0)
            return cfl_dt(rho, cfg)

        assert dt_for(0.2) == pytest.approx(4.0 * dt_for(0.1), rel=1e-12)


class TestStepDensity:
    def test_zero_is_fixed_point(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                           t_end=1.0, snapshot_every=0.5)
        rho = empty_density(g)
        out = step_density_report(rho, cfg, cfl_dt(rho, cfg)).field
        np.testing.assert_array_equal(out.values, 0.0)

    def test_step_too_large(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = np.zeros(20)
        v[9:11] = 1.0
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=1.0)
        with pytest.raises(StepTooLargeError):
            step_density_report(rho, cfg, 10.0 * cfl_dt(rho, cfg))

    def test_domain_overflow(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = np.zeros(20)
        v[1:19] = 0.5  # support inside the ring but within the two-cell margin
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=1.0)
        with pytest.raises(DomainOverflowError):
            step_density_report(rho, cfg, 1e-6)

    def test_negative_cell_whose_mass_rounds_to_zero_is_clipped(self):
        # the step leaves -5e-324 in cell 15, and h * 5e-324 rounds to 0.0
        g = Grid(dim=1, h=0.1, extent=2.0)
        v = np.zeros(g.shape)
        v[15] = 7.95e-322
        rho = Field(g, v, FieldVariable.DENSITY)
        pot = Potential((-0.6885810028793834, -3.439898427442249, -4.296118082563625))
        cfg = SolverConfig(m=2.0, potential=pot, t_end=1.0, snapshot_every=1.0,
                           cfl_safety=1.0)
        dt = cfl_dt(rho, cfg)
        stack = _Stack(v[None].copy(), g, cfg)
        stack.step(dt)
        assert stack.v[0, 15] == 0.0 and stack.clipped_cum == [0.0]
        assert np.all(stack.v >= 0.0)
        rep = step_density_report(rho, cfg, dt)
        assert rep.clipped_mass == 0.0 and rep.field.values[15] == 0.0

    def test_mass_and_positivity(self):
        g = Grid(dim=2, h=0.1, extent=1.0)
        rho = bump_density(g, amplitude=0.8, width=0.5)
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                           t_end=1.0, snapshot_every=1.0)
        rep = step_density_report(rho, cfg, cfl_dt(rho, cfg))
        # pre-clip mass change within the same 1e-12 relative budget
        mass = integrate(rho)
        assert abs(integrate(rep.field) - rep.clipped_mass - mass) <= 1e-12 * mass
        assert rep.clipped_mass <= 1e-12 * integrate(rho)
        assert np.all(rep.field.values >= 0.0)

    def test_one_step_matches_barenblatt(self):
        # frozen constant from the closed-form oracle: error <= 1.0 (dt^2 + dt h)
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=1.0)
        for h in (0.1, 0.05):
            g = Grid(dim=1, h=h, extent=4.0)
            rho0 = barenblatt_density(g, spec)
            dt = cfl_dt(rho0, cfg)
            stepped = step_density_report(rho0, cfg, dt).field
            exact = barenblatt_density(g, spec, t=dt)
            err = h * float(np.sum(np.abs(stepped.values - exact.values)))
            assert err <= 1.0 * (dt * dt + dt * h)

    def test_equilibrium_near_stationarity(self):
        # dual route: the update must equal dt times the independently
        # evaluated flux divergence, whose size is the stationarity defect
        pot = make_quadratic_potential(1.0)
        h = 0.05
        g = Grid(dim=1, h=h, extent=2.0)
        rho = equilibrium_offset_density(g, 2.0, pot, mass=0.5)
        cfg = SolverConfig(m=2.0, potential=pot, t_end=1.0, snapshot_every=1.0)
        dt = cfl_dt(rho, cfg)
        stepped = step_density_report(rho, cfg, dt).field
        div = loop_flux_divergence(rho.values, g, 2.0, pot)
        np.testing.assert_allclose(stepped.values, rho.values + dt * div,
                                   rtol=0, atol=1e-15)
        # frozen truncation constant at h = 0.05 (measured max|div| / h = 7.3)
        assert float(np.max(np.abs(stepped.values - rho.values))) <= 12.0 * dt * h


class TestSimulate:
    def test_horizon_smaller_than_cadence(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        rho = bump_density(g, amplitude=0.5, width=0.4)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=0.05, snapshot_every=0.1)
        traj = simulate(rho, cfg)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_snapshot_times_and_mass(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        rho = bump_density(g, amplitude=0.5, width=0.6)
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                           t_end=0.5, snapshot_every=0.1)
        traj = simulate(rho, cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        m0 = traj.snapshots[0].mass
        assert all(abs(s.mass - m0) <= 1e-10 * m0 for s in traj.snapshots)
        assert traj.clipped_total <= 1e-8 * m0
        assert all(np.all(s.field.values >= 0) for s in traj.snapshots)

    def test_refinement_against_closed_form(self):
        # L1 error monotone nonincreasing across h in {0.2, 0.1, 0.05} and
        # Linf error shrinking by >= 1.5x per halving
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        errs_l1, errs_inf = [], []
        for h in (0.2, 0.1, 0.05):
            g = Grid(dim=1, h=h, extent=4.0)
            cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                               t_end=0.5, snapshot_every=0.25)
            traj = simulate(barenblatt_density(g, spec), cfg)
            exact = barenblatt_density(g, spec, t=0.5)
            diff = np.abs(traj.final.field.values - exact.values)
            errs_l1.append(h * float(np.sum(diff)))
            errs_inf.append(float(np.max(diff)))
        assert errs_l1[0] >= errs_l1[1] >= errs_l1[2]
        assert errs_inf[0] / errs_inf[1] >= 1.5
        assert errs_inf[1] / errs_inf[2] >= 1.5

    @pytest.mark.parametrize("dim", [1, 2])
    def test_snapshots_are_not_views_of_the_live_window(self, dim):
        # stepping on after a snapshot leaves it as it was: a run that ends
        # there records the same values, and no two snapshots share memory
        grid = Grid(dim=dim, h=0.1, extent=1.5)
        lo, hi = (bump_density(grid, amplitude=a, width=w) for a, w in ((0.3, 0.4), (0.6, 0.5)))
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(0.5),
                           t_end=0.3, snapshot_every=0.05)
        short = _simulate_stack((lo, hi), replace(cfg, t_end=0.1))
        for run, ended in zip(_simulate_stack((lo, hi), cfg), short):
            values = [s.field.values for s in run.snapshots]
            assert all(same_bits(v, s.field.values) for v, s in zip(values, ended.snapshots))
            assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(values, 2))
            assert not same_bits(values[2], values[-1])

    def test_error_annotated_with_time(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        g = Grid(dim=1, h=0.05, extent=3.0)  # support will hit the margin
        rho0 = barenblatt_density(g, spec)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=2.0, snapshot_every=0.1)
        with pytest.raises(DomainOverflowError, match="at t ="):
            simulate(rho0, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_raises_before_a_step(self, bad, monkeypatch):
        # a NaN cell once passed: the diffusive CFL limit was skipped and the mass was NaN
        steps = []
        monkeypatch.setattr(_Stack, "step", lambda self, dt: steps.append(dt))
        g = Grid(dim=1, h=0.1, extent=1.0)
        v = bump_density(g, amplitude=0.5, width=0.4).values.copy()
        v[10] = bad
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=0.5, snapshot_every=0.1)
        with pytest.raises(InvalidInputError):
            simulate(Field(g, v, FieldVariable.DENSITY), cfg)
        assert steps == []

    def test_trajectory_invariants_enforced(self):
        g = Grid(dim=1, h=0.1, extent=1.0)
        rho = bump_density(g, amplitude=0.5, width=0.4)
        snap = lambda t, mass: type(
            "S", (), {"t": t, "field": rho, "mass": mass, "clipped_cum": 0.0}
        )()
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=1.0, snapshot_every=0.5)
        with pytest.raises(InvalidInputError):
            Trajectory((snap(0.0, 1.0), snap(0.0, 1.0)), cfg)
        with pytest.raises(InvalidInputError):
            Trajectory((snap(0.0, 1.0), snap(0.5, 1.1)), cfg)
        # one unit 2^-1074 of drift on a subnormal mass is rounding; a leak of
        # 2e-10 of a normal mass, or of two subnormal floors, still raises
        floor = 1e-10 * rho.values.size * g.cell_volume * 2.0**-1022
        Trajectory((snap(0.0, 1.67e-314), snap(0.5, 1.67e-314 + 2.0**-1074)), cfg)
        for m0, leak in ((1.0, 2e-10), (1e-300, 2e-310), (1.67e-314, 2.0 * floor)):
            with pytest.raises(InvalidInputError, match="mass drift"):
                Trajectory((snap(0.0, m0), snap(0.5, m0 + leak)), cfg)

    def test_step_rate_overflow_is_typed(self):
        # 1e160^(m-1) at m 3 overflows a float power: a PmedError, not OverflowError
        g = Grid(dim=1, h=0.1, extent=2.0)
        v = np.zeros(g.shape)
        v[18:22] = 1e160
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=3.0, potential=make_zero_potential(),
                           t_end=0.1, snapshot_every=0.05)
        for call in (simulate, cfl_dt):
            with pytest.raises(InvalidInputError, match="step rate is not finite"):
                call(rho, cfg)

    def test_step_rate_overflow_in_a_product_is_typed(self):
        # 1e306^(m-1) at m 2 is finite, but 2 dim m 1e306 / h^2 overflows to
        # inf: the same typed error, not a step of 0.0 that stalls
        g = Grid(dim=1, h=0.1, extent=2.0)
        v = np.zeros(g.shape)
        v[18:22] = 1e306
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=0.1, snapshot_every=0.05)
        for call in (simulate, cfl_dt):
            with pytest.raises(InvalidInputError, match="step rate is not finite: the "
                               "largest density 1e[+]306 at m = 2.0 gives a rate"):
                call(rho, cfg)


    def test_step_scale_overflow_is_typed(self):
        # h^2 = 1e-310 and a cadence of 0.1: 1e-200^(m-1) rounds to 0, so the
        # step is the cadence, and dt / h^2 overflows a float; inf times the
        # zero divergence would turn every window cell into NaN
        g = Grid(dim=1, h=1e-155, extent=1e-154)
        v = np.zeros(g.shape)
        v[9:11] = 1e-200
        rho = Field(g, v, FieldVariable.DENSITY)
        cfg = SolverConfig(m=3.0, potential=make_zero_potential(),
                           t_end=0.1, snapshot_every=0.1)
        assert cfl_dt(rho, cfg) == 0.1
        for call in (simulate, lambda r, c: step_density_report(r, c, 0.1)):
            with pytest.raises(InvalidInputError, match="step scale dt / h\\^2 .* is not finite"):
                call(rho, cfg)


def assert_one_frozen_buffer(trajectories, inputs):
    """The first snapshot of each run is its input; every later one is a
    read-only slice of one read-only buffer that owns its memory."""
    bases = set()
    for traj, rho in zip(trajectories, inputs, strict=True):
        assert traj.snapshots[0].field is rho
        for snap in traj.snapshots[1:]:
            v = snap.field.values
            assert not v.flags.writeable and not v.base.flags.writeable
            assert v.base.base is None
            bases.add(id(v.base))
    assert len(bases) == 1


class TestSnapshotBuffer:
    def cfg(self):
        return SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                            t_end=0.3, snapshot_every=0.1)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_simulate(self, dim):
        rho = bump_density(Grid(dim=dim, h=0.1, extent=2.0), amplitude=0.5, width=0.6)
        traj = simulate(rho, self.cfg())
        assert len(traj.snapshots) == 4
        assert_one_frozen_buffer([traj], [rho])

    def test_comparison_harness(self, monkeypatch):
        import pmed.solver as solver
        runs = []

        def recording(fields, cfg):
            runs.append(_simulate_stack(fields, cfg))
            return runs[-1]

        monkeypatch.setattr(solver, "_simulate_stack", recording)
        g = Grid(dim=1, h=0.05, extent=2.0)
        lo, hi = (bump_density(g, amplitude=a, width=0.6) for a in (0.4, 0.5))
        assert comparison_harness(lo, hi, self.cfg()).ordered
        [trajectories] = runs
        assert_one_frozen_buffer(trajectories, (lo, hi))


class TestWeakResidual:
    def test_constant_test_function_is_mass_drift(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        rho = bump_density(g, amplitude=0.5, width=0.6)
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                           t_end=0.3, snapshot_every=0.1)
        traj = simulate(rho, cfg)
        res = weak_residual(traj, SpaceTimeTestFunction.constant())
        drift = abs(traj.final.mass - traj.snapshots[0].mass)
        assert res == pytest.approx(drift, abs=1e-14)
        assert res <= 1e-10 * traj.snapshots[0].mass

    def test_smooth_test_function_small_residual(self):
        L = 4.0
        k = np.pi / (2 * L)
        phi = SpaceTimeTestFunction(
            value=lambda x, t: np.cos(k * x[..., 0]),
            dt=lambda x, t: np.zeros(x.shape[:-1]),
            grad=lambda x, t: (-k * np.sin(k * x[..., 0]))[..., None],
            lap=lambda x, t: -(k ** 2) * np.cos(k * x[..., 0]),
        )
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        g = Grid(dim=1, h=0.05, extent=L)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=0.5, snapshot_every=0.05)
        traj = simulate(barenblatt_density(g, spec), cfg)
        assert weak_residual(traj, phi) <= 1e-4


class TestComparisonHarness:
    def cfg(self, dim=1):
        return SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                            t_end=0.3, snapshot_every=0.1)

    def test_identical_data(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        rho = bump_density(g, amplitude=0.5, width=0.6)
        rep = comparison_harness(rho, rho, self.cfg())
        assert rep.ordered
        assert rep.max_violation <= rep.tol_order

    def test_nested_barenblatts(self):
        g = Grid(dim=1, h=0.05, extent=4.0)
        lo = barenblatt_density(g, BarenblattSpec(m=2.0, d=1, tau=1.0, C=0.5))
        hi = barenblatt_density(g, BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0))
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(),
                           t_end=0.3, snapshot_every=0.1)
        rep = comparison_harness(lo, hi, cfg)
        assert rep.ordered
        assert rep.first_violation_time is None

    def test_bump_plus_offset(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        lo = bump_density(g, amplitude=0.4, width=0.6)
        hi = bump_density(g, amplitude=0.5, width=0.6)
        rep = comparison_harness(lo, hi, self.cfg())
        assert rep.ordered

    def test_unordered_input_rejected(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        lo = bump_density(g, amplitude=0.5, width=0.6)
        hi = bump_density(g, amplitude=0.4, width=0.6)
        with pytest.raises(InvalidInputError):
            comparison_harness(lo, hi, self.cfg())


@st.composite
def ordered_pairs(draw, cfl_safety=SolverConfig.cfl_safety):
    """lo <= hi cellwise: hi random on a central block, lo a cellwise fraction of it."""
    dim = draw(st.sampled_from([1, 2]))
    # room for the support to spread one cell per step, up to ~20 steps
    n = draw(st.integers(48, 64)) if dim == 1 else draw(st.integers(44, 52))
    grid = Grid(dim=dim, h=0.1, extent=n * 0.1 / 2.0)
    kind = draw(st.sampled_from(["quadratic", "zero", "polynomial"]))
    if kind == "quadratic":
        pot = make_quadratic_potential(draw(st.floats(0.1, 8.0)))
    elif kind == "zero":
        pot = make_zero_potential()
    else:
        pot = Potential(tuple(draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))))
    # a block off the potential's minimum, where the drift is strong, and
    # well off the margin
    inner = tuple(slice(c - 2, c + 3) for c in (n // 2 + draw(st.integers(-n // 5, n // 5))
                                                for _ in range(dim)))
    size = 5**dim
    hi, lo = np.zeros(grid.shape), np.zeros(grid.shape)
    hi[inner] = np.reshape(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)),
                           (5,) * dim)
    # lo is a cellwise fraction of hi, drawn only under hi's block: elsewhere
    # every fraction gives frac * 0.0 = +0.0
    frac = np.reshape(draw(st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0]) | st.floats(0.0, 1.0),
                                    min_size=size, max_size=size)), (5,) * dim)
    lo[inner] = frac * hi[inner]
    m = draw(st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.1, 4.0))
    # snapshots every step or two: a violation has no time to heal unseen
    cfg = SolverConfig(m=m, potential=pot, t_end=0.004, snapshot_every=0.0005,
                       cfl_safety=cfl_safety)
    as_field = lambda v: Field(grid, v, FieldVariable.DENSITY)
    return as_field(lo), as_field(hi), cfg


def assert_ordered_to_rounding(lo, hi, cfg):
    """Step lo and hi as one stack: at every snapshot lo - hi is at most
    4 ulp of max hi, and each run clips at most 1e-12 of its mass."""
    traj_lo, traj_hi = _simulate_stack((lo, hi), cfg)
    for a, b in zip(traj_lo.snapshots, traj_hi.snapshots):
        top = float(b.field.values.max())
        assert float(np.max(a.field.values - b.field.values)) <= 4.0 * np.spacing(top)
    for traj in (traj_lo, traj_hi):
        assert traj.clipped_total <= 1e-12 * traj.snapshots[0].mass


@st.composite
def spiked_pairs(draw):
    """lo <= hi at the monotonicity limit: hi a spike of height T on a lower
    block, lo the same but a fraction below T at the spike, m up to 4, and
    a linear drift whose outflow rate is up to the whole diffusive rate
    2 dim m T^(m-1) / h^2.  Every cell's outflow is then the same, so the
    spike's diagonal rate is the step bound's rate itself."""
    dim = draw(st.sampled_from([1, 2]))
    n = 20 if dim == 1 else 16
    h = draw(st.sampled_from([0.05, 0.1, 0.2]))
    grid = Grid(dim=dim, h=h, extent=n * h / 2.0)
    m = draw(st.sampled_from([1.5, 2.0, 3.0, 4.0]) | st.floats(1.1, 4.0))
    top = draw(st.floats(0.5, 2.0))
    block = (slice(n // 2 - 2, n // 2 + 3),) * dim
    hi = np.zeros(grid.shape)
    hi[block] = top * np.reshape(draw(st.lists(st.floats(0.0, 0.9), min_size=5**dim,
                                               max_size=5**dim)), (5,) * dim)
    spike = (n // 2,) * dim
    hi[spike] = top
    lo = hi.copy()
    lo[spike] = top * draw(st.sampled_from([0.9, 0.99]) | st.floats(0.5, 1.0))
    diffusive = 2.0 * dim * m * top ** (m - 1.0) / h**2
    share = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    slope = draw(st.sampled_from([1.0, -1.0])) * share * diffusive * h / dim
    cfg = SolverConfig(m=m, potential=Potential((0.0, slope)), t_end=1.0,
                       snapshot_every=1.0,
                       cfl_safety=draw(st.sampled_from([0.8, 1.0]) | st.floats(0.8, 1.0)))
    return grid, cfg, lo, hi


def subnormal_lo_case():
    """An ordered pair whose lo holds two subnormal cells: its mass 1.67e-314
    drifts by one unit 2^-1074, 3e-10 of itself (once refused as a leak)."""
    grid = Grid(dim=1, h=0.1, extent=2.4000000000000004)
    hi, lo = np.zeros(grid.shape), np.zeros(grid.shape)
    hi[22:27] = [1.0, 0.625, 1.0, 1.0, 0.125]
    lo[23], lo[26] = (float.fromhex(x) for x in ("0x0.000068db8bac7p-1022",
                                                 "0x0.000014f8b588ep-1022"))
    cfg = SolverConfig(m=1.5, potential=make_quadratic_potential(1.0), t_end=0.004,
                       snapshot_every=0.0005, cfl_safety=0.8)
    as_field = lambda v: Field(grid, v, FieldVariable.DENSITY)
    return as_field(lo), as_field(hi), cfg


class TestSharpComparison:
    # with one shared dt the scheme is monotone: lo - hi is rounding only
    @settings(max_examples=60, deadline=None, print_blob=True)
    @given(ordered_pairs())
    @example(subnormal_lo_case())
    def test_order_kept_to_rounding(self, case):
        try:
            assert_ordered_to_rounding(*case)
        except DomainOverflowError:
            reject()  # the run left the box: no ordering to check

    @settings(max_examples=100, deadline=None, print_blob=True)
    @given(ordered_pairs(cfl_safety=1.0))
    def test_order_kept_at_full_safety(self, case):
        try:
            assert_ordered_to_rounding(*case)
        except DomainOverflowError:
            reject()

    @settings(max_examples=100, deadline=None)
    @given(spiked_pairs())
    def test_order_kept_at_the_monotonicity_limit(self, case):
        # full cfl_dt steps, the cadence far off: lo - hi stays at rounding
        # after every step
        grid, cfg, lo, hi = case
        stack = _Stack(np.stack([lo, hi]), grid, cfg)
        for _ in range(4):
            if not stack.margin_ok():
                break
            stack.step(stack.cfl_dt())
            top = float(stack.v[1].max())
            assert float(np.max(stack.v[0] - stack.v[1])) <= 4.0 * np.spacing(top)

    def test_m4_spike_pair_stays_ordered(self):
        # the step bound needs its factor m: without it (dt 4e-3, not 1e-3)
        # this pair ends with lo - hi = 0.197 at the default safety
        grid = Grid(dim=1, h=0.1, extent=2.0)
        hi, lo = np.zeros(grid.shape), np.zeros(grid.shape)
        hi[19:22] = [0.5, 1.0, 0.5]
        lo[19:22] = [0.5, 0.9, 0.5]
        cfg = SolverConfig(m=4.0, potential=make_zero_potential(),
                           t_end=0.01, snapshot_every=0.01)
        as_field = lambda v: Field(grid, v, FieldVariable.DENSITY)
        assert_ordered_to_rounding(as_field(lo), as_field(hi), cfg)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(m=1.0), dict(cfl_safety=0.0), dict(cfl_safety=1.5),
        dict(t_end=0.0), dict(snapshot_every=0.0),
    ])
    def test_invalid(self, kwargs):
        base = dict(m=2.0, potential=make_zero_potential(),
                    t_end=1.0, snapshot_every=0.1)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            SolverConfig(**base)
