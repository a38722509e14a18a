"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from pmed.barriers import (
    BarenblattSpec,
    RescaledBarrierSpec,
    RescaleSpec,
    SpaceTimeBox,
    SphericalWaveSpec,
    barenblatt,
    build_barrier,
    residual_pmed,
    validate_wave_params,
)
from pmed.core import (
    Grid,
    density_from_pressure,
    integrate,
    make_quadratic_potential,
    make_zero_potential,
    pressure_from_density,
)
from pmed.freeboundary import (
    boundary_velocity,
    default_support_threshold,
    equilibrium_constant,
    equilibrium_profile,
    extract_boundary,
    hausdorff,
    sublevel_shell_check,
)
from pmed.initialdata import barenblatt_density, bump_density
from pmed.solver import SolverConfig, SpaceTimeTestFunction, simulate, weak_residual
from pmed.solver import comparison_harness
from test_solver import free_energy


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {name}", flush=True)
        raise
    print(f"[criterion {num}] PASS  {name}", flush=True)


BB = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
ZERO_POT = make_zero_potential()
QUAD = make_quadratic_potential(1.0)


@lru_cache(maxsize=8)
def barenblatt_run(h, snapshot_every):
    grid = Grid(dim=1, h=h, extent=4.0)
    cfg = SolverConfig(m=2.0, potential=ZERO_POT, t_end=0.5,
                       snapshot_every=snapshot_every)
    return simulate(barenblatt_density(grid, BB), cfg)


def l1_error_vs_exact(traj):
    grid = traj.final.field.grid
    exact = barenblatt_density(grid, BB, t=traj.final.t)
    return grid.h * float(np.sum(np.abs(traj.final.field.values - exact.values)))


def test_criterion_1_barenblatt_oracle():
    with criterion(1, "Barenblatt oracle: L1 error and refinement"):
        start = time.monotonic()
        coarse = barenblatt_run(0.05, 0.1)
        fine = barenblatt_run(0.025, 0.1)
        elapsed = time.monotonic() - start
        mass = coarse.snapshots[0].mass
        err_coarse = l1_error_vs_exact(coarse)
        err_fine = l1_error_vs_exact(fine)
        assert err_coarse <= 0.02 * mass
        assert err_coarse / err_fine >= 1.5
        assert elapsed <= 30.0


def test_criterion_2_mass_conservation():
    with criterion(2, "mass conservation and clipped-mass budget"):
        runs = [barenblatt_run(0.05, 0.1)]
        grid2 = Grid(dim=2, h=0.1, extent=2.0)
        cfg2 = SolverConfig(m=2.0, potential=QUAD, t_end=0.3, snapshot_every=0.1)
        runs.append(simulate(bump_density(grid2, amplitude=0.6, width=0.7), cfg2))
        for traj in runs:
            m0 = traj.snapshots[0].mass
            drift = max(abs(s.mass - m0) for s in traj.snapshots)
            assert drift <= 1e-10 * m0
            assert traj.clipped_total <= 1e-8 * m0
        # the bound is also enforced at construction for every run in the suite


def test_criterion_3_equilibrium_constant():
    with criterion(3, "equilibrium constant against the analytic mass law"):
        start = time.monotonic()
        grid = Grid(dim=1, h=2e-4, extent=2.0)
        c = equilibrium_constant(2.0 / 3.0, QUAD, 2.0, grid)
        assert abs(c - 1.0) <= 1e-6
        cs = [equilibrium_constant(mm, QUAD, 2.0, grid)
              for mm in (0.2, 0.4, 2.0 / 3.0, 1.0, 1.5)]
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert time.monotonic() - start <= 5.0


def test_criterion_4_comparison_principle():
    with criterion(4, "comparison principle on randomized ordered pairs"):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        reports = []

        grid1 = Grid(dim=1, h=0.05, extent=2.0)
        cfg1 = SolverConfig(m=2.0, potential=QUAD, t_end=0.5, snapshot_every=0.1)
        for k in range(6):
            amp = 0.3 + 0.4 * rng.random()
            width = 0.5 + 0.4 * rng.random()
            center = -0.4 + 0.8 * rng.random()
            hi = bump_density(grid1, amplitude=amp, width=width, center=center)
            if k % 2 == 0:
                lo = hi.with_values(hi.values * (0.3 + 0.6 * rng.random()))
            else:
                lo = bump_density(grid1, amplitude=0.8 * amp,
                                  width=0.8 * width, center=center)
            reports.append(comparison_harness(lo, hi, cfg1))

        grid2 = Grid(dim=2, h=0.1, extent=2.0)
        cfg2 = SolverConfig(m=2.0, potential=QUAD, t_end=0.2, snapshot_every=0.05)
        for k in range(4):
            amp = 0.3 + 0.4 * rng.random()
            width = 0.5 + 0.3 * rng.random()
            center = rng.uniform(-0.3, 0.3, size=2)
            hi = bump_density(grid2, amplitude=amp, width=width, center=center)
            if k % 2 == 0:
                lo = hi.with_values(hi.values * (0.3 + 0.6 * rng.random()))
            else:
                lo = bump_density(grid2, amplitude=0.7 * amp,
                                  width=0.9 * width, center=center)
            reports.append(comparison_harness(lo, hi, cfg2))

        assert len(reports) == 10
        assert all(r.ordered for r in reports)
        assert all(r.max_violation <= r.tol_order for r in reports)
        assert time.monotonic() - start <= 120.0


def test_criterion_5_finite_propagation():
    with criterion(5, "finite propagation inside the sublevel barrier"):
        c_barrier = 1.0
        grid = Grid(dim=1, h=0.05, extent=2.0)
        # initial support inside {Phi <= C - 0.2}, pressure below (C - Phi)_+
        rho0 = bump_density(grid, amplitude=0.4, width=np.sqrt(c_barrier - 0.2))
        u0 = pressure_from_density(rho0, 2.0).values
        phi = QUAD.eval(grid.centers())
        assert np.all(u0 <= np.maximum(c_barrier - phi, 0.0) + 1e-12)

        cfg = SolverConfig(m=2.0, potential=QUAD, t_end=2.0, snapshot_every=0.1)
        traj = simulate(rho0, cfg)
        for snap in traj.snapshots:
            # support cells above a fixed 1e-8 density stay inside the barrier
            support = snap.field.values > 1e-8
            assert np.any(support)
            assert float(phi[support].max()) <= c_barrier
            # shell machinery on the grid-scale boundary proxy: points inside
            # {0 <= Phi <= C}, expressed as the shell around C/2 of width C/2
            b = extract_boundary(snap.field, default_support_threshold(snap.field))
            assert sublevel_shell_check(b, QUAD, c_barrier / 2.0, c_barrier / 2.0)


def test_criterion_6_free_boundary_convergence():
    with criterion(6, "free boundary converges to the equilibrium support"):
        start = time.monotonic()
        h = 0.05
        grid = Grid(dim=1, h=h, extent=2.5)
        rho0 = bump_density(grid, amplitude=0.6, width=0.8, center=-0.3)
        mass = integrate(rho0)
        cfg = SolverConfig(m=2.0, potential=QUAD, t_end=8.0, snapshot_every=0.5)
        traj = simulate(rho0, cfg)

        eps_fb = 0.01
        prof = equilibrium_profile(mass, QUAD, 2.0, grid, eps_fb=eps_fb)
        final_b = extract_boundary(traj.final.field, eps_fb)
        d_final = hausdorff(final_b, prof.boundary)
        assert d_final <= 3.0 * h

        eps_shell = 5.0 * h * (1.0 + 2.0 * np.sqrt(prof.c_inf))
        assert sublevel_shell_check(final_b, QUAD, prof.c_inf, eps_shell)
        assert time.monotonic() - start <= 120.0


def test_criterion_6b_free_energy_gap():
    with criterion("6b", "free-energy gap to the sampled equilibrium shrinks with h"):
        # criterion 6's case at t = 8: E_h(rho) - E_h(rho_eq), relative to
        # |E_h(rho_eq)|, with rho_eq the cell-sampled equilibrium of the same
        # mass (E_h's minimizer); measured 1.591e-3, 4.116e-4 and 1.064e-4,
        # 3.9x per halving of h
        measured = {0.05: 1.591e-3, 0.025: 4.116e-4, 0.0125: 1.064e-4}
        cfg = SolverConfig(m=2.0, potential=QUAD, t_end=8.0, snapshot_every=0.5)
        gaps = []
        for h, gap_then in measured.items():
            grid = Grid(dim=1, h=h, extent=2.5)
            rho0 = bump_density(grid, amplitude=0.6, width=0.8, center=-0.3)
            eq = equilibrium_profile(integrate(rho0), QUAD, 2.0, grid).pressure
            phi = QUAD.eval(grid.centers())
            e_eq = free_energy(density_from_pressure(eq, 2.0).values, phi, 2.0, h)
            e_end = free_energy(simulate(rho0, cfg).final.field.values, phi, 2.0, h)
            gaps.append((e_end - e_eq) / abs(e_eq))
            assert 0.0 < gaps[-1] <= 2.0 * gap_then, (h, gaps[-1])
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps


def test_criterion_7a_barenblatt_residuals():
    with criterion(7, "(a) Barenblatt residuals for (m, d) grid"):
        for m in (1.5, 2.0, 3.0):
            for d in (1, 2):
                spec = BarenblattSpec(m=m, d=d, tau=1.0, C=1.0)
                ext = spec.support_radius(0.2) + 0.3
                box = SpaceTimeBox(lo=(-ext,) * d, hi=(ext,) * d,
                                   t_lo=0.0, t_hi=0.2)
                h_s = 0.02 if d == 1 else 0.025
                cand = build_barrier(spec)
                pot = make_zero_potential()
                rep = residual_pmed(cand, pot, box, h_s, m)
                for kind in ("sub", "super"):
                    assert rep.passed(kind), (m, d, kind)
                assert rep.interior_count > 0 and rep.boundary_count > 0


def test_criterion_7b_wave_supersolutions():
    with criterion(7, "(b) validated spherical waves pass the Super check"):
        cases = [
            dict(A=1.0, omega=2.0, B=0.6, R=1.0, m=2.0, d=2),
            dict(A=1.0, omega=1.5, B=0.6, R=1.0, m=2.0, d=1),
            dict(A=0.5, omega=2.0, B=0.7, R=1.0, m=3.0, d=2),
        ]
        for c in cases:
            assert validate_wave_params(c["A"], c["omega"], c["B"], c["R"],
                                        c["m"], c["d"])
            spec = SphericalWaveSpec(**c)
            t_lo = (c["B"] - c["R"]) / c["omega"]
            half = 0.7 * c["R"] if c["d"] == 2 else 0.95 * c["R"]
            box = SpaceTimeBox(lo=(-half,) * c["d"], hi=(half,) * c["d"],
                               t_lo=t_lo, t_hi=0.0)
            rep = residual_pmed(build_barrier(spec), make_zero_potential(),
                                box, 0.01, c["m"])
            assert rep.passed("super"), c
            assert rep.interior_count > 0 and rep.boundary_count > 0


def test_criterion_7c_rescaled_wave_under_drift():
    with criterion(7, "(c) rescaled inf-convolved wave is a drift supersolution"):
        alpha = 0.1
        x0 = (1.05,)
        drift = tuple(np.atleast_1d(QUAD.grad(np.asarray(x0))))
        c_pert = QUAD.hessian_bound((x0[0] - alpha,), (x0[0] + alpha,)) + 1.0
        resc = RescaleSpec(alpha=alpha, x0=x0, t0=0.0, drift=drift, C_pert=c_pert)
        wave = SphericalWaveSpec(A=1.5, omega=1.7, B=0.55, R=1.0, m=2.0, d=1)
        assert wave.is_valid()
        cand = build_barrier(RescaledBarrierSpec(base=wave, rescale=resc))
        h_s = 0.00125
        box = SpaceTimeBox(
            lo=(x0[0] - alpha + 2 * h_s,),
            hi=(x0[0] + alpha - 2 * h_s,),
            t_lo=-alpha + 2 * h_s,
            t_hi=-2 * h_s * h_s,
        )
        rep = residual_pmed(cand, QUAD, box, h_s, 2.0)
        assert rep.passed("super")
        assert rep.interior_count > 0 and rep.boundary_count > 0


def test_criterion_7d_boundary_velocity_identity():
    with criterion(7, "(d) boundary speed equals the boundary gradient"):
        for m in (1.5, 2.0, 3.0):
            for d in (1, 2):
                spec = BarenblattSpec(m=m, d=d, tau=1.0, C=1.0)
                for t in (0.0, 0.3, 1.0):
                    r = spec.support_radius(t)
                    delta = 1e-5
                    # second-order one-sided difference of the profile at the
                    # boundary, taken along the first axis
                    x1 = np.zeros(d)
                    x1[0] = r - delta
                    x2 = np.zeros(d)
                    x2[0] = r - 2 * delta
                    u1 = float(barenblatt(x1, t, spec))
                    u2 = float(barenblatt(x2, t, spec))
                    grad_est = abs((-4.0 * u1 + u2) / (2.0 * delta))
                    rdot = spec.boundary_speed(t)
                    assert abs(grad_est - rdot) <= 1e-6 * rdot


def cos_test_function(L):
    k = np.pi / (2.0 * L)
    return SpaceTimeTestFunction(
        value=lambda x, t: np.cos(k * x[..., 0]),
        dt=lambda x, t: np.zeros(x.shape[:-1]),
        grad=lambda x, t: (-k * np.sin(k * x[..., 0]))[..., None],
        lap=lambda x, t: -(k ** 2) * np.cos(k * x[..., 0]),
    )


def test_criterion_8_weak_residual():
    with criterion(8, "weak-form residual: exact for constants, shrinks with h"):
        coarse = barenblatt_run(0.05, 0.05)
        fine = barenblatt_run(0.025, 0.025)
        mass = coarse.snapshots[0].mass
        assert weak_residual(coarse, SpaceTimeTestFunction.constant()) <= 1e-10 * mass
        phi = cos_test_function(4.0)
        r_coarse = weak_residual(coarse, phi)
        r_fine = weak_residual(fine, phi)
        assert r_coarse / r_fine >= 1.5


def test_criterion_9_velocity_law():
    with criterion(9, "free-boundary velocity law on the Barenblatt run"):
        h, dt_snap = 0.05, 0.05
        traj = barenblatt_run(h, dt_snap)
        eps_fb = default_support_threshold(traj.final.field)
        samples = boundary_velocity(traj, eps_fb=eps_fb)
        assert samples
        worst = max(float(np.max(np.abs(s.law_residual)))
                    for s in samples if s.law_residual.size)
        # frozen calibration: measured 0.18 (h + dt_snap) at this resolution
        assert worst <= 1.0 * (h + dt_snap)
        # the velocity itself tracks the hand-differentiated radius speed
        for s in samples:
            if s.normal_velocity.size:
                rdot = BB.boundary_speed(s.t - 0.5 * dt_snap)
                assert np.max(np.abs(s.normal_velocity - rdot)) <= 2.0 * (h + dt_snap)


def test_criterion_9b_velocity_law_2d():
    with criterion(9, "(b) free-boundary velocity law on a 2D Barenblatt run"):
        spec = BarenblattSpec(m=2.0, d=2, tau=1.0, C=0.25)
        h = dt_snap = 0.05
        grid = Grid(dim=2, h=h, extent=2.5)
        cfg = SolverConfig(m=2.0, potential=make_zero_potential(), t_end=0.5,
                           snapshot_every=dt_snap)
        traj = simulate(barenblatt_density(grid, spec), cfg)
        eps_fb = default_support_threshold(traj.final.field)
        samples = boundary_velocity(traj, eps_fb=eps_fb)
        assert all(s.law_residual.size for s in samples)
        worst = max(float(np.max(np.abs(s.law_residual))) for s in samples)
        # same bounds as the 1D criterion; measured 0.57 (h + dt_snap)
        assert worst <= 1.0 * (h + dt_snap)
        for s in samples:
            rdot = spec.boundary_speed(s.t - 0.5 * dt_snap)
            assert np.max(np.abs(s.normal_velocity - rdot)) <= 2.0 * (h + dt_snap)
