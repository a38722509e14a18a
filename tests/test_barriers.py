from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmed.barriers import (
    BarenblattSpec,
    RescaledBarrierSpec,
    RescaleSpec,
    ResidualReport,
    SpaceTimeBox,
    SphericalWaveSpec,
    barenblatt,
    build_barrier,
    hyperbolic_rescale,
    inf_convolution,
    residual_pmed,
    spherical_wave,
    sup_convolution,
    validate_wave_params,
)
from pmed import barriers
from pmed.barriers import _lattice
from pmed.core import (
    dot_last,
    level_crossings,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
)
from pmed.errors import InvalidParameterError, InvalidTimeError, OutOfCylinderError, PmedError


def pt(*coords):
    return np.array(coords, dtype=float)


class TestBarenblatt:
    def test_constants_m2_d1(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        assert spec.lam == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert spec.K == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert barenblatt(pt(0.0), 0.0, spec) == pytest.approx(1.0)

    @pytest.mark.parametrize("m,d", [(1.5, 1), (2.0, 1), (3.0, 2)])
    def test_constants_identity(self, m, d):
        spec = BarenblattSpec(m=m, d=d, tau=0.5, C=2.0)
        assert spec.lam * ((m - 1) * d + 2) == pytest.approx(1.0, rel=1e-15)
        assert 2 * spec.K == pytest.approx(spec.lam, rel=1e-15)

    def test_zero_on_and_beyond_boundary(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        r = spec.support_radius(0.3)
        assert barenblatt(pt(r), 0.3, spec) == 0.0
        assert barenblatt(pt(r + 0.5), 0.3, spec) == 0.0
        assert barenblatt(pt(r - 0.1), 0.3, spec) > 0.0

    def test_support_radius_sqrt6(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        assert spec.support_radius(0.0) == pytest.approx(2.449490, abs=1e-6)

    def test_invalid_time(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        with pytest.raises(InvalidTimeError):
            barenblatt(pt(0.0), -1.0, spec)

    @pytest.mark.parametrize("t", [-1.0, -1.5, -np.inf])
    def test_every_time_dependent_value_checks_t_plus_tau(self, t):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        for value in (lambda: barenblatt(pt(0.0), t, spec), lambda: spec.support_radius(t),
                      lambda: spec.boundary_speed(t), lambda: spec.boundary_gradient(t)):
            with pytest.raises(InvalidTimeError, match=f"t \\+ tau must be > 0, got {t + 1.0}"):
                value()

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            BarenblattSpec(m=1.0, d=1, tau=1.0, C=1.0)
        with pytest.raises(InvalidParameterError):
            BarenblattSpec(m=2.0, d=1, tau=-1.0, C=1.0)

    def test_boundary_speed_matches_gradient(self):
        # free-boundary velocity identity: r'(t) = |grad u| on the boundary
        for m, d in ((1.5, 1), (2.0, 1), (2.0, 2), (3.0, 2)):
            spec = BarenblattSpec(m=m, d=d, tau=1.0, C=1.0)
            for t in (0.0, 0.5, 2.0):
                assert spec.boundary_speed(t) == pytest.approx(
                    spec.boundary_gradient(t), rel=1e-12
                )

    def test_boundary_speed_against_difference_quotient(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        t, dt = 0.4, 1e-5
        fd = (spec.support_radius(t + dt) - spec.support_radius(t - dt)) / (2 * dt)
        assert spec.boundary_speed(t) == pytest.approx(fd, rel=1e-8)


class TestSphericalWave:
    def test_profile_at_t0(self):
        spec = SphericalWaveSpec(A=1.0, omega=1.0, B=0.6, R=1.0, m=2.0, d=1)
        assert spherical_wave(pt(0.9), 0.0, spec) == pytest.approx(0.3)
        assert spherical_wave(pt(0.3), 0.0, spec) == 0.0

    def test_zero_on_moving_boundary(self):
        spec = SphericalWaveSpec(A=1.0, omega=1.0, B=0.6, R=1.0, m=2.0, d=2)
        t = -0.1
        r = spec.B - spec.omega * t
        x = pt(r, 0.0)
        assert spherical_wave(x, t, spec) == pytest.approx(0.0, abs=1e-15)

    def test_value_inside_annulus(self):
        spec = SphericalWaveSpec(A=1.0, omega=1.0, B=0.6, R=1.0, m=2.0, d=1)
        assert spherical_wave(pt(0.8), 0.1, spec) == pytest.approx(0.3)


class TestValidateWaveParams:
    def test_example_2d(self):
        assert validate_wave_params(1.0, 2.0, 0.6, 1.0, 2.0, 2)  # threshold 1.8 < 2

    def test_1d_threshold_is_one(self):
        assert validate_wave_params(1.0, 1.0001, 0.6, 1.0, 5.0, 1)
        assert not validate_wave_params(1.0, 1.0, 0.6, 1.0, 2.0, 1)

    def test_b_range(self):
        assert not validate_wave_params(1.0, 2.0, 0.4, 1.0, 2.0, 2)
        assert not validate_wave_params(1.0, 2.0, 1.0, 1.0, 2.0, 2)

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            validate_wave_params(1.0, 2.0, 0.6, 0.0, 2.0, 2)


def reference_lattice(dim, radius, step):
    """The Cartesian ball lattice the convolutions once sampled, kept as a
    reference: its extremum can only fall short of the exact one."""
    if radius <= 0.0:
        return np.zeros((1, dim))
    k = max(1, int(np.ceil(radius / step)))
    axis = np.linspace(-radius, radius, 2 * k + 1)
    pts = np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    keep = np.sum(pts * pts, axis=-1) <= radius * radius * (1.0 + 1e-12)
    return pts[keep]


@st.composite
def convolution_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.floats(1.1, 4.0))
    if draw(st.booleans()):
        spec = BarenblattSpec(m=m, d=d, tau=draw(st.floats(1.05, 3.0)),
                              C=draw(st.floats(0.1, 2.0)))
    else:
        spec = SphericalWaveSpec(A=draw(st.floats(0.2, 3.0)), omega=draw(st.floats(0.2, 3.0)),
                                 B=draw(st.floats(0.1, 1.5)), R=2.0, m=m, d=d)
    coords = st.floats(-3.0, 3.0)
    xs = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                min_size=1, max_size=8)))
    alpha = draw(st.floats(0.01, 0.99))
    t = draw(st.floats(-1.0, 1.0))
    return spec, xs, alpha, t


class TestConvolutions:
    @settings(max_examples=200, deadline=None)
    @given(convolution_cases())
    # |x|^2 is subnormal here, so x / |x| is not a unit vector
    @example((BarenblattSpec(m=2.0, d=1, tau=2.0, C=1.0), np.array([[1e-160]]), 0.5, 0.0))
    def test_exact_extremum_over_the_ball(self, case):
        spec, xs, alpha, t = case
        w = build_barrier(spec)
        radius = alpha * (1.0 - t)
        lattice = xs[:, None, :] + reference_lattice(xs.shape[-1], radius, radius / 4.0)
        # the ball points nearest to and farthest from the origin, along x;
        # x is scaled to a largest entry of 1 so its direction survives subnormals
        s = np.max(np.abs(xs), axis=-1, keepdims=True)
        y = xs / np.where(s > 0.0, s, 1.0)
        n = (np.abs(y[:, 0]) if y.shape[-1] == 1 else np.hypot(y[:, 0], y[:, 1]))[:, None]
        ray = np.where(s > 0.0, y / np.where(s > 0.0, n, 1.0), np.eye(xs.shape[-1])[0])
        ends = np.stack([ray * np.maximum(s * n - radius, 0.0), ray * (s * n + radius)], axis=1)
        assert np.all(np.sqrt(np.sum((ends - xs[:, None, :]) ** 2, axis=-1))
                      <= radius * (1.0 + 1e-12) + 1e-12)
        for conv, sign, lattice_ext in ((sup_convolution, 1.0, np.max),
                                        (inf_convolution, -1.0, np.min)):
            got = conv(w, alpha)(xs, t) * np.exp(sign * alpha * t)
            assert np.all(sign * (got - lattice_ext(w(lattice, t), axis=-1)) >= -1e-12)
            attained = np.abs(w(ends, t) - got[:, None]) <= 1e-12 * (1.0 + np.abs(got[:, None]))
            assert np.all(np.any(attained, axis=-1))

    def test_inf_convolution_wave_1d_inner_ball_oracle(self):
        # the ball around x = 0.05 of radius 0.3 (1 - 0.5) = 0.15 holds the
        # origin, where the wave is smallest: A (omega t - B) > 0
        spec = SphericalWaveSpec(A=1.0, omega=2.5, B=0.7, R=1.0, m=2.0, d=1)
        got = inf_convolution(build_barrier(spec), 0.3)(pt(0.05), 0.5)
        assert got == pytest.approx(np.exp(0.15) * spec.A * (spec.omega * 0.5 - spec.B),
                                    rel=1e-14)
        assert got == pytest.approx(0.6390088335005557, rel=1e-14)

    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_sup_convolution_barenblatt_2d_oracle(self, t):
        spec = BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0)
        alpha = 0.25
        radius = alpha * (1.0 - t)
        conv = sup_convolution(build_barrier(spec), alpha)
        for x in ((0.0, 0.0), (0.1, -0.05), (0.7, 0.4), (-1.3, 1.1), (2.0, -2.5)):
            x = pt(*x)
            r = np.hypot(*x)
            inner = x * max(r - radius, 0.0) / r if r > 0.0 else x
            assert conv(x, t) == pytest.approx(
                np.exp(-alpha * t) * float(barenblatt(inner, t, spec)), abs=1e-14)

    def test_constant_scaling(self):
        const = lambda x, t: np.full(np.asarray(x).shape[:-1], 3.0)
        for t in (-0.5, 0.0, 0.5):
            up = sup_convolution(const, 0.3)(pt(0.2), t)
            dn = inf_convolution(const, 0.3)(pt(0.2), t)
            assert up == pytest.approx(3.0 * np.exp(-0.3 * t), rel=1e-14)
            assert dn == pytest.approx(3.0 * np.exp(0.3 * t), rel=1e-14)

    def test_small_alpha_limit(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        u = build_barrier(spec)
        xs = np.linspace(-2.0, 2.0, 41)[:, None]
        up = sup_convolution(u, 1e-6)(xs, 0.0)
        assert np.max(np.abs(up - u(xs, 0.0))) <= 1e-5 * np.max(u(xs, 0.0)) + 1e-5

    def test_inf_convolution_radial_ramp_oracle(self):
        # exact minimizer of a radial ramp over the ball: shift by the radius
        spec = SphericalWaveSpec(A=1.0, omega=1.0, B=0.6, R=1.0, m=2.0, d=1)
        wave = build_barrier(spec)
        alpha = 0.2
        conv = inf_convolution(wave, alpha)
        for x in (0.1, 0.5, 0.9, 1.4, -1.1):
            expected = spec.A * max(abs(x) - alpha - spec.B, 0.0)
            assert conv(pt(x), 0.0) == pytest.approx(expected, abs=1e-14)

    def test_sup_convolution_radial_decreasing_oracle(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        u = build_barrier(spec)
        alpha = 0.25
        conv = sup_convolution(u, alpha)
        for x in (0.0, 0.4, 1.3, -2.0):
            inner = max(abs(x) - alpha, 0.0)
            assert conv(pt(x), 0.0) == pytest.approx(
                float(barenblatt(pt(inner), 0.0, spec)), abs=1e-14
            )

    def test_ordering_at_t0(self):
        spec = BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0)
        u = build_barrier(spec)
        up = sup_convolution(u, 0.15)
        dn = inf_convolution(u, 0.15)
        rng = np.random.default_rng(2)
        xs = rng.uniform(-2.5, 2.5, size=(200, 2))
        u0 = u(xs, 0.0)
        assert np.all(dn(xs, 0.0) <= u0 + 1e-14)
        assert np.all(up(xs, 0.0) >= u0 - 1e-14)

    def test_invalid_alpha(self):
        u = lambda x, t: np.zeros(np.asarray(x).shape[:-1])
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(InvalidParameterError):
                sup_convolution(u, alpha)

    def test_time_beyond_validity(self):
        u = lambda x, t: np.zeros(np.asarray(x).shape[:-1])
        conv = inf_convolution(u, 0.5)
        with pytest.raises(InvalidTimeError):
            conv(pt(0.0), 1.5)


class TestHyperbolicRescale:
    def test_identity_at_alpha_one(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        u = build_barrier(spec)
        resc = hyperbolic_rescale(
            u, RescaleSpec(alpha=1.0, x0=(0.0,), t0=0.0, drift=(0.0,), C_pert=1.0)
        )
        for x, t in ((0.3, -0.2), (0.9, -0.9), (-0.5, 0.0)):
            assert resc(pt(x), t) == pytest.approx(float(u(pt(x), t)), rel=1e-14)

    def test_linear_slope_preserved(self):
        s = 1.7
        lin = lambda x, t: s * x[..., 0]
        resc = hyperbolic_rescale(
            lin, RescaleSpec(alpha=0.2, x0=(0.0,), t0=0.0, drift=(0.0,), C_pert=1.0)
        )
        d = 1e-6
        fd = (resc(pt(d), -0.1) - resc(pt(-d), -0.1)) / (2 * d)
        assert fd == pytest.approx(s, rel=1e-9)

    def test_scaling_contract(self):
        # sup-norm scales by alpha; finite-difference gradient magnitude unchanged
        smooth = lambda x, t: np.cos(x[..., 0]) + 0.5 * np.sin(2.0 * t)
        alpha = 0.3
        resc = hyperbolic_rescale(
            smooth, RescaleSpec(alpha=alpha, x0=(0.1,), t0=0.0, drift=(0.4,), C_pert=1.0)
        )
        xs = np.linspace(0.1 - 0.9 * alpha, 0.1 + 0.9 * alpha, 31)[:, None]
        inner = (xs - 0.1) / alpha
        np.testing.assert_allclose(
            resc(xs, 0.0), alpha * smooth(inner, 0.0), rtol=1e-13
        )
        d = 1e-6
        g_out = (resc(pt(0.2 + d), -0.05) - resc(pt(0.2 - d), -0.05)) / (2 * d)
        z = (pt(0.2) - 0.1 + 0.4 * (-0.05)) / alpha
        g_in = (smooth(pt(z[0] + d)[None, :], -0.05 / alpha)
                - smooth(pt(z[0] - d)[None, :], -0.05 / alpha)) / (2 * d)
        assert abs(abs(g_out) - abs(float(g_in[0]))) <= 1e-8

    def test_out_of_cylinder(self):
        u = lambda x, t: np.zeros(np.asarray(x).shape[:-1])
        resc = hyperbolic_rescale(
            u, RescaleSpec(alpha=0.1, x0=(0.0,), t0=0.0, drift=(0.0,), C_pert=1.0)
        )
        with pytest.raises(OutOfCylinderError):
            resc(pt(0.2), -0.05)
        with pytest.raises(OutOfCylinderError):
            resc(pt(0.0), 0.05)
        with pytest.raises(OutOfCylinderError):
            resc(pt(0.0), -0.2)

    def test_drift_moves_free_boundary(self):
        # zero set of the composed profile drifts with velocity (omega - b)
        spec = SphericalWaveSpec(A=1.0, omega=1.5, B=0.55, R=1.0, m=2.0, d=1)
        wave = build_barrier(spec)
        alpha, b = 0.1, 1.0
        resc = hyperbolic_rescale(
            wave, RescaleSpec(alpha=alpha, x0=(0.0,), t0=0.0, drift=(b,), C_pert=1.0)
        )

        def left_zero(t):
            xs = np.linspace(-alpha, alpha, 4001)[:, None]
            vals = resc(xs, t)
            pos = np.nonzero(vals > 0)[0]
            return xs[pos[-1], 0]  # inner edge of the left positive branch

        t1, t2 = -0.06, -0.02
        v = (left_zero(t2) - left_zero(t1)) / (t2 - t1)
        assert v == pytest.approx(spec.omega - b, abs=2e-3)


class TestResidualPmed:
    def test_equilibrium_pressure_is_stationary(self):
        # u = (C - Phi)_+ makes every term cancel inside the support
        pot = make_quadratic_potential(1.0)
        c = 1.0
        u = lambda x, t: np.maximum(c - pot.eval(x), 0.0)
        box = SpaceTimeBox(lo=(-0.7,), hi=(0.7,), t_lo=0.0, t_hi=0.1)
        rep = residual_pmed(u, pot, box, h_s=0.01, m=2.0)
        assert rep.interior_count > 0
        assert np.max(np.abs(rep.interior_residuals)) <= 1e-8

    @pytest.mark.parametrize("kind", ["sub", "super"])
    def test_barenblatt_exact_solution(self, kind):
        # (spec, box half-width, h_s); the last is the 2D benchmark's m = 3 job
        # at seed 18, whose front gradient at the floor lies just under 10 h_s
        cases = [(BarenblattSpec(m=m, d=d, tau=1.0, C=1.0), 3.0, 0.02)
                 for m, d in [(2.0, 1), (2.0, 2), (3.0, 1), (1.5, 2)]]
        cases.append((BarenblattSpec(m=3.0, d=2, tau=1.0381813388017203,
                                     C=0.45161680053435427), 2.842302906833812, 0.025))
        for spec, half, h_s in cases:
            box = SpaceTimeBox(lo=(-half,) * spec.d, hi=(half,) * spec.d, t_lo=0.0, t_hi=0.2)
            rep = residual_pmed(build_barrier(spec), make_zero_potential(), box, h_s,
                                spec.m)
            assert rep.passed(kind), spec
            assert rep.interior_count > 0 and rep.boundary_count > 0, spec
            assert np.max(np.abs(rep.interior_residuals)) <= 1e-5, spec
            assert np.max(np.abs(rep.boundary_residuals)) <= 1e-5, spec

    @pytest.mark.parametrize("kind", ["sub", "super"])
    def test_no_samples_is_not_a_pass(self, kind):
        # the floor 10 h_s = 1 is not below max u = C/tau = 1
        spec = BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0)
        box = SpaceTimeBox(lo=(-2.0, -2.0), hi=(2.0, 2.0), t_lo=0.0, t_hi=0.2)
        rep = residual_pmed(build_barrier(spec), make_zero_potential(), box, h_s=0.1, m=2.0)
        assert rep.interior_count == 0 and rep.boundary_count == 0
        assert not rep.passed(kind)
        assert rep.worst(kind) == (0.0, 0.0)

    def test_wave_super_under_pme(self):
        spec = SphericalWaveSpec(A=1.0, omega=2.0, B=0.6, R=1.0, m=2.0, d=2)
        assert spec.is_valid()
        pot = make_zero_potential()
        box = SpaceTimeBox(lo=(-0.7, -0.7), hi=(0.7, 0.7), t_lo=-0.2, t_hi=0.0)
        rep = residual_pmed(build_barrier(spec), pot, box, h_s=0.01, m=2.0)
        assert rep.passed("super")
        assert rep.interior_count > 0 and rep.boundary_count > 0
        # strict supersolution: worst signed values stay positive
        assert min(rep.worst("super")) > 0

    def test_read_only_integer_values(self):
        # the differences are formed in new float arrays, never in the
        # candidate's own values: u = 2 (x_0 > 0) as read-only integers
        # gives the residuals of the same u as writable floats
        def ints(x, t):
            return np.broadcast_to(np.where(x[..., 0] > 0.0, 2, 0), np.shape(x)[:-1])

        def floats(x, t):
            return np.where(x[..., 0] > 0.0, 2.0, 0.0)

        pot = make_quadratic_potential(0.5)
        box = SpaceTimeBox(lo=(-0.1, -0.1), hi=(0.1, 0.1), t_lo=0.0, t_hi=0.03)
        with patch.object(barriers, "_BATCH_POINTS", 3 * 21 * 21):  # 3 levels, then 1
            got = residual_pmed(ints, pot, box, 0.01, 2.0)
        want = residual_pmed(floats, pot, box, 0.01, 2.0)
        assert got.interior_count > 0 and got.boundary_count > 0
        assert_same_bits(got.interior_residuals, want.interior_residuals)
        assert_same_bits(got.boundary_residuals, want.boundary_residuals)

    def test_each_kind_reads_its_side(self):
        rep = ResidualReport(tol=0.5, interior_residuals=np.array([-1.0, 0.2]),
                             boundary_residuals=np.array([0.3, -0.1]))
        assert rep.worst("sub") == (0.2, 0.3) and rep.passed("sub")
        assert rep.worst("super") == (-1.0, -0.1) and not rep.passed("super")

    def test_invalid_kind(self):
        u = lambda x, t: np.zeros(np.asarray(x).shape[:-1])
        box = SpaceTimeBox(lo=(0.0,), hi=(1.0,), t_lo=0.0, t_hi=0.1)
        rep = residual_pmed(u, make_zero_potential(), box, 0.01, 2.0)
        for ask in (rep.passed, rep.worst):
            with pytest.raises(InvalidParameterError):
                ask("both")


def reference_derivatives(candidate, pot, pts, t, h_s, m):
    """The former full-lattice differences: every term at every point."""
    dim = pts.shape[-1]
    u0 = np.asarray(candidate(pts, t), dtype=float)
    dt = h_s * h_s
    u_t = (candidate(pts, t + dt) - candidate(pts, t - dt)) / (2.0 * dt)
    grad = np.empty(u0.shape + (dim,))
    lap = np.zeros_like(u0)
    lap_phi = np.zeros_like(u0)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h_s
        up = candidate(pts + e, t)
        um = candidate(pts - e, t)
        grad[..., k] = (up - um) / (2.0 * h_s)
        lap += (up - 2.0 * u0 + um) / (h_s * h_s)
        lap_phi += (pot.grad(pts[..., k] + h_s) - pot.grad(pts[..., k] - h_s)) / (2.0 * h_s)
    transport = dot_last(grad, pot.grad(pts))
    r = u_t - (m - 1.0) * u0 * lap - dot_last(grad, grad) - transport - (m - 1.0) * u0 * lap_phi
    return u0, r


def reference_residuals(candidate, pot, box, h_s, m):
    """The former sampling: differences over the whole lattice, then masked.
    Returns (interior, boundary, tol, interior count per level)."""
    floor = 10.0 * h_s
    axes = [_lattice(lo, hi, h_s) for lo, hi in zip(box.lo, box.hi)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    int_res, bd_res, per_level = [], [], []
    u_max = 0.0
    for t in _lattice(box.t_lo, box.t_hi, h_s):
        u0, r = reference_derivatives(candidate, pot, pts, float(t), h_s, m)
        u_max = max(u_max, float(u0.max(initial=0.0)))
        int_res.append(r[u0 > floor])
        per_level.append(int_res[-1].size)
        crossings = level_crossings(u0, axes, floor)
        bd_res.append(reference_derivatives(candidate, pot, crossings, float(t), h_s, m)[1])
    return np.concatenate(int_res), np.concatenate(bd_res), 50.0 * (1.0 + u_max) * h_s, per_level


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def barrier_box(draw, centre, half, t_lo, t_hi, h_s, edge=lambda t: None):
    """Up to six time levels in [t_lo, t_hi] and a box inside centre +- half
    of 1-40 lattice cells per axis (1-400 in 1D).  Its midpoint lies within
    1.2 edge(t) of the centre, t the box's first level, so that many boxes
    meet the floor's level set at radius edge(t); anywhere when edge gives
    None."""
    ta = draw(st.floats(t_lo, t_hi))
    tb = min(t_hi, ta + draw(st.integers(0, 5)) * h_s)
    dim = len(centre)
    reach = edge(ta)
    if reach is None:
        mid = [draw(st.floats(c - half, c + half)) for c in centre]
    else:
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        norm = np.sqrt(dot_last(direction, direction))
        direction = direction / norm if norm > 0.0 else np.eye(dim)[0]
        rho = draw(st.one_of(st.floats(0.0, 1.2), st.floats(0.9, 1.1)))
        mid = np.asarray(centre) + rho * min(reach, half) * direction
    w = draw(st.integers(1, 40 if dim == 2 else 400)) * h_s / 2.0
    lo = tuple(max(x - w, c - half) for x, c in zip(mid, centre))
    hi = tuple(max(min(x + w, c + half), a) for x, c, a in zip(mid, centre, lo))
    return SpaceTimeBox(lo=lo, hi=hi, t_lo=ta, t_hi=tb)


@st.composite
def sampling_cases(draw):
    """(candidate, potential, box, h_s, m): a Barenblatt, a validated wave or
    a rescaled barrier under a 1D polynomial potential, on a random box; the
    floor 10 h_s is drawn against the profile's size, now and then above it."""
    family = draw(st.sampled_from(["barenblatt", "wave", "rescaled"]))
    # 10 h_s over the scale of u
    floor_share = draw(st.one_of(st.floats(0.01, 1.2), st.floats(0.05, 0.5)))
    if family != "rescaled":
        d = draw(st.sampled_from([1, 2]))
        pot = draw(st.sampled_from([make_zero_potential(), make_quadratic_potential(0.5)]))
    if family == "barenblatt":
        spec = BarenblattSpec(m=draw(st.floats(1.2, 3.0)), d=d,
                              tau=draw(st.floats(0.3, 2.0)), C=draw(st.floats(0.1, 2.0)))
        h_s = min(floor_share * spec.C / spec.tau / 10.0, 0.1)  # h_s^2 < tau
        box = barrier_box(draw, (0.0,) * d, spec.support_radius(0.3) + 0.3, 0.0, 0.3, h_s,
                          spec.support_radius)
        return build_barrier(spec), pot, box, h_s, spec.m
    if family == "wave":
        m, R = draw(st.floats(1.2, 3.0)), 1.0
        A, B = draw(st.floats(0.5, 2.0)), draw(st.floats(0.55, 0.9))
        omega = A * (1.0 + 2.0 * (m - 1.0) * (d - 1) * (R - B) / R) * draw(st.floats(1.01, 2.0))
        spec = SphericalWaveSpec(A=A, omega=omega, B=B, R=R, m=m, d=d)
        assert spec.is_valid()
        h_s = floor_share * A * (0.95 - B) / 10.0  # A (0.95 - B): u at |x| = 0.95, t = 0
        box = barrier_box(draw, (0.0,) * d, 0.95, (B - R) / omega, 0.0, h_s,
                          lambda t: B - omega * t + 10.0 * h_s / A)
        return build_barrier(spec), pot, box, h_s, m
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
    pot = make_polynomial_potential(coeffs)
    x0, alpha = draw(st.floats(-1.5, 1.5)), draw(st.floats(0.05, 0.2))
    c_pert = pot.hessian_bound([x0 - alpha], [x0 + alpha]) + 1.0
    assume(c_pert * alpha < 1.0)
    if draw(st.booleans()):
        base, scale = SphericalWaveSpec(A=1.5, omega=1.7, B=0.55, R=1.0, m=2.0, d=1), 0.5
    else:
        base = BarenblattSpec(m=draw(st.floats(1.2, 3.0)), d=1, tau=1.0,
                              C=draw(st.floats(0.02, 0.12)))
        scale = base.C
    rescale = RescaleSpec(alpha=alpha, x0=(x0,), t0=0.0,
                          drift=tuple(pot.grad(np.array([x0])).tolist()), C_pert=c_pert)
    h_s = floor_share * scale * alpha / 10.0
    # the box keeps its h_s-enlargement inside the cylinder
    box = barrier_box(draw, (x0,), alpha - 1.01 * h_s, -0.5 * alpha, -2.0 * h_s * h_s, h_s)
    return build_barrier(RescaledBarrierSpec(base=base, rescale=rescale)), pot, box, h_s, base.m


# levels with and without interior samples: u = |x| + 2 t - 0.5 stays below
# the floor 0.1 on the box (|x| < 0.76) while t <= -0.08, and exceeds it for
# |x| > 0.6 at t = 0
EMPTY_LEVELS = (
    build_barrier(SphericalWaveSpec(A=1.0, omega=2.0, B=0.5, R=1.0, m=2.0, d=2)),
    make_zero_potential(),
    SpaceTimeBox(lo=(0.5, -0.05), hi=(0.75, 0.05), t_lo=-0.15, t_hi=0.0),
    0.01, 2.0,
)

# u equal to the floor 10 h_s on x < 0: those samples are not interior, but
# the last of them, x = -0.01, is a crossing, so each of the 3 levels has one
# boundary sample
AT_THE_FLOOR = (
    lambda x, t: np.where(x[..., 0] < 0.0, 1.0, 2.0) * (10.0 * 0.01),
    make_zero_potential(),
    SpaceTimeBox(lo=(-0.2,), hi=(0.2,), t_lo=0.0, t_hi=0.02),
    0.01, 2.0,
)

# u >= 0.98 > 0.1 = 10 h_s on the box: every level has interior samples and
# no crossing, so the candidate also meets an empty (0, 2) array of points
ABOVE_THE_FLOOR = (
    build_barrier(BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0)),
    make_zero_potential(),
    SpaceTimeBox(lo=(-0.2, -0.2), hi=(0.2, 0.2), t_lo=0.0, t_hi=0.02),
    0.01, 2.0,
)


class TestSamplingReference:
    @settings(max_examples=200, deadline=None)
    @given(sampling_cases())
    @example(EMPTY_LEVELS)
    @example(AT_THE_FLOOR)
    @example(ABOVE_THE_FLOOR)
    def test_matches_full_lattice_differences(self, case):
        candidate, pot, box, h_s, m = case
        interior, boundary, tol, _ = reference_residuals(candidate, pot, box, h_s, m)
        rep = residual_pmed(candidate, pot, box, h_s, m)
        assert_same_bits(rep.interior_residuals, interior)
        assert_same_bits(rep.boundary_residuals, boundary)
        assert rep.tol == tol
        assert (rep.interior_count, rep.boundary_count) == (interior.size, boundary.size)

    def test_example_has_empty_and_filled_levels(self):
        candidate, pot, box, h_s, m = EMPTY_LEVELS
        per_level = reference_residuals(candidate, pot, box, h_s, m)[3]
        assert per_level[0] == 0 and per_level[-1] > 0

    def test_example_has_levels_without_crossings(self):
        candidate, pot, box, h_s, m = ABOVE_THE_FLOOR
        per_level = reference_residuals(candidate, pot, box, h_s, m)[3]
        assert per_level == [41 * 41] * 3  # every sample of every level is interior


# a rescaled Barenblatt around x0 = 0 with alpha = 0.1: positive on
# |x| < ~0.09, zero (below the floor) near the cylinder's edge |x| = 0.1
SMALL_BUMP = RescaledBarrierSpec(
    base=BarenblattSpec(m=2.0, d=1, tau=1.0, C=0.1),
    rescale=RescaleSpec(alpha=0.1, x0=(0.0,), t0=0.0, drift=(0.0,), C_pert=1.0),
)


class TestCylinderContract:
    h_s = 0.0005

    def run_both(self, box):
        candidate, pot = build_barrier(SMALL_BUMP), make_zero_potential()
        return (lambda: reference_residuals(candidate, pot, box, self.h_s, 2.0),
                lambda: residual_pmed(candidate, pot, box, self.h_s, 2.0))

    def test_shift_out_of_the_ball_below_the_floor_raises(self):
        # the lattice ends on |x| = alpha, where u = 0 <= 10 h_s: only the
        # differences at those unread samples shift a point out of the ball
        box = SpaceTimeBox(lo=(-0.1,), hi=(0.1,), t_lo=-0.005, t_hi=-0.004)
        assert np.all(build_barrier(SMALL_BUMP)(np.array([[-0.1], [0.1]]), -0.005) == 0.0)
        for run in self.run_both(box):
            with pytest.raises(OutOfCylinderError, match="outside the ball"):
                run()
        inner = SpaceTimeBox(lo=(-0.1 + self.h_s,), hi=(0.1 - self.h_s,),
                             t_lo=-0.005, t_hi=-0.004)
        reference, sampled = (run() for run in self.run_both(inner))
        assert sampled.interior_count > 0
        assert_same_bits(sampled.interior_residuals, reference[0])

    def test_time_shift_out_of_the_cylinder_with_no_interior_sample_raises(self):
        # u = 0 on the whole box, so no level gathers a sample; t_hi = t0
        # still puts t + h_s^2 past the cylinder's top
        box = SpaceTimeBox(lo=(0.095,), hi=(0.099,), t_lo=-0.002, t_hi=0.0)
        for run in self.run_both(box):
            with pytest.raises(OutOfCylinderError, match="outside"):
                run()
        below = SpaceTimeBox(lo=(0.095,), hi=(0.099,), t_lo=-0.002, t_hi=-0.001)
        reference, sampled = (run() for run in self.run_both(below))
        assert reference[0].size == sampled.interior_count == 0


@st.composite
def straddling_cases(draw):
    """(candidate, potential, box, h_s, m): a rescaled Barenblatt or wave
    barrier in 1D or 2D, and a box whose enlargement by h_s in space and
    h_s^2 in time now and then leaves the cylinder |x - x0| <= alpha,
    t in [-alpha, 0], in space, in time or both, some by half a step and
    some onto its edge.  A Barenblatt with tau < 1 also raises below
    t = -tau alpha, inside the cylinder."""
    d = draw(st.sampled_from([1, 2]))
    alpha = draw(st.floats(0.05, 0.2))
    x0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    pot = draw(st.sampled_from([make_zero_potential(), make_quadratic_potential(0.5)]))
    h_s = alpha * draw(st.floats(0.02 if d == 1 else 0.05, 0.15))
    # u / alpha at the base's reference point: 0.5 to 4 floors 10 h_s / alpha
    size = draw(st.floats(0.5, 4.0)) * 10.0 * h_s / alpha
    if draw(st.booleans()):  # size: A (|y| - B) at |y| = 1, t = 0
        A = size / 0.4
        base = SphericalWaveSpec(A=A, omega=2.0, B=0.6, R=1.0, m=2.0, d=d)
    else:  # size: about u at y = 0, t = 0
        tau = draw(st.floats(0.5, 2.0))
        base = BarenblattSpec(m=draw(st.floats(1.2, 3.0)), d=d, tau=tau, C=size * tau)
    rescale = RescaleSpec(alpha=alpha, x0=tuple(x0.tolist()), t0=0.0,
                          drift=tuple(np.atleast_1d(pot.grad(x0)).tolist()), C_pert=1.0)
    # per axis within alpha / sqrt(d), where a square's corners meet the
    # ball, or ending k h_s inside it: k = 1 puts a shifted point on the
    # edge, k = 0.5 past it
    reach = alpha / np.sqrt(d)
    near = [reach - k * h_s for k in (2.0, 1.0, 3.0, 0.5)]
    lo, hi = [], []
    for c in x0:
        a = c + draw(st.sampled_from([-e for e in near]) | st.floats(-reach, reach))
        b = c + draw(st.sampled_from(near) | st.floats(-reach, reach))
        lo.append(min(a, b))
        hi.append(max(a, b))
    # up to four levels; the last k h_s^2 below t0 or the first k h_s^2
    # above t0 - alpha, now and then: k = 1 puts t -+ h_s^2 on the edge,
    # k = 0.5 past it
    edge = [k * h_s * h_s for k in (2.0, 1.0, 3.0, 0.5)]
    levels = draw(st.integers(0, 3)) * h_s
    at = draw(st.sampled_from(["top", "bottom", "free"]))
    if at == "top":
        t_hi = -draw(st.sampled_from(edge))
    elif at == "bottom":
        t_hi = -alpha + draw(st.sampled_from(edge)) + levels
    else:
        t_hi = draw(st.floats(-0.8 * alpha, -0.05 * alpha))
    t_lo = t_hi - levels
    box = SpaceTimeBox(lo=tuple(lo), hi=tuple(hi), t_lo=t_lo, t_hi=t_hi)
    return build_barrier(RescaledBarrierSpec(base=base, rescale=rescale)), pot, box, h_s, base.m


class TestDomainProbe:
    @settings(max_examples=150, deadline=None)
    @given(straddling_cases())
    def test_raises_exactly_when_the_reference_raises(self, case):
        # the reference evaluates every point of every level; residual_pmed
        # checks the domain once, by its probe, and raises on non-finite
        # residuals
        candidate, pot, box, h_s, m = case
        try:
            interior, boundary, tol, _ = reference_residuals(candidate, pot, box, h_s, m)
            raised = not (np.all(np.isfinite(interior)) and np.all(np.isfinite(boundary)))
        except PmedError:
            raised = True
        event("raises" if raised else
              f"passes, {'with' if interior.size else 'no'} interior samples")
        if raised:
            with pytest.raises(PmedError):
                residual_pmed(candidate, pot, box, h_s, m)
            return
        rep = residual_pmed(candidate, pot, box, h_s, m)
        assert_same_bits(rep.interior_residuals, interior)
        assert_same_bits(rep.boundary_residuals, boundary)
        assert rep.tol == tol


@st.composite
def timed_barriers(draw):
    """(candidate, dim, centre, half, times): every barrier kind, points in
    centre +- half, and times that now and then leave the kind's range:
    t + tau <= 0 for a Barenblatt, t > 1 for a convolution, t outside
    [t0 - alpha, t0] for a rescaled barrier."""
    kind = draw(st.sampled_from(["barenblatt", "wave", "sup", "inf",
                                 "rescaled-wave", "rescaled-barenblatt"]))
    d = 1 if kind == "rescaled-wave" else draw(st.sampled_from([1, 2]))
    bb = BarenblattSpec(m=draw(st.sampled_from([1.5, 2.0, 3.0])), d=d,
                        tau=draw(st.floats(0.6, 2.0)), C=draw(st.floats(0.02, 2.0)))
    wave = SphericalWaveSpec(A=1.0, omega=2.0, B=0.6, R=1.0, m=2.0, d=d)
    alpha = draw(st.floats(0.05, 0.5))
    levels = draw(st.integers(1, 5))
    centre, half = np.zeros(d), 3.0
    if kind == "barenblatt":
        candidate, lo, hi, edges = build_barrier(bb), -1.3 * bb.tau, 1.0, [-bb.tau]
    elif kind == "wave":
        candidate, lo, hi, edges = build_barrier(wave), -0.5, 0.5, [0.0]
        half = 1.0
    elif kind in ("sup", "inf"):
        conv = sup_convolution(build_barrier(bb), alpha) if kind == "sup" else \
            inf_convolution(build_barrier(wave), alpha)
        candidate, lo, hi, edges = conv, -0.5, 1.3, [1.0, 1.0 + 1e-12]
    else:
        base = wave if kind == "rescaled-wave" else bb
        centre = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        rescale = RescaleSpec(alpha=alpha, x0=tuple(centre.tolist()), t0=0.0,
                              drift=tuple(draw(st.lists(st.floats(-2.0, 2.0),
                                                        min_size=d, max_size=d))),
                              C_pert=1.0)
        candidate = build_barrier(RescaledBarrierSpec(base=base, rescale=rescale))
        lo, hi, edges = -1.2 * alpha, 0.2 * alpha, [-alpha, 0.0, 1e-9]
        half = 0.7 * alpha  # inside the ball: sqrt(2) 0.7 < 1
    times = np.array(draw(st.lists(st.sampled_from(edges + [lo, hi]) | st.floats(lo, hi),
                                   min_size=levels, max_size=levels)))
    return candidate, d, centre, half, times


class TestArrayTimes:
    @settings(max_examples=300, deadline=None)
    @given(timed_barriers(), st.data())
    def test_array_t_is_the_scalar_calls_stacked(self, case, data):
        # t of shape (levels, 1, ...) against points (levels, *lattice, dim),
        # or one t per point against points (k, dim)
        candidate, dim, centre, half, times = case
        per_point = data.draw(st.booleans())
        lattice = () if per_point else tuple(data.draw(st.lists(st.integers(1, 5),
                                                                min_size=1, max_size=2)))
        x = centre + data.draw(arrays(float, (len(times),) + lattice + (dim,),
                                      elements=st.floats(-half, half)))
        t = times.reshape(times.shape + (1,) * len(lattice))

        def scalar(i):
            try:
                return np.asarray(candidate(x[i], float(times[i])))
            except PmedError as exc:
                return exc

        outcomes = [scalar(i) for i in range(len(times))]
        errors = {type(o) for o in outcomes if isinstance(o, PmedError)}
        event(f"raises {sorted(e.__name__ for e in errors)}")
        if errors:
            with pytest.raises(PmedError) as raised:
                candidate(x, t)
            assert type(raised.value) in errors
        else:
            assert_same_bits(np.asarray(candidate(x, t)), np.stack(outcomes))

    def test_array_t_messages_quote_the_first_bad_entry(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        x = np.zeros((3, 2, 1))
        with pytest.raises(InvalidTimeError, match="t \\+ tau must be > 0, got -0.5$"):
            barenblatt(x, np.array([[0.5], [-1.5], [-2.0]]), spec)
        conv = inf_convolution(build_barrier(spec), 0.5)
        with pytest.raises(InvalidTimeError, match="for t = 1.5$"):
            conv(x, np.array([[0.5], [1.5], [2.0]]))
        resc = hyperbolic_rescale(
            build_barrier(spec), RescaleSpec(alpha=0.1, x0=(0.0,), t0=0.0, drift=(0.0,),
                                             C_pert=1.0))
        with pytest.raises(OutOfCylinderError, match="^t = -0.2 outside"):
            resc(x, np.array([[-0.05], [-0.2], [0.3]]))


class TestTimeBatches:
    @settings(max_examples=60, deadline=None)
    @given(sampling_cases(), st.integers(1, 4))
    def test_any_batch_size_gives_the_same_residuals(self, case, levels):
        candidate, pot, box, h_s, m = case
        points = np.prod([len(_lattice(lo, hi, h_s)) for lo, hi in zip(box.lo, box.hi)])
        interior, boundary, tol, _ = reference_residuals(candidate, pot, box, h_s, m)
        with patch.object(barriers, "_BATCH_POINTS", int(levels * points)):
            rep = residual_pmed(candidate, pot, box, h_s, m)
        assert_same_bits(rep.interior_residuals, interior)
        assert_same_bits(rep.boundary_residuals, boundary)
        assert rep.tol == tol

    @pytest.mark.parametrize("spec, half", [
        (BarenblattSpec(m=2.0, d=2, tau=1.0, C=0.25), 0.6),
        (RescaledBarrierSpec(
            base=BarenblattSpec(m=2.0, d=2, tau=0.3, C=0.15),
            rescale=RescaleSpec(alpha=0.5, x0=(0.0, 0.0), t0=0.0, drift=(0.3, -0.2), C_pert=1.0),
        ), 0.3),
    ])
    def test_2d_batches_pass_times_shaped_like_the_points(self, spec, half):
        # every call's t broadcasts against its points' leading shape, and
        # its values take that shape, the domain probe's included
        candidate = build_barrier(spec)
        calls = []

        def checked(x, t):
            lead = np.shape(x)[:-1]
            assert np.broadcast_shapes(np.shape(t), lead) == lead
            u = candidate(x, t)
            assert np.shape(u) == lead
            calls.append((lead, np.shape(t)))
            return u

        pot = make_zero_potential()
        box = SpaceTimeBox(lo=(-half, -half), hi=(half, half), t_lo=-0.1, t_hi=-0.01)
        h_s = 0.02
        points = len(_lattice(-half, half, h_s)) ** 2
        ref = residual_pmed(candidate, pot, box, h_s, 2.0)
        with patch.object(barriers, "_BATCH_POINTS", 3 * points):  # batches of 3 and 2 levels
            rep = residual_pmed(checked, pot, box, h_s, 2.0)
        assert rep.interior_count > 0 and rep.boundary_count > 0
        # the probe: 8 moved corners at 2 levels and 4 corners at 2 times,
        # one t per point; then the lattice of 3 levels, one t per level
        assert calls[0] == ((24,), (24,))
        assert calls[1] == ((3,) + (len(_lattice(-half, half, h_s)),) * 2, (3, 1, 1))
        assert_same_bits(rep.interior_residuals, ref.interior_residuals)
        assert_same_bits(rep.boundary_residuals, ref.boundary_residuals)

    @pytest.mark.parametrize("levels", [1, 2, 3, 5])
    def test_a_level_with_no_sample_is_still_differenced_in_time(self, levels):
        # u = 0 on the whole box; only the last level's t + h_s^2 leaves the
        # cylinder, in a batch of its own or with levels before it
        box = SpaceTimeBox(lo=(0.095,), hi=(0.099,), t_lo=-0.002, t_hi=0.0)
        candidate, h_s = build_barrier(SMALL_BUMP), 0.0005
        with patch.object(barriers, "_BATCH_POINTS", 9 * levels):
            with pytest.raises(OutOfCylinderError, match="outside"):
                residual_pmed(candidate, make_zero_potential(), box, h_s, 2.0)


# EMPTY_LEVELS in 1D: u = |x| + 2 t - 0.5 stays below the floor 0.1 on the
# box while t <= -0.08
EMPTY_LEVELS_1D = (
    build_barrier(SphericalWaveSpec(A=1.0, omega=2.0, B=0.5, R=1.0, m=2.0, d=1)),
    make_zero_potential(),
    SpaceTimeBox(lo=(0.5,), hi=(0.75,), t_lo=-0.15, t_hi=0.0),
    0.01, 2.0,
)

# a 1D Barenblatt whose support edge crosses the box at every level
BARENBLATT_1D = (
    build_barrier(BarenblattSpec(m=2.0, d=1, tau=1.0, C=0.5)),
    make_quadratic_potential(0.5),
    SpaceTimeBox(lo=(-1.5,), hi=(1.5,), t_lo=0.0, t_hi=0.1),
    0.02, 2.0,
)


class TestCallBudget:
    @pytest.mark.parametrize("case", [EMPTY_LEVELS, EMPTY_LEVELS_1D, ABOVE_THE_FLOOR,
                                      BARENBLATT_1D],
                             ids=["2d-empty-levels", "1d-empty-levels", "2d-above-the-floor",
                                  "1d-barenblatt"])
    @pytest.mark.parametrize("levels", [1, 2, 4])
    def test_calls_per_batch(self, case, levels):
        # one domain probe, then per batch: the lattice, the crossings, and
        # t +- h_s^2 and x +- h_s e_k over the samples, whether or not a
        # level of the batch has an interior sample
        candidate, pot, box, h_s, m = case
        dim = len(box.lo)
        lattice = tuple(len(_lattice(lo, hi, h_s)) for lo, hi in zip(box.lo, box.hi))
        calls = []

        def counted(x, t):
            calls.append(np.shape(x))
            return candidate(x, t)

        per_level = reference_residuals(candidate, pot, box, h_s, m)[3]
        assert (0 in per_level) == (case in (EMPTY_LEVELS, EMPTY_LEVELS_1D))
        with patch.object(barriers, "_BATCH_POINTS", levels * int(np.prod(lattice))):
            rep = residual_pmed(counted, pot, box, h_s, m)
        # the probe: 2^dim corners, moved outward along each of the dim axes
        # at 2 levels, and the corners themselves at 2 times
        assert calls[0] == (2 * (dim + 1) * 2 ** dim, dim)
        batches = [per_level[i:i + levels] for i in range(0, len(per_level), levels)]
        starts = [i for i, shape in enumerate(calls) if shape[1:] == lattice + (dim,)]
        assert starts[0] == 1
        assert [calls[i][0] for i in starts] == [len(b) for b in batches]
        made = np.diff(starts + [len(calls)]).tolist()
        assert made == [4 + 2 * dim] * len(batches)
        # the (k, dim) calls after the probe: the crossings, then the
        # differences over the samples, interior and boundary, and no more points
        points = sum(shape[0] for shape in calls[1:] if len(shape) == 2)
        samples = rep.interior_count + rep.boundary_count
        assert points == rep.boundary_count + (2 + 2 * dim) * samples
