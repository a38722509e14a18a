import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmed.barriers import (
    BarenblattSpec,
    RescaleSpec,
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
from pmed.core import make_quadratic_potential, make_zero_potential
from pmed.errors import InvalidParameterError, InvalidTimeError, OutOfCylinderError


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
        pot = make_quadratic_potential(1.0, dim=1)
        c = 1.0
        u = lambda x, t: np.maximum(c - pot.eval(x), 0.0)
        box = SpaceTimeBox(lo=(-0.7,), hi=(0.7,), t_lo=0.0, t_hi=0.1)
        rep = residual_pmed(u, pot, "super", box, h_s=0.01, m=2.0)
        assert rep.interior_count > 0
        assert np.max(np.abs(rep.interior_residuals)) <= 1e-8

    @pytest.mark.parametrize("kind", ["sub", "super"])
    def test_barenblatt_exact_solution(self, kind):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        pot = make_zero_potential(1)
        box = SpaceTimeBox(lo=(-3.0,), hi=(3.0,), t_lo=0.0, t_hi=0.2)
        rep = residual_pmed(build_barrier(spec), pot, kind, box, h_s=0.02, m=2.0)
        assert rep.passed
        assert rep.interior_count > 0
        assert rep.boundary_count > 0
        assert np.max(np.abs(rep.interior_residuals)) <= 1e-5

    @pytest.mark.parametrize("kind", ["sub", "super"])
    def test_no_samples_is_not_a_pass(self, kind):
        # the floor 10 h_s = 1 is not below max u = C/tau = 1
        spec = BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0)
        box = SpaceTimeBox(lo=(-2.0, -2.0), hi=(2.0, 2.0), t_lo=0.0, t_hi=0.2)
        rep = residual_pmed(build_barrier(spec), make_zero_potential(2), kind, box,
                            h_s=0.1, m=2.0)
        assert rep.interior_count == 0 and rep.boundary_count == 0
        assert not rep.passed

    def test_wave_super_under_pme(self):
        spec = SphericalWaveSpec(A=1.0, omega=2.0, B=0.6, R=1.0, m=2.0, d=2)
        assert spec.is_valid()
        pot = make_zero_potential(2)
        box = SpaceTimeBox(lo=(-0.7, -0.7), hi=(0.7, 0.7), t_lo=-0.2, t_hi=0.0)
        rep = residual_pmed(build_barrier(spec), pot, "super", box, h_s=0.01, m=2.0)
        assert rep.passed
        assert rep.interior_count > 0 and rep.boundary_count > 0
        # strict supersolution: worst signed values stay positive
        assert rep.worst_interior() > 0
        assert rep.worst_boundary() > 0

    def test_invalid_kind(self):
        u = lambda x, t: np.zeros(np.asarray(x).shape[:-1])
        box = SpaceTimeBox(lo=(0.0,), hi=(1.0,), t_lo=0.0, t_hi=0.1)
        with pytest.raises(InvalidParameterError):
            residual_pmed(u, make_zero_potential(1), "both", box, 0.01, 2.0)
