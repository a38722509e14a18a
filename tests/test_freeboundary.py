import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pmed.barriers import BarenblattSpec, barenblatt
from pmed.core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    integrate,
    density_from_pressure,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
    ring,
)
from pmed.errors import (
    BoundaryGapError,
    DomainTooSmallError,
    EmptyBoundarySetError,
    InvalidInputError,
    InvalidParameterError,
    PmedError,
    UnsupportedPotentialError,
)
from pmed.freeboundary import (
    _cell_potential,
    _interior_gradient,
    boundary_velocity,
    default_support_threshold,
    equilibrium_constant,
    equilibrium_profile,
    extract_boundary,
    hausdorff,
    sublevel_shell_check,
)
from pmed.initialdata import equilibrium_offset_density
from pmed.solver import SolverConfig, simulate


class TestExtractBoundary:
    def test_zero_field_empty(self):
        g = Grid(dim=1, h=0.25, extent=1.0)
        f = Field(g, np.zeros(8), FieldVariable.DENSITY)
        assert extract_boundary(f, 1e-6).shape == (0, 1)

    def test_barenblatt_endpoints(self):
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
        g = Grid(dim=1, h=0.05, extent=4.0)
        for t in (0.0, 0.5):
            u = Field(g, barenblatt(g.centers(), t, spec),
                      FieldVariable.PRESSURE)
            b = extract_boundary(u, 1e-8)
            r = spec.support_radius(t)
            assert len(b) == 2
            np.testing.assert_allclose(sorted(b[:, 0]), [-r, r], atol=g.h)

    def test_2d_circle(self):
        g = Grid(dim=2, h=0.05, extent=2.0)
        pot = make_quadratic_potential(1.0)
        u = np.maximum(1.0 - pot.eval(g.centers()), 0.0)
        f = Field(g, u, FieldVariable.PRESSURE)
        b = extract_boundary(f, 1e-6)
        radii = np.sqrt(np.sum(b ** 2, axis=-1))
        assert len(b) > 50
        assert np.max(np.abs(radii - 1.0)) <= g.h

    def test_level_close_to_potential_level(self):
        # points of the (C - Phi)_+ boundary sit within 2 Lip(Phi) h of the level
        g = Grid(dim=1, h=0.05, extent=2.0)
        pot = make_quadratic_potential(1.0)
        c = 1.0
        u = np.maximum(c - pot.eval(g.centers()), 0.0)
        f = Field(g, u, FieldVariable.PRESSURE)
        b = extract_boundary(f, 1e-9)
        lip = 2.0 * g.extent
        assert np.max(np.abs(pot.eval(b) - c)) <= 2.0 * lip * g.h

    def test_deterministic_order(self):
        g = Grid(dim=2, h=0.25, extent=1.0)
        v = np.zeros((8, 8))
        v[3:5, 3:5] = 1.0
        f = Field(g, v, FieldVariable.DENSITY)
        b1 = extract_boundary(f, 0.5)
        b2 = extract_boundary(f, 0.5)
        np.testing.assert_array_equal(b1, b2)

    def test_default_threshold_on_a_coarse_grid(self):
        # 2L/h = 20 cells: 10 h max / L equals the maximum, the cap is max / 2
        g = Grid(dim=2, h=0.1, extent=1.0)
        prof = equilibrium_profile(0.05, make_quadratic_potential(1.0), 2.0, g)
        assert default_support_threshold(prof.pressure) == 0.5 * prof.pressure.max()
        assert len(prof.boundary) > 0

    def test_default_threshold_on_a_fine_grid(self):
        g = Grid(dim=1, h=0.05, extent=4.0)
        u = Field(g, barenblatt(g.centers(), 0.0, BarenblattSpec(2.0, 1, 1.0, 1.0)),
                  FieldVariable.PRESSURE)
        assert default_support_threshold(u) == 10.0 * g.h * u.max() / g.extent


class TestHausdorff:
    def test_identical(self):
        a = np.array([[0.0], [1.0]])
        assert hausdorff(a, a) == 0.0

    def test_two_singletons(self):
        assert hausdorff(np.array([[0.0]]), np.array([[3.0]])) == 3.0

    def test_directed_asymmetry(self):
        assert hausdorff(np.array([[0.0], [1.0]]), np.array([[0.0]])) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyBoundarySetError):
            hausdorff(np.empty((0, 1)), np.array([[0.0]]))
        with pytest.raises(EmptyBoundarySetError):
            hausdorff(np.array([[0.0, 1.0]]), np.empty((0, 2)))

    @pytest.mark.parametrize("a,b", [
        ([[0.0, 0.0], [1.0, 5.0]], [[0.0], [1.0]]),  # widths 2 and 1
        ([[0.0], [1.0]], [[0.0, 0.0], [1.0, 5.0]]),
        ([0.0, 1.0], [0.0, 1.0]),  # 1-D arrays
        ([[0.0], [1.0]], [0.0, 1.0]),
        (np.zeros((1, 1, 1)), np.zeros((1, 1, 1))),
        (np.zeros((2, 0)), np.zeros((1, 0))),  # no coordinates
    ])
    def test_clouds_of_other_shapes_raise(self, a, b):
        with pytest.raises(InvalidInputError):
            hausdorff(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_coordinate_raises(self, bad, side):
        clouds = [np.array([[5.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 2.0]])]
        clouds[side] = np.vstack([clouds[side], [[bad, 0.0]]])
        with pytest.raises(InvalidInputError):
            hausdorff(*clouds)
        clouds[side][-1] = [0.0, bad]
        with pytest.raises(InvalidInputError):
            hausdorff(*clouds)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(17)
        sets = [rng.uniform(-1, 1, size=(rng.integers(1, 8), 2))
                for _ in range(6)]
        for a in sets:
            for b in sets:
                dab = hausdorff(a, b)
                assert dab == hausdorff(b, a)
                for c in sets:
                    assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


def reference_hausdorff(a, b):
    """hausdorff as a root of a (k, l, dim) broadcast sum, taken per pair."""
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    return max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))


@st.composite
def cloud_pairs(draw):
    dim = draw(st.sampled_from([1, 2]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rows = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)

    def cloud():
        pts = draw(st.lists(rows, min_size=1, max_size=12))
        pts += pts[:draw(st.integers(0, len(pts)))]  # duplicated points
        copies = draw(st.sampled_from([1, 1, 1, 30]))  # 30 span several row blocks
        return scale * np.concatenate([np.array(pts) + 0.01 * i for i in range(copies)])

    return cloud(), cloud()


class TestHausdorffReference:
    @settings(max_examples=300, deadline=None)
    @given(cloud_pairs())
    @example((np.array([[0.0]]), np.array([[3.0]])))
    @example((np.array([[0.1, 0.2], [0.1, 0.2]]), np.array([[-0.3, 0.7]])))
    def test_matches_broadcast_formula(self, pair):
        a, b = pair
        assert hausdorff(a, b) == reference_hausdorff(a, b)


@st.composite
def curve_pairs(draw):
    # noisy circles or segments with enough points for the band to engage
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def curve():
        k = draw(st.integers(200, 900))
        t = np.sort(rng.uniform(0.0, 1.0, k))
        if draw(st.booleans()):
            r = draw(st.floats(0.5, 1.5))
            pts = r * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1)
        else:
            ends = rng.uniform(-1.0, 1.0, (2, 2))
            pts = ends[0] + t[:, None] * (ends[1] - ends[0])
        pts += draw(st.sampled_from([0.0, 1e-3, 2e-2])) * rng.standard_normal(pts.shape)
        return scale * pts

    return curve(), curve()


@st.composite
def fallback_pairs(draw):
    # clouds that leave rows or columns outside the band
    kind = draw(st.sampled_from(["one axis-0 value", "coincident", "singleton", "far apart",
                                 "dense against sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, l = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    a, b = rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(-1.0, 1.0, (l, 2))
    if kind == "one axis-0 value":
        a[:, 0] = b[:, 0] = draw(st.floats(-1.0, 1.0))
    elif kind == "coincident":
        a = np.repeat(a[:1], k, axis=0)
        b = np.concatenate([a[:1]] * l) if draw(st.booleans()) else b
    elif kind == "singleton":
        a = a[:1]
    elif kind == "dense against sparse":  # most nearest points lie outside the band
        t = np.linspace(0.0, 2 * np.pi, 30 * k)
        a = np.stack([np.cos(t), np.sin(t)], axis=-1)
        b = b[:draw(st.integers(1, 12))]
    else:
        b += draw(st.sampled_from([[50.0, 0.0], [0.0, 50.0], [-3.0, 3.0]]))
    return a, b


class TestBandedHausdorff:
    @settings(max_examples=60, deadline=None)
    @given(curve_pairs())
    def test_curves_match_reference(self, pair):
        a, b = pair
        assert hausdorff(a, b) == reference_hausdorff(a, b)

    @settings(max_examples=100, deadline=None)
    @given(fallback_pairs())
    def test_fallback_clouds_match_reference(self, pair):
        a, b = pair
        assert hausdorff(a, b) == reference_hausdorff(a, b)
        assert hausdorff(b, a) == reference_hausdorff(a, b)

    def test_concentric_circles_settle_in_the_band(self, monkeypatch):
        import pmed.freeboundary as fb
        dense = []
        real = fb._sq_distance_blocks

        def counting(a, b):
            dense.append(len(a))
            return real(a, b)

        monkeypatch.setattr(fb, "_sq_distance_blocks", counting)
        t = 2 * np.pi * np.arange(800) / 800
        circle = np.stack([np.cos(t), np.sin(t)], axis=-1)
        a, b = circle, 1.01 * np.roll(circle, 7, axis=0)
        assert hausdorff(a, b) == reference_hausdorff(a, b)
        assert sum(dense) == 0


def reference_gradient_2d(u, p, eps_fb):
    """The 2D rule of _interior_gradient, written out for two axes."""
    grid = u.grid
    v = u.values
    n = grid.n_cells
    h = grid.h
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


@st.composite
def gradient_cases(draw):
    # few distinct values, so the up-gradient walk meets ties between neighbours
    n = draw(st.integers(8, 12))
    g = Grid(dim=2, h=0.25, extent=0.125 * n)
    inner = draw(st.lists(st.integers(0, 5), min_size=(n - 2) ** 2,
                          max_size=(n - 2) ** 2))
    v = np.zeros((n, n))
    v[1:-1, 1:-1] = 0.5 * np.reshape(inner, (n - 2, n - 2))
    coord = st.floats(-g.extent - g.h, g.extent + g.h)
    p = np.array([draw(coord), draw(coord)])
    eps_fb = draw(st.sampled_from([0.25, 0.75, 1.25]))
    return Field(g, v, FieldVariable.PRESSURE), p, eps_fb


class TestInteriorGradientReference:
    @settings(max_examples=300, deadline=None)
    @given(gradient_cases())
    def test_2d_matches_two_axis_rule(self, case):
        u, p, eps_fb = case
        got = _interior_gradient(u, p, eps_fb)
        want = reference_gradient_2d(u, p, eps_fb)
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def full_grid_mass(c, phi, m, vol):
    """The discrete mass map M(c), each density computed over every cell."""
    u = np.maximum(c - phi, 0.0)
    return vol * float(np.sum(np.power((m - 1.0) / m * u, 1.0 / (m - 1.0))))


def full_grid_equilibrium_constant(target_mass, pot, m, grid):
    """A plain bisection to |M(C) - target| <= 1e-10 target, each M(C) over
    every cell: the reference of equilibrium_constant's Newton iteration."""
    phi = np.asarray(pot.eval(grid.centers()), dtype=float)
    phi_min = min(float(phi.min()), pot.min_value(grid.dim))

    def mass(c):
        return full_grid_mass(c, phi, m, grid.cell_volume)

    c_cap = float(ring(phi, 1).min())
    if mass(c_cap) < target_mass:
        raise DomainTooSmallError("beyond the box capacity")
    lo, hi = phi_min, phi_min + 1.0
    while mass(hi) < target_mass:
        lo = hi
        hi = phi_min + 2.0 * (hi - phi_min)
    hi = min(hi, c_cap)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        value = mass(mid)
        if abs(value - target_mass) <= 1e-10 * target_mass:
            return mid
        if value < target_mass:
            lo = mid
        else:
            hi = mid
        if np.nextafter(lo, hi) >= hi:  # no float left between them
            break
    if abs(mass(hi) - target_mass) <= 1e-10 * target_mass:
        return hi
    raise InvalidParameterError("no level meets the mass tolerance")


class TestEquilibriumConstant:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(8, 40), st.sampled_from([0.01, 0.05, 0.25]),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    def test_cell_potential_is_the_point_cloud_evaluation(self, dim, n, h, coeffs):
        grid, pot = Grid(dim=dim, h=h, extent=n * h / 2.0), Potential(tuple(coeffs))
        want = np.asarray(pot.eval(grid.centers()), dtype=float)
        got = _cell_potential(pot, grid)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_analytic_oracle(self):
        # m=2, Phi=x^2: mass(C) = (2/3) C^(3/2), so mass 2/3 gives C = 1
        g = Grid(dim=1, h=2e-4, extent=2.0)
        pot = make_quadratic_potential(1.0)
        c = equilibrium_constant(2.0 / 3.0, pot, 2.0, g)
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_doubled_mass(self):
        g = Grid(dim=1, h=2e-4, extent=2.0)
        pot = make_quadratic_potential(1.0)
        c = equilibrium_constant(4.0 / 3.0, pot, 2.0, g)
        assert c == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-6)

    def test_small_mass_limit(self):
        g = Grid(dim=1, h=1e-3, extent=2.0)
        pot = make_quadratic_potential(1.0)
        c = equilibrium_constant(1e-9, pot, 2.0, g)
        assert 0.0 <= c <= 1e-3

    def test_monotone_in_mass(self):
        g = Grid(dim=1, h=1e-3, extent=2.0)
        pot = make_quadratic_potential(1.0)
        cs = [equilibrium_constant(mm, pot, 2.0, g)
              for mm in (0.2, 0.4, 2.0 / 3.0, 1.0, 1.5)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_discrete_mass_map_nondecreasing(self):
        from pmed.freeboundary import _MassMap
        g = Grid(dim=1, h=0.01, extent=2.0)
        phi = make_quadratic_potential(1.0).eval(g.centers())
        for m in (1.5, 2.0, 3.0):
            mass = _MassMap(phi, m, g.cell_volume)
            levels = np.linspace(0.0, 2.0, 60)
            masses, slopes = zip(*(mass(c) for c in levels))
            assert all(b >= a for a, b in zip(masses, masses[1:]))
            # the banded sum is the full-grid float; M' = vol sum k a (a u)^(k-1)
            assert list(masses) == [full_grid_mass(c, phi, m, g.cell_volume) for c in levels]
            a, k = (m - 1.0) / m, 1.0 / (m - 1.0)
            for c, slope in zip(levels, slopes):
                u = c - phi[phi < c]
                want = g.cell_volume * k * a * float(np.sum((a * u) ** (k - 1.0)))
                assert slope == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_banded_bisection_matches_full_grid(self, data):
        dim = data.draw(st.sampled_from([1, 2]))
        n = data.draw(st.integers(8, 200 if dim == 1 else 48))
        g = Grid(dim=dim, h=4.0 / n, extent=2.0)
        # p = c0 + c1 x + a2 x^2 + a4 x^4: p'' = 2 a2 + 12 a4 x^2 > 0
        a2 = data.draw(st.floats(0.1, 4.0))
        a4 = data.draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
        c1 = data.draw(st.floats(-1.0, 1.0))
        pot = Potential((data.draw(st.floats(-2.0, 2.0)), c1, a2, 0.0, a4))
        m = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
        mass = 10.0 ** data.draw(st.floats(-4.0, 0.5))

        def outcome(solve):
            try:
                return solve(mass, pot, m, g)
            except PmedError as exc:
                return type(exc)

        got, want = outcome(equilibrium_constant), outcome(full_grid_equilibrium_constant)
        # the same error, or a level at least as close to the mass as the reference's
        assert isinstance(got, float) == isinstance(want, float)
        if not isinstance(want, float):
            assert got is want
            return
        phi = pot.eval(g.centers())
        assert abs(full_grid_mass(got, phi, m, g.cell_volume) - mass) <= \
            abs(full_grid_mass(want, phi, m, g.cell_volume) - mass)

    @pytest.mark.parametrize("dim, n, m, target", [
        (2, 400, 2.0, 0.966), (2, 400, 2.0, 1.0), (2, 400, 1.5, 1.0), (2, 400, 3.0, 1.0),
        (1, 8, 2.0, 0.168),  # lands on the root with a zero step; lo never moved
        (1, 13, 2.0, 0.068),  # ends as its iterates cycle between neighbouring floats
    ])
    def test_newton_ends_at_the_nearest_level(self, monkeypatch, dim, n, m, target):
        # the stopping rule comes before the bracket's safeguard, which would
        # bisect on from a lo that never moved, and it ends a cycle
        import pmed.freeboundary as fb
        levels, real = [], fb._MassMap.__call__
        monkeypatch.setattr(fb._MassMap, "__call__",
                            lambda self, c: levels.append(c) or real(self, c))
        g = Grid(dim=dim, h=4.0 / n, extent=2.0)
        pot = make_quadratic_potential(1.0)
        c = equilibrium_constant(target, pot, m, g)
        assert len(levels) <= 10
        phi = pot.eval(g.centers())
        miss = [abs(full_grid_mass(x, phi, m, g.cell_volume) - target)
                for x in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]
        assert miss[1] <= min(miss)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n=st.integers(8, 200), c0=st.floats(-2.0, 2.0),
           c1=st.floats(-1.0, 1.0), a2=st.floats(0.1, 4.0),
           a4=st.sampled_from([0.0, 0.0, 0.3, 1.0]), m=st.sampled_from([1.5, 2.0, 3.0]),
           fill=st.sampled_from([1.0]) | st.floats(1e-4, 1.0))
    @example(dim=1, n=27, c0=0.0, c1=0.375, a2=0.1015625, a4=0.0, m=2.0, fill=1e-4)
    @example(dim=1, n=120, c0=0.5, c1=0.2798380033172809, a2=0.1, a4=0.0, m=3.0, fill=1e-4)
    def test_profile_is_zero_on_the_outer_ring(self, dim, n, c0, c1, a2, a4, m, fill):
        # the level stays at most the least Phi on the ring, up to the capacity
        g = Grid(dim=dim, h=4.0 / (n if dim == 1 else 8 + n % 41), extent=2.0)
        pot = Potential((c0, c1, a2, 0.0, a4))
        phi = pot.eval(g.centers())
        c_cap = float(ring(phi, 1).min())
        capacity = full_grid_mass(c_cap, phi, m, g.cell_volume)
        mass = capacity * fill
        assume(mass > 0.0)  # nothing fits where the least Phi lies on the ring
        try:
            profile = equilibrium_profile(mass, pot, m, g)
        except PmedError as exc:
            # no float level meets the 1e-10 mass tolerance: M is nondecreasing,
            # and the float nearest its root and both neighbours miss it
            assert type(exc) is InvalidParameterError
            def miss(c):
                return full_grid_mass(c, phi, m, g.cell_volume) - mass

            lo, hi = float(phi.min()), c_cap  # M(lo) = 0 < mass <= M(hi)
            while np.nextafter(lo, np.inf) < hi:
                mid = lo + (hi - lo) / 2.0
                lo, hi = (mid, hi) if miss(mid) < 0.0 else (lo, mid)
            nearest = min((lo, hi), key=lambda c: abs(miss(c)))
            assert all(abs(miss(c)) > 1e-10 * mass for c in (
                np.nextafter(nearest, -np.inf), nearest, np.nextafter(nearest, np.inf)))
            event(f"mass tolerance not met (m = {m})")
            return
        assert np.all(ring(profile.pressure.values, 1) == 0.0)

    def test_target_at_the_top_of_a_jump_and_inside_it(self):
        # an interior cell's Phi, 0.13125, lies one ulp below the ring's least Phi
        # c_cap, and M jumps there by about 3.7e-9 of the mass (m = 3): M(c_cap), the
        # capacity, is met only at c_cap, which no midpoint reaches
        g = Grid(dim=1, h=0.5, extent=2.0)
        pot = Potential((0.0, 0.1, 0.1))
        capacity = 0.5744266579147964
        profile = equilibrium_profile(capacity, pot, 3.0, g)
        assert profile.c_inf == 0.13125000000000003
        assert np.all(ring(profile.pressure.values, 1) == 0.0)
        assert full_grid_equilibrium_constant(capacity, pot, 3.0, g) == profile.c_inf
        for solve in (equilibrium_constant, full_grid_equilibrium_constant):
            with pytest.raises(InvalidParameterError):
                solve(capacity * (1.0 - 1e-9), pot, 3.0, g)

    def test_profile_evaluates_phi_once(self, monkeypatch):
        import pmed.core as core
        calls = []
        real = core.Potential.eval

        def counting(self, x):
            calls.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(core.Potential, "eval", counting)
        g = Grid(dim=2, h=0.1, extent=2.0)
        # once, at the axis centers: p(x_i) + p(x_j) is Phi on the cells
        equilibrium_profile(0.5, make_quadratic_potential(1.0), 2.0, g)
        assert calls == [(g.n_cells, 1)]
        calls.clear()
        equilibrium_offset_density(g, 2.0, make_quadratic_potential(1.0), 0.5, 0.9)
        assert calls == [(g.n_cells, 1)]

    def test_computed_minimum_starts_the_bracket(self):
        # Phi = x^2 has its minimum 0 between two cell centers, below every
        # grid value; the bracket starts there with no declared minimum
        g = Grid(dim=1, h=0.01, extent=2.0)
        pot = make_polynomial_potential([0.0, 0.0, 1.0])
        assert pot.min_value(1) == 0.0 < pot.eval(g.centers()).min()
        c = equilibrium_constant(0.1, pot, 2.0, g)
        assert c == equilibrium_constant(0.1, make_quadratic_potential(1.0), 2.0, g)
        # the level nearest the mass: M(C) is 0.1 to the rounding of its sum
        mass = full_grid_mass(c, pot.eval(g.centers()), 2.0, g.cell_volume)
        assert abs(mass - 0.1) <= 8 * np.spacing(0.1)

    def test_nonconvex_rejected(self):
        g = Grid(dim=1, h=0.01, extent=2.0)
        with pytest.raises(UnsupportedPotentialError):
            equilibrium_constant(0.5, make_zero_potential(), 2.0, g)

    def test_domain_too_small(self):
        g = Grid(dim=1, h=0.01, extent=1.0)
        pot = make_quadratic_potential(1.0)
        with pytest.raises(DomainTooSmallError):
            equilibrium_constant(100.0, pot, 2.0, g)

    def test_profile_mass_matches(self):
        g = Grid(dim=1, h=1e-3, extent=2.0)
        pot = make_quadratic_potential(1.0)
        prof = equilibrium_profile(0.5, pot, 2.0, g)
        mass = integrate(density_from_pressure(prof.pressure, 2.0))
        assert abs(mass - 0.5) <= 1e-8 * 0.5
        assert len(prof.boundary) > 0


class TestSublevelShell:
    def test_exact_level_points(self):
        pot = make_quadratic_potential(1.0)
        pts = np.array([[1.0], [-1.0]])  # Phi = 1 exactly
        assert sublevel_shell_check(pts, pot, 1.0, 1e-9)

    def test_point_outside_shell(self):
        pot = make_quadratic_potential(1.0)
        eps = 0.05
        x = np.sqrt(1.0 + 2 * eps)
        assert not sublevel_shell_check(np.array([[x]]), pot, 1.0, eps)

    def test_empty_raises(self):
        pot = make_quadratic_potential(1.0)
        with pytest.raises(EmptyBoundarySetError):
            sublevel_shell_check(np.empty((0, 1)), pot, 1.0, 0.1)


class TestShellEntryFromSimulation:
    def test_barenblatt_data_enters_shell(self):
        # late-time boundary of a drift run lands in the predicted shell
        pot = make_quadratic_potential(1.0)
        h = 0.05
        g = Grid(dim=1, h=h, extent=2.5)
        spec = BarenblattSpec(m=2.0, d=1, tau=1.0, C=0.3)
        from pmed.initialdata import barenblatt_density

        rho0 = barenblatt_density(g, spec)
        mass = integrate(rho0)
        cfg = SolverConfig(m=2.0, potential=pot, t_end=8.0, snapshot_every=2.0)
        traj = simulate(rho0, cfg)
        prof = equilibrium_profile(mass, pot, 2.0, g, eps_fb=0.01)
        b = extract_boundary(traj.final.field, 0.01)
        eps = 5.0 * h * (1.0 + 2.0 * np.sqrt(prof.c_inf))
        assert sublevel_shell_check(b, pot, prof.c_inf, eps)


class TestBoundaryVelocity:
    def equilibrium_run(self, h=0.05):
        pot = make_quadratic_potential(1.0)
        g = Grid(dim=1, h=h, extent=2.0)
        rho = equilibrium_offset_density(g, 2.0, pot, mass=0.5)
        cfg = SolverConfig(m=2.0, potential=pot, t_end=6.0, snapshot_every=2.0)
        return simulate(rho, cfg)

    def test_equilibrium_is_nearly_stationary(self):
        traj = self.equilibrium_run()
        eps = default_support_threshold(traj.final.field)
        samples = boundary_velocity(traj, eps_fb=eps)
        final = samples[-1]
        assert final.normal_velocity.size > 0
        # relaxed to the discrete steady state: velocities vanish
        assert np.max(np.abs(final.normal_velocity)) <= 1e-6
        # frozen law tolerance at h = 0.05 (measured 0.114)
        assert np.max(np.abs(final.law_residual)) <= 4.0 * 0.05

    def test_2d_equilibrium_velocities(self):
        pot = make_quadratic_potential(1.0)
        g = Grid(dim=2, h=0.1, extent=2.0)
        rho = equilibrium_offset_density(g, 2.0, pot, mass=0.5)
        cfg = SolverConfig(m=2.0, potential=pot, t_end=3.0, snapshot_every=1.0)
        traj = simulate(rho, cfg)
        eps = default_support_threshold(traj.final.field)
        final = boundary_velocity(traj, eps_fb=eps)[-1]
        assert final.normal_velocity.size > 10
        assert np.max(np.abs(final.normal_velocity)) <= 1e-6
        assert np.max(np.abs(final.law_residual)) <= 2.0 * g.h

    def test_needs_three_snapshots(self):
        pot = make_quadratic_potential(1.0)
        g = Grid(dim=1, h=0.05, extent=2.0)
        rho = equilibrium_offset_density(g, 2.0, pot, mass=0.5)
        cfg = SolverConfig(m=2.0, potential=pot, t_end=1.0, snapshot_every=1.0)
        traj = simulate(rho, cfg)
        with pytest.raises(InvalidInputError):
            boundary_velocity(traj, eps_fb=0.01)

    def test_gap_error_lists_times(self):
        g = Grid(dim=1, h=0.05, extent=2.0)
        rho = Field(g, np.zeros(g.shape), FieldVariable.DENSITY)
        cfg = SolverConfig(m=2.0, potential=make_quadratic_potential(1.0),
                           t_end=0.3, snapshot_every=0.1)
        traj = simulate(rho, cfg)
        with pytest.raises(BoundaryGapError) as exc:
            boundary_velocity(traj, eps_fb=0.01)
        assert 0.0 in exc.value.times
