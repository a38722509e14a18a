import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmed.core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    integrate,
    density_from_pressure,
    dot_last,
    level_crossings,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
    pressure_from_density,
    ring,
    support_box,
)
from pmed.errors import InvalidInputError, InvalidParameterError, UnsupportedPotentialError


def field_1d(values, h=0.5, L=2.0, variable=FieldVariable.DENSITY):
    return Field(Grid(dim=1, h=h, extent=L), np.asarray(values, float), variable)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(dim=1, h=0.5, extent=2.0)
        assert g.n_cells == 8
        assert g.cell_volume == 0.5
        np.testing.assert_allclose(g.axis_centers()[0], -1.75)
        np.testing.assert_allclose(g.axis_centers()[-1], 1.75)

    def test_2d_centers_shape(self):
        g = Grid(dim=2, h=0.25, extent=1.0)
        assert g.centers().shape == (8, 8, 2)
        np.testing.assert_allclose(g.centers()[0, 0], [-0.875, -0.875])

    @pytest.mark.parametrize("kwargs", [
        dict(dim=3, h=0.5, extent=2.0),
        dict(dim=1, h=-0.5, extent=2.0),
        dict(dim=1, h=0.5, extent=-2.0),
        dict(dim=1, h=0.3, extent=1.0),   # 2L/h not an integer
        dict(dim=1, h=1.0, extent=2.0),   # fewer than 8 cells
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Grid(**kwargs)

    def test_index_coordinate_roundtrip_exact(self):
        g = Grid(dim=1, h=0.05, extent=4.0)
        for i in range(g.n_cells):
            assert g.index_of_coord(g.coord_of_index(i)) == i


class TestField:
    def test_rejects_negative_values(self):
        v = np.zeros(8)
        v[3] = -1e-3
        with pytest.raises(InvalidInputError):
            field_1d(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variable", list(FieldVariable))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_non_finite_values(self, bad, variable, dim):
        g = Grid(dim=dim, h=0.5, extent=2.0)
        v = np.zeros(g.shape)
        v[(3,) * dim] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            Field(g, v, variable)

    def test_rejects_nonzero_ring(self):
        v = np.zeros(8)
        v[0] = 0.1
        with pytest.raises(InvalidInputError):
            field_1d(v)

    def test_rejects_shape_mismatch(self):
        g = Grid(dim=1, h=0.5, extent=2.0)
        with pytest.raises(InvalidInputError):
            Field(g, np.zeros(9), FieldVariable.DENSITY)

    def test_values_are_frozen(self):
        f = field_1d(np.zeros(8))
        with pytest.raises(ValueError):
            f.values[2] = 1.0


class TestRing:
    @pytest.mark.parametrize("shape", [(8,), (9,), (8, 8), (9, 12), (12, 9)])
    @pytest.mark.parametrize("width", [1, 2])
    def test_matches_boolean_mask(self, shape, width):
        # distinct values, so a missing, repeated or reordered cell shows
        v = np.arange(np.prod(shape), dtype=float).reshape(shape)
        mask = np.ones(shape, dtype=bool)
        mask[(slice(width, -width),) * len(shape)] = False
        np.testing.assert_array_equal(ring(v, width), v[mask], strict=True)


def loop_level_crossings(values, axes, level):
    """Per-point reference: the edge loop boundary extraction used to run."""
    above = values > level
    pts = []
    if values.ndim == 1:
        (x,) = axes
        for i in np.nonzero(above[:-1] != above[1:])[0]:
            theta = (level - values[i]) / (values[i + 1] - values[i])
            pts.append([x[i] + theta * (x[i + 1] - x[i])])
    else:
        x, y = axes
        for i, j in np.argwhere(above[:-1, :] != above[1:, :]):
            theta = (level - values[i, j]) / (values[i + 1, j] - values[i, j])
            pts.append([x[i] + theta * (x[i + 1] - x[i]), y[j]])
        for i, j in np.argwhere(above[:, :-1] != above[:, 1:]):
            theta = (level - values[i, j]) / (values[i, j + 1] - values[i, j])
            pts.append([x[i], y[j] + theta * (y[j + 1] - y[j])])
    return np.asarray(pts, dtype=float).reshape(-1, values.ndim)


@st.composite
def lattice_fields(draw):
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
    # a few distinct values, so cells often tie with each other and the level
    palette = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    values = draw(arrays(float, shape, elements=st.sampled_from(palette)))
    axes = tuple(
        draw(arrays(float, n, elements=st.floats(-10.0, 10.0))) for n in shape
    )
    level = draw(st.sampled_from(palette) | st.floats(-2.0, 2.0))
    return values, axes, level


class TestLevelCrossings:
    @settings(max_examples=300, deadline=None)
    @given(lattice_fields())
    def test_matches_per_point_loop(self, case):
        values, axes, level = case
        np.testing.assert_array_equal(
            level_crossings(values, axes, level),
            loop_level_crossings(values, axes, level),
            strict=True,
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_support_box_anywhere(self, data):
        # the set above the level fills a random box: inside the array, at
        # its edges and corners, all of it, or nothing
        shape = tuple(data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
        values = np.full(shape, -1.0)
        box = []
        for n in shape:
            lo = data.draw(st.integers(0, n))
            box.append(slice(lo, data.draw(st.integers(lo, n))))
        inside = values[tuple(box)]
        inside[...] = data.draw(arrays(float, inside.shape, elements=st.floats(-0.5, 2.0)))
        axes = tuple(np.cumsum(data.draw(arrays(float, n, elements=st.floats(0.1, 3.0))))
                     for n in shape)
        got = level_crossings(values, axes, 0.0)
        np.testing.assert_array_equal(got, loop_level_crossings(values, axes, 0.0),
                                      strict=True)
        # every drawn value inside the box is above -1, every value outside is -1
        want = tuple((s.start, s.stop) for s in box)
        assert support_box(values > -1.0) == (None if inside.size == 0 else want)

    @pytest.mark.parametrize("shape", [(9,), (7, 10)])
    @pytest.mark.parametrize("fill", ["empty", "full", "edges"])
    def test_empty_full_and_edge_touching_sets(self, shape, fill):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 1.0, shape) * (-1.0 if fill == "empty" else 1.0)
        if fill == "edges":  # above the level only on the first and last index
            values[(slice(1, -1),) * len(shape)] = -1.0
        axes = tuple(np.arange(n, dtype=float) for n in shape)
        got = level_crossings(values, axes, 0.0)
        np.testing.assert_array_equal(got, loop_level_crossings(values, axes, 0.0),
                                      strict=True)
        assert got.shape[1] == len(shape) and got.dtype == float
        assert (len(got) == 0) == (fill != "edges")

    def test_2d_order_axis0_edges_first(self):
        v = np.zeros((3, 3))
        v[1, 1] = 1.0
        ax = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            level_crossings(v, (ax, ax), 0.5),
            [[0.5, 1.0], [1.5, 1.0], [1.0, 0.5], [1.0, 1.5]],
        )


# signed zeros, subnormals, and magnitudes 1e-150..1e150 (products stay finite)
DOT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0**exp,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-150, 150)),
)


@st.composite
def dot_operands(draw):
    # a last axis of 3 or more is where the order of the additions shows:
    # a sum of two terms is the same in either order
    dim = draw(st.sampled_from([1, 2, 3, 7]))
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 4)),),
                                 (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]))
    size = int(np.prod(lead + (dim,)))
    a, b = (np.array(draw(st.lists(DOT_VALUES, min_size=size, max_size=size)))
            .reshape(lead + (dim,)) for _ in range(2))
    return a, a if draw(st.booleans()) else b


class TestDotLast:
    @settings(max_examples=400, deadline=None)
    @given(dot_operands())
    @example((np.array([-0.0]), np.array([1.0])))  # numpy sums onto +0.0: not -0.0
    @example((np.array([[-0.0, 0.0], [-0.0, -0.0]]), np.array([[1.0, -1.0], [1.0, 2.0]])))
    @example((np.array([1.0, 1e16, -1e16]), np.ones(3)))  # axis order: 0.0, reversed 1.0
    def test_matches_numpy_sum(self, operands):
        a, b = operands
        want = np.asarray(np.sum(a * b, axis=-1))
        got = np.asarray(dot_last(a, b))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_broadcasts_and_keeps_inputs(self):
        a = np.arange(6.0).reshape(3, 2)
        before = a.copy()
        np.testing.assert_array_equal(dot_last(a, np.array([1.0, -1.0])), [-1.0, -1.0, -1.0])
        np.testing.assert_array_equal(a, before)


class TestTransforms:
    def test_constant_density_m2(self):
        v = np.zeros(8)
        v[2:6] = 1.0
        u = pressure_from_density(field_1d(v), 2.0)
        np.testing.assert_array_equal(u.values[2:6], 2.0)
        assert u.variable is FieldVariable.PRESSURE

    def test_zero_density(self):
        u = pressure_from_density(field_1d(np.zeros(8)), 3.0)
        np.testing.assert_array_equal(u.values, 0.0)

    def test_constant_density_m3(self):
        v = np.zeros(8)
        v[3:5] = 2.0
        u = pressure_from_density(field_1d(v), 3.0)
        np.testing.assert_allclose(u.values[3:5], 6.0)

    def test_pressure_inverse(self):
        v = np.zeros(8)
        v[2:6] = 2.0
        rho = density_from_pressure(
            field_1d(v, variable=FieldVariable.PRESSURE), 2.0
        )
        np.testing.assert_allclose(rho.values[2:6], 1.0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for m in (1.5, 2.0, 3.0):
            v = np.zeros(64)
            v[2:-2] = rng.random(60)
            rho = field_1d(v, h=0.125, L=4.0)
            back = density_from_pressure(pressure_from_density(rho, m), m)
            assert np.max(np.abs(back.values - v)) <= 1e-12 * np.max(v)

    def test_support_preserved(self):
        v = np.zeros(16)
        v[4:7] = 0.5
        u = pressure_from_density(field_1d(v, h=0.25), 2.5)
        np.testing.assert_array_equal(u.values > 0, v > 0)

    @pytest.mark.parametrize("m", [1.0, 0.5, -2.0])
    def test_invalid_exponent(self, m):
        f = field_1d(np.zeros(8))
        with pytest.raises(InvalidParameterError, match="^exponent m must be > 1"):
            pressure_from_density(f, m)

    def test_variable_tag_enforced(self):
        f = field_1d(np.zeros(8), variable=FieldVariable.PRESSURE)
        with pytest.raises(InvalidInputError):
            pressure_from_density(f, 2.0)


class TestIntegrate:
    def test_zero(self):
        assert integrate(field_1d(np.zeros(8))) == 0.0

    def test_four_cells(self):
        v = np.zeros(8)
        v[2:6] = 1.0
        assert integrate(field_1d(v, h=0.5)) == 2.0

    def test_quartic_bump_pressure_oracle(self):
        # rho = (1 - x^2)_+^2, m = 2: int u = 2 * int rho = 2 * 16/15
        g = Grid(dim=1, h=0.05, extent=4.0)
        x = g.axis_centers()
        rho = Field(g, np.maximum(1 - x * x, 0.0) ** 2, FieldVariable.DENSITY)
        got = integrate(pressure_from_density(rho, 2.0))
        assert abs(got - 32.0 / 15.0) <= 1e-3

    def test_linearity(self):
        rng = np.random.default_rng(3)
        v = np.zeros(32)
        v[2:-2] = rng.random(28)
        f = field_1d(v, h=0.25, L=4.0)
        assert integrate(f.with_values(2.0 * v)) == 2.0 * integrate(f)


class TestPotentials:
    def test_quadratic_values(self):
        pot = make_quadratic_potential(1.0)
        x = np.array([1.0, 0.0])
        assert pot.eval(x) == 1.0
        np.testing.assert_array_equal(pot.grad(x), [2.0, 0.0])
        assert pot.eval(np.zeros(2)) == 0.0
        np.testing.assert_array_equal(pot.grad(np.zeros(2)), 0.0)
        assert pot.strictly_convex
        # Hessian diag(2, 2): its norm is the larger diagonal entry, not their sum
        assert pot.hessian_bound([-1.0, -1.0], [1.0, 1.0]) == 2.0
        assert pot.min_value(2) == 0.0

    def test_quadratic_invalid(self):
        with pytest.raises(InvalidParameterError):
            make_quadratic_potential(0.0)

    def test_gradient_matches_finite_differences(self):
        a = 1.7
        pot = make_quadratic_potential(a)
        rng = np.random.default_rng(11)
        h = 1e-3
        pts = rng.uniform(-2, 2, size=(100, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (pot.eval(pts + e) - pot.eval(pts - e)) / (2 * h)
            assert np.max(np.abs(fd - pot.grad(pts)[:, k])) <= 10 * h * h * a

    def test_gradient_nonzero_away_from_minimum(self):
        pot = make_quadratic_potential(2.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.1, 3.0, size=(50, 1)) * rng.choice([-1, 1], size=(50, 1))
        norms = np.abs(pot.grad(pts)[:, 0])
        assert np.all(norms > 0)

    def test_zero_potential(self):
        pot = make_zero_potential()
        pts = np.ones((4, 2))
        np.testing.assert_array_equal(pot.eval(pts), 0.0)
        np.testing.assert_array_equal(pot.grad(pts), 0.0)
        assert not pot.strictly_convex

    def test_polynomial(self):
        # Phi = 1 + x^2 + x^4
        pot = make_polynomial_potential([1.0, 0.0, 1.0, 0.0, 1.0])
        x = np.array([[2.0], [0.0]])
        np.testing.assert_allclose(pot.eval(x), [21.0, 1.0])
        np.testing.assert_allclose(pot.grad(x)[:, 0], [2 * 2 + 4 * 8, 0.0])
        assert pot.strictly_convex
        assert pot.min_value(1) == 1.0
        assert pot.min_value(2) == 2.0

    def test_one_representation(self):
        assert make_quadratic_potential(1.0) == make_polynomial_potential([0, 0, 1])
        assert make_zero_potential() == Potential((0.0,))
        with pytest.raises(InvalidParameterError):
            make_polynomial_potential([])

    @pytest.mark.parametrize("pot,convex", [
        (make_polynomial_potential([0, 0, 0, 0, 1]), True),  # x^4
        (make_polynomial_potential([1, -4, 6, -4, 1]), True),  # (x - 1)^4 expanded
        (make_polynomial_potential([0, 0, 0.3]), True),
        (make_quadratic_potential(0.3), True),
        (make_polynomial_potential([0, 0, -1, 0, 1]), False),  # double well x^4 - x^2
        (make_polynomial_potential([0, 0, 0, 1]), False),  # x^3
        (make_polynomial_potential([2.5]), False),
        (make_polynomial_potential([1.0, 3.0]), False),
        (make_zero_potential(), False),
        (make_polynomial_potential([0, 0, -1]), False),
        (make_polynomial_potential([0, 0, 0, 0, -1]), False),
    ])
    def test_strictly_convex_table(self, pot, convex):
        assert pot.strictly_convex is convex
        if convex:
            assert pot.min_value(1) == pytest.approx(0.0, abs=1e-15)
        else:
            with pytest.raises(UnsupportedPotentialError):
                pot.min_value(1)

    def test_min_value_is_computed_once_per_potential_value(self, monkeypatch):
        import pmed.core as core
        calls = []
        real = core._roots

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(core, "_roots", counting)
        core._min_value.cache_clear()
        first = make_quadratic_potential(1.7).min_value(2)
        assert calls
        calls.clear()
        assert Potential((0.0, 0.0, 1.7)).min_value(2) == first
        assert Potential((0.0, 0.0, 1.7)).min_value(1) == first / 2
        assert calls == []

    def test_non_convex_min_value_raises_on_every_call(self):
        pot = make_polynomial_potential([0, 0, -1, 0, 1])
        for _ in range(3):
            with pytest.raises(UnsupportedPotentialError):
                pot.min_value(2)


# Reference closures of the potentials before they became coefficient
# values, kept to pin eval and grad bit for bit.
def _old_polynomial_eval(coeffs, x):
    s = x[..., 0]
    out = np.zeros_like(s)
    for c in reversed(coeffs):
        out = out * s + c
    return out


def _old_polynomial_grad(coeffs, x):
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
    return _old_polynomial_eval(dcoeffs, x)[..., None]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _abs_poly(c, r):
    """sum_k |c_k| r^k, the size of the terms of a polynomial at |x| <= r."""
    return float(np.abs(c) @ r ** np.arange(len(c)))


P = np.polynomial.polynomial
# a -0.0 leading coefficient is the one input where the old Horner from +0.0
# and Horner from the leading coefficient differ (in the sign of a zero)
COEFFS = st.lists(st.floats(-3, 3).map(lambda v: v + 0.0), min_size=1, max_size=7)
# kept out of the subnormal range, where a (x x) and (a x) x round apart
COORDS = st.floats(-4, 4).filter(lambda v: v == 0 or abs(v) > 1e-100)


class TestPotentialProperties:
    @settings(max_examples=200, deadline=None)
    @given(COEFFS, st.lists(COORDS, min_size=1, max_size=30))
    def test_polynomial_bit_for_bit(self, coeffs, xs):
        pot = make_polynomial_potential(coeffs)
        x = np.array(xs)[:, None]
        assert _same_bits(pot.eval(x), _old_polynomial_eval(coeffs, x))
        assert _same_bits(pot.grad(x), _old_polynomial_grad(coeffs, x))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), st.sampled_from([1, 2]),
           st.lists(COORDS, min_size=2, max_size=30))
    def test_quadratic_bit_for_bit(self, a, dim, xs):
        pot = make_quadratic_potential(a)
        x = np.array(xs[: len(xs) // dim * dim]).reshape(-1, dim)
        assert _same_bits(pot.eval(x), a * dot_last(x, x))
        # equal as numbers; the old 2 a x kept the sign of x = -0.0
        np.testing.assert_array_equal(pot.grad(x), 2.0 * a * x)

    @settings(max_examples=300, deadline=None)
    @given(COEFFS, st.floats(-3, 3), st.floats(0, 3), st.floats(-3, 3))
    def test_hessian_bound_is_the_max_of_the_second_derivative(self, coeffs, lo, width, lo2):
        hi = lo + width
        d2 = P.polyder(coeffs, 2)
        x = np.linspace(lo, hi, 4001)
        sampled = float(np.abs(P.polyval(x, d2)).max())
        r = max(abs(lo), abs(hi))
        # |p''| between samples exceeds the nearest one by <= max|p''''| step^2 / 8
        d4 = P.polyder(coeffs, 4)
        gap = _abs_poly(d4, r) * (x[1] - x[0]) ** 2 / 8.0
        rounding = 1e-12 * _abs_poly(d2, r)
        pot = make_polynomial_potential(coeffs)
        bound = pot.hessian_bound([lo], [hi])
        assert sampled - rounding <= bound <= sampled + gap + rounding
        # over two axes, the larger of the two intervals' bounds
        second = pot.hessian_bound([lo2], [lo2 + width])
        assert pot.hessian_bound([lo, lo2], [hi, lo2 + width]) == max(bound, second)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 3), st.floats(0, 2),
           st.floats(-2, 2), st.sampled_from([1, 2]))
    def test_min_value_is_the_sampled_minimum(self, c0, c1, a, d, e, dim):
        # c0 + c1 x + a x^2 + d (x - e)^4, strictly convex for a > 0
        coeffs = (c0 + d * e**4, c1 - 4 * d * e**3, a + 6 * d * e**2, -4 * d * e, d)
        pot = Potential(coeffs)
        assert pot.strictly_convex
        # the minimizer |x*| <= |c1| / (2 a) + 2 |e| + 1 < 35; a convex p has
        # it within one step of the coarse argmin, so refine around that
        x = np.linspace(-35.0, 35.0, 70001)
        i = int(np.argmin(P.polyval(x, coeffs)))
        fine = np.linspace(x[i - 1], x[i + 1], 2001)
        sampled = dim * float(P.polyval(fine, coeffs).min())
        r = max(abs(fine[0]), abs(fine[-1]))
        gap = dim * _abs_poly(P.polyder(coeffs, 2), r) * (fine[1] - fine[0]) ** 2 / 8.0
        rounding = 1e-12 * dim * _abs_poly(coeffs, r)
        assert sampled - gap - rounding <= pot.min_value(dim) <= sampled + rounding
