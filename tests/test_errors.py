"""Every scalar range check goes through ``errors.require``: the bound itself,
NaN and +inf (or the float past a closed upper end) raise
InvalidParameterError with "<name> must be ...", the nearest float inside
passes, and so does a closed upper end."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pmed.barriers import (
    BarenblattSpec,
    RescaleSpec,
    SpaceTimeBox,
    SphericalWaveSpec,
    build_barrier,
    residual_pmed,
    validate_wave_params,
)
from pmed.core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    density_from_pressure,
    make_quadratic_potential,
    make_zero_potential,
    pressure_from_density,
)
from pmed.errors import InvalidInputError, InvalidParameterError, PmedError, require
from pmed.freeboundary import equilibrium_constant, extract_boundary
from pmed.initialdata import barenblatt_density, bump_density
from pmed.solver import SolverConfig, cfl_dt, simulate

SRC = Path(__file__).resolve().parent.parent / "src" / "pmed"
GRID = Grid(dim=1, h=0.5, extent=2.0)
ZEROS = {var: Field(GRID, np.zeros(8), var) for var in FieldVariable}
POINT = SpaceTimeBox((0.25,), (0.25,), 0.0, 0.0)  # one sample
BARENBLATT = build_barrier(BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0))
BARENBLATT_2D = build_barrier(BarenblattSpec(m=2.0, d=2, tau=1.0, C=1.0))


def solver(**kw):
    return SolverConfig(**{"m": 2.0, "potential": make_zero_potential(), "t_end": 1.0,
                           "snapshot_every": 0.1, **kw})


def barenblatt(**kw):
    return BarenblattSpec(**{"m": 2.0, "d": 1, "tau": 1.0, "C": 1.0, **kw})


def wave(**kw):
    return SphericalWaveSpec(**{"A": 1.0, "omega": 10.0, "B": 0.75, "R": 1.0, "m": 2.0,
                                "d": 2, **kw})


def rescale(**kw):
    return RescaleSpec(**{"alpha": 0.5, "x0": (0.0,), "t0": 0.0, "drift": (0.0,),
                          "C_pert": 1.0, **kw})


# (name in the message, lower bound, closed upper bound or None, call with the value)
SITES = [
    ("m", 1.0, None, lambda v: solver(m=v)),
    ("cfl_safety", 0.0, 1.0, lambda v: solver(cfl_safety=v)),
    ("t_end", 0.0, None, lambda v: solver(t_end=v)),
    ("snapshot_every", 0.0, None, lambda v: solver(snapshot_every=v)),
    ("spacing h", 0.0, None, lambda v: Grid(dim=1, h=v, extent=4.0 * v)),
    ("extent", 0.0, None, lambda v: Grid(dim=1, h=0.5, extent=v)),
    ("exponent m", 1.0, None, lambda v: pressure_from_density(ZEROS[FieldVariable.DENSITY], v)),
    ("exponent m", 1.0, None, lambda v: density_from_pressure(ZEROS[FieldVariable.PRESSURE], v)),
    ("quadratic coefficient", 0.0, None, lambda v: make_quadratic_potential(v)),
    ("m", 1.0, None, lambda v: barenblatt(m=v)),
    ("tau", 0.0, None, lambda v: barenblatt(tau=v)),
    ("C", 0.0, None, lambda v: barenblatt(C=v)),
    ("A", 0.0, None, lambda v: wave(A=v)),
    ("omega", 0.0, None, lambda v: wave(omega=v)),
    ("R", 0.0, None, lambda v: wave(R=v)),
    ("m", 1.0, None, lambda v: wave(m=v)),
    ("alpha", 0.0, 1.0, lambda v: rescale(alpha=v)),
    ("C_pert", 0.0, None, lambda v: rescale(C_pert=v)),
    ("R", 0.0, None, lambda v: validate_wave_params(1.0, 10.0, 0.75, v, 2.0, 2)),
    ("A", 0.0, None, lambda v: validate_wave_params(v, 10.0, 0.75, 1.0, 2.0, 2)),
    ("h_s", 0.0, None,
     lambda v: residual_pmed(BARENBLATT, make_zero_potential(), POINT, v, 2.0)),
    ("m", 1.0, None,
     lambda v: residual_pmed(BARENBLATT, make_zero_potential(), POINT, 0.05, v)),
    ("eps_fb", 0.0, None, lambda v: extract_boundary(ZEROS[FieldVariable.DENSITY], v)),
    ("target_mass", 0.0, None,
     lambda v: equilibrium_constant(v, make_quadratic_potential(1.0), 2.0, GRID)),
    ("m", 1.0, None,
     lambda v: equilibrium_constant(0.5, make_quadratic_potential(1.0), v, GRID)),
]


def passes(name, call, value):
    """``call(value)`` gets past the range check of ``name``; what it checks
    next may still reject the value (a grid of extent 5e-324 has no cells)."""
    try:
        with np.errstate(all="ignore"):
            call(value)
    except PmedError as exc:
        assert not str(exc).startswith(f"{name} must be"), exc


@pytest.mark.parametrize("name, lo, hi, call", SITES,
                         ids=[f"{k}-{s[0]}" for k, s in enumerate(SITES)])
def test_range_check(name, lo, hi, call):
    outside = [lo, np.nan, np.nextafter(hi, np.inf) if hi is not None else np.inf]
    for value in outside:
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(name)} must be "):
            call(value)
    passes(name, call, np.nextafter(lo, np.inf))
    if hi is not None:
        passes(name, call, hi)


def test_every_require_call_is_listed():
    calls = sum(len(re.findall(r"\brequire\(", p.read_text())) for p in SRC.glob("*.py"))
    assert calls - 1 == len(SITES)  # less the definition


@pytest.mark.parametrize("lo, hi, value, message", [
    (0.0, None, 0.0, "x must be > 0, got 0.0"),
    (1.0, None, 0.5, "x must be > 1, got 0.5"),
    (0.0, 1.0, 1.5, "x must be in (0, 1], got 1.5"),
    (0.0, 1.0, float("nan"), "x must be in (0, 1], got nan"),
    (0.0, None, float("inf"), "x must be > 0, got inf"),
    (0.0, None, float("-inf"), "x must be > 0, got -inf"),
    (0.0, 1.0, float("inf"), "x must be in (0, 1], got inf"),
])
def test_require_message(lo, hi, value, message):
    with pytest.raises(InvalidParameterError) as info:
        require("x", value, lo, hi)
    assert str(info.value) == message


@pytest.mark.parametrize("d,dim", [(1, 2), (2, 1)])
def test_barenblatt_density_needs_the_grid_dimension(d, dim):
    # lambda = 1/((m - 1) d + 2) depends on d: a d = 1 profile on a 2D grid
    # is not the Barenblatt solution there
    grid = Grid(dim=dim, h=0.1, extent=3.0)
    with pytest.raises(InvalidParameterError, match="does not match"):
        barenblatt_density(grid, barenblatt(d=d, C=0.5))


def test_potential_that_is_not_finite_on_the_grid():
    # each case is a typed error that names its cause, with no numpy warning
    # on the way: a NaN rate left the cadence as the step, and an overflowed
    # Phi gave the wrong error or none
    grid = Grid(dim=1, h=0.1, extent=2.0)
    near_one = bump_density(grid, amplitude=0.5, width=0.4, center=1.0)
    centered = bump_density(grid, amplitude=0.5, width=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in ((float("nan"),), (0.0, float("inf")), (0.0, 1.0, -float("inf"))):
            with pytest.raises(InvalidParameterError, match="coefficients must be finite"):
                Potential(c)
        for rho, c in ((near_one, (0.0, 1e308, 1e308)), (centered, (1e308, 0.0, 1e308))):
            cfg = SolverConfig(m=2.0, potential=Potential(c), t_end=0.2, snapshot_every=0.1)
            for call in (cfl_dt, simulate):
                with pytest.raises(InvalidParameterError, match=r"drift of the potential "
                                   r"\(.*\) is not finite on the grid"):
                    call(rho, cfg)
        # p and its rates are finite, but the box's drift rate O / h is not
        cfg = SolverConfig(m=2.0, potential=Potential((0.0, 0.0, 1e307)), t_end=0.2,
                           snapshot_every=0.1)
        with pytest.raises(InvalidInputError, match="step rate is not finite: the drift "
                           "out of the support box gives a rate that overflows a float"):
            cfl_dt(near_one, cfg)
        for dim in (1, 2):
            with pytest.raises(InvalidParameterError, match="is not finite on the grid"):
                equilibrium_constant(0.1, make_quadratic_potential(1e308), 2.0,
                                     Grid(dim=dim, h=0.1, extent=2.0))
        # 2D: each p(x_i) is finite, but p(x_i) + p(x_j) is not near the corners
        with pytest.raises(InvalidParameterError, match="is not finite on the grid"):
            equilibrium_constant(0.1, Potential((0.0, 0.0, 3e307)), 2.0,
                                 Grid(dim=2, h=0.1, extent=2.0))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("h", [1e-170, 1e200])
def test_spacing_whose_square_is_not_a_positive_float(h, dim):
    # 8 cells, but h^2 underflows to 0.0 or overflows: cfl_dt divides by it,
    # and raised a bare ZeroDivisionError or OverflowError
    with pytest.raises(InvalidParameterError,
                       match=rf"^spacing h = {re.escape(repr(h))} squares to "):
        Grid(dim=dim, h=h, extent=4.0 * h)


@pytest.mark.parametrize("every", [
    1e-6,  # 1e12 snapshots of 20 cells, 146 TiB: MemoryError
    1e-12,  # 1e18 snapshots, past 2^63 bytes: ValueError
])
def test_snapshots_numpy_cannot_allocate(every):
    # the run's snapshot buffer is allocated before the first step
    rho = bump_density(Grid(dim=1, h=0.1, extent=1.0), amplitude=0.5, width=0.4)
    with pytest.raises(InvalidParameterError, match=r"^t_end / snapshot_every gives \d{13,19}"
                       r" snapshots of 1 x \(20,\) cells, more than numpy can allocate$"):
        simulate(rho, solver(t_end=1e6, snapshot_every=every))


def test_cell_count_that_overflows():
    with pytest.raises(InvalidParameterError, match="is not an integer cell count"):
        Grid(dim=1, h=5e-324, extent=2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["lo", "hi", "second lo", "second hi", "t_lo", "t_hi"])
def test_box_bounds_must_be_finite(field, value):
    # a non-finite bound would reach the sample lattice as a bare
    # ValueError or OverflowError
    bounds = {"lo": [-0.25, -0.25], "hi": [0.25, 0.25], "t_lo": 0.0, "t_hi": 0.0}
    if field.startswith("second"):
        bounds[field.split()[1]][1] = value
    elif field in ("lo", "hi"):
        bounds[field][0] = value
    else:
        bounds[field] = value
    with pytest.raises(InvalidParameterError, match="^box bounds must be finite, got "):
        SpaceTimeBox(tuple(bounds["lo"]), tuple(bounds["hi"]), bounds["t_lo"], bounds["t_hi"])


def test_lattice_whose_point_count_overflows():
    # (hi - lo) / h_s overflows a float: the lattice cannot be counted
    box = SpaceTimeBox((-1e308,), (1e308,), 0.0, 0.0)
    with pytest.raises(InvalidParameterError,
                       match=r"^box extent \[-1e\+308, 1e\+308\] at h_s 1.0 gives"):
        residual_pmed(BARENBLATT, make_zero_potential(), box, 1.0, 2.0)


@pytest.mark.parametrize("half, points", [
    (5e14, "1000000000000001"),  # 7.1 PiB: MemoryError
    (2.5e18, "5000000000000000001"),  # past 2^63 bytes: ValueError
    (2.0**62, "9223372036854775809"),  # np.arange(2**63 + 1) is empty
    (5e18, "10000000000000000001"),  # past 2^63 points: ValueError
])
def test_lattice_numpy_cannot_allocate(half, points):
    # sizes numpy refuses before it allocates anything
    box = SpaceTimeBox((-half,), (half,), 0.0, 0.0)
    with pytest.raises(InvalidParameterError,
                       match=rf"gives a lattice of {points} points, more than numpy can"):
        residual_pmed(BARENBLATT, make_zero_potential(), box, 1.0, 2.0)


def test_2d_lattice_numpy_cannot_allocate():
    # two axes of 6e6 points (48 MB each) whose 3.6e13-point product, 288 TB
    # per coordinate, is past the 128 TiB of a 47-bit user address space
    box = SpaceTimeBox((-3e6, -3e6), (3e6, 3e6), 0.0, 0.0)
    with pytest.raises(InvalidParameterError,
                       match=r"gives a lattice of 6000001 x 6000001 points, more than numpy"):
        residual_pmed(BARENBLATT_2D, make_zero_potential(), box, 1.0, 2.0)
