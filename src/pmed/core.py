"""Grids, scalar fields, the density/pressure transform, and drift potentials.

The computational domain is a fixed box [-L, L]^dim (dim = 1 or 2) with a
uniform cell width h shared by all axes.  Cell centers sit at
x_i = -L + (i + 1/2) h.  Fields store one nonnegative value per cell and are
tagged as holding either the density rho or the pressure
u = m/(m-1) * rho^(m-1); the outermost cell ring is required to be zero so
that everything stays compactly supported inside the box.

All operations are pure functions of immutable inputs.  Reductions use a
fixed traversal order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (InvalidInputError, InvalidParameterError, UnsupportedPotentialError,
                     require)

__all__ = [
    "Grid",
    "FieldVariable",
    "Field",
    "Potential",
    "pressure_from_density",
    "density_from_pressure",
    "integrate",
    "dot_last",
    "ring",
    "support_box",
    "level_crossings",
    "make_quadratic_potential",
    "make_zero_potential",
    "make_polynomial_potential",
]


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian lattice on the box [-extent, extent]^dim."""

    dim: int
    h: float
    extent: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidParameterError(f"dim must be 1 or 2, got {self.dim}")
        require("spacing h", self.h, 0.0)
        require("extent", self.extent, 0.0)
        cells = 2.0 * self.extent / self.h
        n = round(cells) if cells < np.inf else 0  # h far below extent overflows
        if abs(n * self.h - 2.0 * self.extent) > 1e-9 * self.extent:
            raise InvalidParameterError(f"2*extent/h = {cells} is not an integer cell count")
        if n < 8:
            raise InvalidParameterError(f"need at least 8 cells per axis, got {n}")

    @property
    def n_cells(self) -> int:
        """Cells per axis."""
        return round(2.0 * self.extent / self.h)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_cells,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis, ascending."""
        n = self.n_cells
        return -self.extent + (np.arange(n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        """Cell-center positions, shape grid.shape + (dim,)."""
        axes = (self.axis_centers(),) * self.dim
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def coord_of_index(self, i: int) -> float:
        return -self.extent + (i + 0.5) * self.h

    def index_of_coord(self, x: float) -> int:
        return int(round((x + self.extent) / self.h - 0.5))


class FieldVariable(enum.Enum):
    DENSITY = "density"
    PRESSURE = "pressure"


@dataclass(frozen=True)
class Field:
    """Nonnegative scalar per cell, compactly supported inside the box."""

    grid: Grid
    values: np.ndarray
    variable: FieldVariable

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidInputError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not (v.min() >= 0.0 and v.max() < np.inf):  # NaN fails both
            raise InvalidInputError("field values must be finite and nonnegative")
        if np.any(ring(v, 1) != 0.0):
            raise InvalidInputError("outermost cell ring must be zero (compact support)")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values, self.variable)

    def max(self) -> float:
        return float(self.values.max())


def dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=-1)``, bit for bit, for a last axis shorter than 8:
    numpy's reduce adds the products in axis order onto +0.0 (added last here,
    where it only turns a -0.0 sum into +0.0), without the reduce's overhead."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    out += 0.0
    return out


def ring(values: np.ndarray, width: int) -> np.ndarray:
    """Values of the outermost ``width`` cell rings of a 1D or 2D array.

    Returned flat in row-major order, i.e. ``values[mask]`` for the boolean
    mask of the ring; ``width`` must be less than half of every axis.
    """
    v, w = values, width
    if v.ndim == 1:
        return np.concatenate((v[:w], v[-w:]))
    sides = v[w:-w][:, np.r_[:w, -w:0]]
    return np.concatenate((v[:w].ravel(), sides.ravel(), v[-w:].ravel()))


def support_box(mask: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Per axis, ``(first, last + 1)`` of the True entries of ``mask``, or
    None when there are none."""
    box = []
    for a in range(mask.ndim):
        others = tuple(k for k in range(mask.ndim) if k != a)
        hit = np.flatnonzero(np.logical_or.reduce(mask, axis=others))
        if not hit.size:
            return None
        lo, hi = int(hit[0]), int(hit[-1]) + 1
        box.append((lo, hi))
        mask = mask[(slice(None),) * a + (slice(lo, hi),)]  # the later axes scan less
    return tuple(box)


def level_crossings(values: np.ndarray, axes: Sequence[np.ndarray], level: float) -> np.ndarray:
    """Linear-interpolated crossings of ``level`` between adjacent samples.

    ``values`` is sampled on the 1D or 2D tensor lattice of the coordinate
    arrays ``axes`` (one per array axis).  A crossing lies on each lattice edge
    whose endpoints fall on different sides of ``values > level``.  Returns
    the points, shape (k, ndim): axis-0 edges before axis-1 edges, each in
    row-major order of the edge's lower endpoint.

    Only the bounding box of ``values > level``, grown by one sample and
    clipped to the array, is searched: every edge with a crossing has an
    endpoint above the level, so it lies in that box, and the points and
    their order are those of the whole lattice.

    Each axis's edges come from flat indices: ``np.flatnonzero`` of its
    ``np.diff`` mask, split by one divmod into the lower end's row and
    column (a 1D lattice has only the column) and written into the points.
    """
    above = values > level
    box = support_box(above)
    if box is None:
        return np.empty((0, above.ndim))
    box = tuple(slice(max(lo - 1, 0), hi + 1) for lo, hi in box)
    flat, above = values[box].ravel(), above[box]
    axes, n, d = [x[s] for x, s in zip(axes, box)], above.shape[-1], above.ndim
    edges = [np.flatnonzero(np.diff(above, axis=a)) for a in range(d)]
    pts, start = np.empty((sum(map(len, edges)), d)), 0
    for a, k in enumerate(edges):
        last = a == d - 1
        rows, cols = np.divmod(k, n - last)  # a mask row along the last axis is one sample shorter
        lower = k + rows if last else k
        v0 = flat[lower]
        theta = (level - v0) / (flat[lower + (1 if last else n)] - v0)
        block, start = pts[start:start + len(k)], start + len(k)
        for b, (x, i) in enumerate(zip(axes, (rows, cols)[2 - d:])):
            block[:, b] = x[i] + theta * (x[i + 1] - x[i]) if b == a else x[i]
    return pts


def pressure_from_density(rho: Field, m: float) -> Field:
    """u = m/(m-1) rho^(m-1), cellwise.  Support is unchanged."""
    require("exponent m", m, 1.0)
    if rho.variable is not FieldVariable.DENSITY:
        raise InvalidInputError("pressure_from_density expects a density field")
    u = (m / (m - 1.0)) * np.power(rho.values, m - 1.0)
    return Field(rho.grid, u, FieldVariable.PRESSURE)


def density_from_pressure(u: Field, m: float) -> Field:
    """rho = ((m-1)/m u)^(1/(m-1)), the inverse of pressure_from_density."""
    require("exponent m", m, 1.0)
    if u.variable is not FieldVariable.PRESSURE:
        raise InvalidInputError("density_from_pressure expects a pressure field")
    rho = np.power(((m - 1.0) / m) * u.values, 1.0 / (m - 1.0))
    return Field(u.grid, rho, FieldVariable.DENSITY)


def integrate(f: Field) -> float:
    """h^dim * sum of cell values, reduced in a fixed deterministic order."""
    return f.grid.cell_volume * float(np.sum(f.values))


def _horner(c: Sequence[float], x: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients ``c`` at every entry of the
    float array ``x``, by Horner's rule."""
    out = np.full_like(x, c[-1])
    for ck in c[-2::-1]:
        out *= x
        out += ck
    return out


def _derivative(c: Sequence[float]) -> tuple[float, ...]:
    return tuple(k * ck for k, ck in enumerate(c))[1:] or (0.0,)


_BIG = float(np.finfo(float).max)  # the real line, as far as floats reach


def _ordered(i: np.ndarray) -> np.ndarray:
    """Int64 bit patterns of floats to integers in the floats' order, and back."""
    return i ^ ((i >> 63) & 0x7FFFFFFFFFFFFFFF)


def _roots(c: Sequence[float], lo: float, hi: float) -> np.ndarray:
    """Real roots of the polynomial ``c`` in [lo, hi], each to one ulp.  Each
    derivative of c is monotone between roots of the next, so each such piece
    holds at most one root: 64 halvings in the floats' order reach it."""
    chain = [c]
    while any(chain[-1][1:]):
        chain.append(_derivative(chain[-1]))
    roots = np.empty(0)
    for q in chain[-2::-1]:
        ends = np.concatenate(([lo], roots, [hi]))
        s = np.sign(_horner(q, ends))
        has = s[:-1] * s[1:] <= 0
        sign_a = s[:-1][has]
        a, b = (_ordered(e[has].view(np.int64)) for e in (ends[:-1], ends[1:]))
        for _ in range(64):
            mid = (a >> 1) + (b >> 1) + (a & b & 1)
            left = np.sign(_horner(q, _ordered(mid).view(float))) == sign_a
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        roots = _ordered(a).view(float)
    return roots


def _extrema(c: Sequence[float], lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The polynomial ``c`` at every point of [lo, hi] where it can take an
    extremum on it (the ends and the real roots of c' between them), and the
    size sum_k |c_k x^k| of its terms there."""
    with np.errstate(over="ignore"):
        x = np.concatenate(([lo, hi], _roots(_derivative(c), lo, hi)))
        return _horner(c, x), _horner(np.abs(c), np.abs(x))


@dataclass(frozen=True)
class Potential:
    """Drift potential Phi(x) = sum_k p(x_k) over the axes of x, for the
    polynomial p with ascending ``coefficients``; hashed and compared by value.

    ``eval`` maps points (..., dim) to values (...).  ``grad`` applies p' to
    every entry, so it maps points to gradients (..., dim), and coordinates
    along one axis to that partial derivative.  Convexity, the minimum and
    Hessian bounds are computed from the coefficients."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        c = tuple(map(float, self.coefficients))
        if not c:
            raise InvalidParameterError("need at least one polynomial coefficient")
        if not np.isfinite(c).all():
            raise InvalidParameterError(f"polynomial coefficients must be finite, got {c}")
        object.__setattr__(self, "coefficients", c)

    def eval(self, x) -> np.ndarray:
        v = _horner(self.coefficients, np.asarray(x, dtype=float))
        out = v[..., 0]
        for k in range(1, v.shape[-1]):
            out = out + v[..., k]
        return out

    def grad(self, x) -> np.ndarray:
        return _horner(_derivative(self.coefficients), np.asarray(x, dtype=float))

    @property
    def strictly_convex(self) -> bool:
        """p'' >= 0 on R, to rounding at the real roots of p''', and p'' != 0."""
        d2 = _derivative(_derivative(self.coefficients))
        deg = max((k for k, ck in enumerate(d2) if ck), default=-1)
        if deg < 0 or deg % 2 or d2[deg] < 0:
            return False
        v, size = _extrema(d2, -_BIG, _BIG)
        return bool(np.all(v >= -8.0 * np.finfo(float).eps * size))

    def min_value(self, dim: int) -> float:
        """Global minimum dim * min p over ``dim`` axes, min p taken at a real
        root of p' and computed once per potential value."""
        return dim * _min_value(self)

    def hessian_bound(self, lo, hi) -> float:
        """Largest over the axes k of lo and hi of max |p''| on [lo_k, hi_k],
        each exact up to rounding: the Hessian of a separable Phi is diagonal,
        so this is its largest norm on that box."""
        d2 = _derivative(_derivative(self.coefficients))
        lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
        return float(max(np.abs(_extrema(d2, a, b)[0]).max() for a, b in zip(lo, hi)))


@lru_cache(maxsize=64)
def _min_value(pot: Potential) -> float:
    if not pot.strictly_convex:
        raise UnsupportedPotentialError(
            f"needs a strictly convex potential, got coefficients {pot.coefficients}"
        )
    return float(_extrema(pot.coefficients, -_BIG, _BIG)[0].min())


def make_quadratic_potential(a: float) -> Potential:
    """Phi(x) = a |x|^2, so p = a x^2; strictly convex, minimum at 0."""
    require("quadratic coefficient", a, 0.0)
    return Potential((0.0, 0.0, a))


def make_zero_potential() -> Potential:
    """Phi = 0: no drift, not strictly convex."""
    return Potential((0.0,))


def make_polynomial_potential(coefficients: Sequence[float]) -> Potential:
    """Phi(x) = sum_k p(x_k) for the polynomial p(y) = sum_j c_j y^j."""
    return Potential(tuple(coefficients))
