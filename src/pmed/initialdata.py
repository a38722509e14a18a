"""Initial density profiles for experiments."""

from __future__ import annotations

import numpy as np

from .barriers import BarenblattSpec, barenblatt
from .core import Field, FieldVariable, Grid, Potential, density_from_pressure, dot_last, ring
from .errors import DomainTooSmallError, InvalidInputError, InvalidParameterError
from .freeboundary import _equilibrium

__all__ = ["barenblatt_density", "bump_density", "equilibrium_offset_density"]


def barenblatt_density(grid: Grid, spec: BarenblattSpec, t: float = 0.0) -> Field:
    """Sample the self-similar profile at time t and convert to density."""
    if spec.d != grid.dim:
        raise InvalidParameterError(f"spec.d = {spec.d} does not match grid.dim = {grid.dim}")
    if spec.support_radius(t) >= grid.extent - 2.0 * grid.h:
        raise DomainTooSmallError(
            f"support radius {spec.support_radius(t):.3g} does not fit in the box"
        )
    u = barenblatt(grid.centers(), t, spec)
    pressure = Field(grid, u, FieldVariable.PRESSURE)
    return density_from_pressure(pressure, spec.m)


def bump_density(grid: Grid, amplitude: float, width: float, center=0.0) -> Field:
    """Smooth compactly supported bump: amplitude * ((1 - |x-c|^2/w^2)_+)^2."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.ndim != 1 or c.size not in (1, grid.dim):
        raise InvalidInputError(
            f"center must have 1 or dim = {grid.dim} entries, got {center!r}"
        )
    pts = grid.centers()
    r2 = dot_last(pts - c, pts - c)
    prof = np.maximum(1.0 - r2 / width**2, 0.0)
    values = amplitude * prof * prof
    if np.any(ring(r2, 2) <= width**2):
        raise DomainTooSmallError("bump support reaches the box edge")
    return Field(grid, values, FieldVariable.DENSITY)


def equilibrium_offset_density(
    grid: Grid, m: float, pot: Potential, mass: float, scale: float = 1.0
) -> Field:
    """Equilibrium density for the given mass, multiplied by ``scale``.

    With scale < 1 this gives data strictly below the stationary profile;
    with scale = 1 it is the (grid-sampled) stationary state itself.
    """
    rho = density_from_pressure(_equilibrium(mass, pot, m, grid)[1], m)
    return rho.with_values(scale * rho.values)
