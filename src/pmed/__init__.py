"""Finite-volume laboratory for degenerate diffusion with a drift potential.

Simulates rho_t = div(grad(rho^m) + rho grad Phi) on a fixed box, evaluates
the closed-form barrier families of the pressure formulation, and turns the
qualitative theory (comparison, finite propagation, free-boundary
convergence to the equilibrium support) into quantitative desk-scale checks.
"""

from .barriers import (
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
from .core import (
    Field,
    FieldVariable,
    Grid,
    Potential,
    density_from_pressure,
    integrate,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
    pressure_from_density,
)
from .freeboundary import (
    EquilibriumProfile,
    boundary_velocity,
    equilibrium_constant,
    equilibrium_profile,
    extract_boundary,
    hausdorff,
    sublevel_shell_check,
)
from .initialdata import barenblatt_density, bump_density, equilibrium_offset_density
from .solver import (
    ComparisonReport,
    SolverConfig,
    SpaceTimeTestFunction,
    Trajectory,
    cfl_dt,
    comparison_harness,
    simulate,
    step_density_report,
    weak_residual,
)

__version__ = "0.1.0"
