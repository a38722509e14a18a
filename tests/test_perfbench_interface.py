"""The names the traced benchmark run (perfbench/) takes from pmed.

perfbench/tracing.py swaps the functions ``pmed.cli`` imported for traced
wrappers, and perfbench/run.py replays the solver's dt schedule through
``pmed.solver``.  A refactor that renames or drops one of these names breaks
the benchmark, so this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import pmed.cli
import pmed.solver
from pmed.core import Field, FieldVariable, Grid, make_zero_potential

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_cli_exposes_every_traced_name():
    names = [*load_tracing().CLI_CALLS, "bar", "main"]
    assert [n for n in names if not hasattr(pmed.cli, n)] == []


def test_solver_replay_names():
    for name in ("cfl_dt", "simulate", "step_density_report"):
        assert callable(getattr(pmed.solver, name))
    grid = Grid(dim=1, h=0.1, extent=1.0)
    values = np.zeros(grid.shape)
    values[8:12] = 0.5
    rho = Field(grid, values, FieldVariable.DENSITY, 2.0)
    cfg = pmed.solver.SolverConfig(m=2.0, potential=make_zero_potential(1),
                                   t_end=1.0, snapshot_every=1.0)
    rep = pmed.solver.step_density_report(rho, cfg, pmed.solver.cfl_dt(rho, cfg))
    assert isinstance(rep.field, Field)
