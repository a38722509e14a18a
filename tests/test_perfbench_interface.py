"""The names and configs the benchmark (perfbench/) takes from pmed.

perfbench/tracing.py swaps the functions ``pmed.cli`` imported for traced
wrappers, perfbench/run.py replays the solver's dt schedule through
``pmed.solver``, and perfbench/workloads.py generates the configs the CLI
must accept.  A refactor that renames or drops one of these names, or a
config key the workloads use, breaks the benchmark, so this test fails first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import pmed.barriers
import pmed.cli
import pmed.solver
from pmed.core import (Field, FieldVariable, Grid, make_quadratic_potential,
                       make_zero_potential)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_cli_exposes_every_traced_name():
    names = [*load_perfbench("tracing").CLI_CALLS, "bar", "main"]
    assert [n for n in names if not hasattr(pmed.cli, n)] == []


def test_solver_replay_names():
    for name in ("cfl_dt", "simulate", "step_density_report"):
        assert callable(getattr(pmed.solver, name))
    grid = Grid(dim=1, h=0.1, extent=1.0)
    values = np.zeros(grid.shape)
    values[8:12] = 0.5
    rho = Field(grid, values, FieldVariable.DENSITY)
    cfg = pmed.solver.SolverConfig(m=2.0, potential=make_zero_potential(),
                                   t_end=1.0, snapshot_every=1.0)
    rep = pmed.solver.step_density_report(rho, cfg, pmed.solver.cfl_dt(rho, cfg))
    assert isinstance(rep.field, Field)


def test_trace_counts_read_real_results():
    # freeboundary.boundary_points and hausdorff_pairs are read off these
    counts = load_perfbench("tracing")._call_counts
    grid = Grid(dim=2, h=0.05, extent=1.0)
    pot = make_quadratic_potential(1.0)
    prof = pmed.cli.equilibrium_profile(0.05, pot, 2.0, grid)
    b = pmed.cli.extract_boundary(prof.pressure)
    d = pmed.cli.hausdorff(b, prof.boundary)
    k, l = b.shape[0], prof.boundary.shape[0]
    assert k > 0 and l > 0
    assert counts("equilibrium_profile")((0.05, pot, 2.0, grid), prof) == {"points": l}
    assert counts("extract_boundary")((prof.pressure,), b) == {"points": k}
    assert counts("hausdorff")((b, prof.boundary), d) == {"pairs": k * l}


def test_barrier_proxy_counts_samples():
    # barriers.samples is read off the residual_pmed span
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    proxy = tracing._barrier_proxy(tracer, pmed.barriers)
    spec = pmed.barriers.BarenblattSpec(m=2.0, d=1, tau=1.0, C=1.0)
    box = pmed.barriers.SpaceTimeBox(lo=(-3.0,), hi=(3.0,), t_lo=0.0, t_hi=0.04)
    rep = proxy.residual_pmed(proxy.build_barrier(spec), make_zero_potential(), box, 0.02, 2.0)
    span = next(s for s in tracer.take() if s.name == "barriers.residual_pmed")
    assert rep.interior_count > 0 and rep.boundary_count > 0
    assert span.counts == {"samples": rep.interior_count + rep.boundary_count}


WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_parse(name, tiny):
    config = WORKLOADS.generate(name, 0, tiny=tiny)
    pmed.cli.parse_config(json.dumps(config), WORKLOADS.WORKLOADS[name].command)


@pytest.mark.parametrize("seed", [18, 31, 36, 38])
def test_barrier_workload_seeds_pass(seed, tmp_path):
    # the m = 3 Barenblatt's front gradient at the floor sits near 10 h_s at
    # these seeds; every crossing is a boundary sample, so both checks pass
    config = WORKLOADS.generate("verify-barriers-2d", seed)
    path, out = tmp_path / "config.json", str(tmp_path / "out")
    path.write_text(json.dumps(config))
    assert pmed.cli.main([config["command"], "--config", str(path), "--out", out]) == 0
    assert load_perfbench("checks").invariants(out, config) == []
