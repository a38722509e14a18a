"""Seeded workload generators for the pmed benchmark.

Each workload turns a seed into one pmed CLI config.  pmed sees only the
generated JSON.  Parameters that set the amount of work (grid, time span,
sampling step, boxes) are fixed; parameters drawn from the seed vary the
data inside narrow stated ranges, so that ten seeds give ten different
inputs whose cost differs by a few percent at most, well inside the
metric bounds of BENCHMARK.json.

``tiny=True`` shrinks every workload to a size that runs in well under a
second; only the smoke test uses it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

FLOAT = 8  # bytes per float64 value


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    ranges: dict  # parameter -> [lo, hi] drawn uniformly from the seed
    make: Callable[[random.Random, bool], dict]
    # (config) -> computed sizes: grid cells and working-set bytes
    sizes: Callable[[dict], dict]


def _draw(rng: random.Random, ranges: dict) -> dict:
    """One uniform draw per range, in sorted key order so a seed always maps
    to the same values."""
    return {k: rng.uniform(*ranges[k]) for k in sorted(ranges)}


def _grid_sizes(cfg: dict, trajectories: int) -> dict:
    g, s = cfg["grid"], cfg["solver"]
    cells = round(2.0 * g["L"] / g["h"]) ** g["dim"]
    snaps = math.floor(s["t_end"] / s["snapshot_every"] + 1e-9) + 1
    return {
        "grid_cells": cells,
        "field_bytes": cells * FLOAT,
        "trajectory_bytes": trajectories * snaps * cells * FLOAT,
    }


# --- simulate-2d-output -----------------------------------------------------

SIM_RANGES = {
    "amplitude": [0.20, 0.21],
    "width": [1.40, 1.60],
    "center_x": [-0.25, 0.25],
    "center_y": [-0.25, 0.25],
}


def _make_simulate(rng, tiny):
    p = _draw(rng, SIM_RANGES)
    return {
        "command": "simulate",
        "grid": {"dim": 2, "L": 4.0, "h": 0.25 if tiny else 0.0625},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 0.5}},
        "solver": {"t_end": 0.2 if tiny else 0.5, "snapshot_every": 0.1},
        "initial": {"kind": "bump", "amplitude": p["amplitude"],
                    "width": p["width"],
                    "center": [p["center_x"], p["center_y"]]},
        "output": {"formats": ["csv", "ndjson"]},
    }


# --- converge-2d-fine -------------------------------------------------------

CONV_RANGES = {
    "mass": [0.95, 1.05],
    "scale": [0.88, 0.92],
}


def _make_convergence(rng, tiny):
    p = _draw(rng, CONV_RANGES)
    return {
        "command": "convergence",
        "grid": {"dim": 2, "L": 2.0, "h": 0.1 if tiny else 0.01},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
        "solver": {"t_end": 1e-3, "snapshot_every": 1e-4},
        "initial": {"kind": "equilibrium-offset", "mass": p["mass"],
                    "scale": p["scale"]},
    }


def _convergence_sizes(cfg):
    out = _grid_sizes(cfg, 1)
    # crossing points of a level circle of radius r on a grid of step h:
    # about 8 r / h; the equilibrium pressure (C - |x|^2)_+ of mass M has
    # C = sqrt(4 M / pi) (m = 2, a = 1) and radius sqrt(C)
    g = cfg["grid"]
    radius = (4.0 * cfg["initial"]["mass"] / math.pi) ** 0.25
    k = 8.0 * radius / g["h"]
    out["hausdorff_matrix_bytes_estimate"] = int(k * k * (g["dim"] + 1) * FLOAT)
    return out


# --- compare-1d-long --------------------------------------------------------

# The step count grows with the equilibrium density each run relaxes to,
# which is fixed by the mass, so masses vary in a 2% band while widths and
# the center vary freely.  hi >= lo holds cellwise because both bumps share
# the center, w_hi >= w_lo and A_hi >= A_lo (mass_hi / mass_lo >= w_hi / w_lo).
CMP_RANGES = {
    "mass_lo": [0.196, 0.200],
    "mass_hi": [0.343, 0.350],
    "width_lo": [0.50, 0.60],
    "width_ratio": [1.00, 1.30],
    "center": [-0.20, 0.20],
}

_BUMP_1D_MASS = 16.0 / 15.0  # integral of (1 - x^2)^2 over [-1, 1]


def _make_compare(rng, tiny):
    p = _draw(rng, CMP_RANGES)
    w_lo = p["width_lo"]
    w_hi = w_lo * p["width_ratio"]

    def bump(mass, width):
        return {"kind": "bump", "amplitude": mass / (_BUMP_1D_MASS * width),
                "width": width, "center": p["center"]}

    return {
        "command": "compare",
        "grid": {"dim": 1, "L": 2.0, "h": 0.05},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
        "solver": {"t_end": 0.3 if tiny else 6.0, "snapshot_every": 0.1},
        "initial_lo": bump(p["mass_lo"], w_lo),
        "initial_hi": bump(p["mass_hi"], w_hi),
    }


# --- verify-barriers-2d -----------------------------------------------------

BAR_RANGES = {
    "bb_C": [0.45, 0.50],
    "bb_tau": [0.95, 1.05],
    "wave_A": [0.95, 1.05],
    "wave_B": [0.58, 0.62],
    "wave_slope_margin": [1.08, 1.15],
    "rescaled_x0": [0.90, 1.20],
}


def _barenblatt_radius(m, d, tau, C, t):
    # support radius sqrt(C (t + tau)^(2 lam) / K) of the Barenblatt profile
    lam = 1.0 / (d * (m - 1.0) + 2.0)
    K = lam / 2.0
    return math.sqrt(C * (t + tau) ** (2.0 * lam) / K)


def _make_barriers(rng, tiny):
    p = _draw(rng, BAR_RANGES)
    short = 0.1 if tiny else 1.0  # tiny: a tenth of each time window
    jobs = []
    for m in (2.0, 3.0):
        # the box is sized for the largest support the ranges allow, so its
        # lattice (and the work) does not depend on the seed
        ext = _barenblatt_radius(m, 2, BAR_RANGES["bb_tau"][1],
                                 BAR_RANGES["bb_C"][1], 0.2) + 0.3
        jobs.append({
            "kind": "barenblatt", "m": m, "d": 2,
            "tau": p["bb_tau"], "C": p["bb_C"],
            "label": f"barenblatt-m{m:g}", "check": "both",
            "h_s": 0.025,
            "box": {"lo": [-ext, -ext], "hi": [ext, ext],
                    "t_lo": 0.0, "t_hi": 0.2 * short},
        })
    # validated wave: R/2 < B < R and omega / A > 1 + 2 (m-1)(d-1)(R-B)/R;
    # the time window stays inside [(B - R) / omega, 0] for every draw
    a, b = p["wave_A"], p["wave_B"]
    omega = a * (1.0 + 2.0 * (1.0 - b)) * p["wave_slope_margin"]
    jobs.append({
        "kind": "spherical-wave", "A": a, "omega": omega, "B": b, "R": 1.0,
        "m": 2.0, "d": 2, "label": "spherical-wave-2d", "check": "super",
        "h_s": 0.01,
        "box": {"lo": [-0.7, -0.7], "hi": [0.7, 0.7],
                "t_lo": -0.15 * short, "t_hi": 0.0},
    })
    # criterion 7c's box around x0, with alpha = 0.1
    x0, alpha, h_s = p["rescaled_x0"], 0.1, 0.00125
    jobs.append({
        "kind": "rescaled-wave",
        "base": {"kind": "spherical-wave", "A": 1.5, "omega": 1.7, "B": 0.55,
                 "R": 1.0, "m": 2.0, "d": 1},
        "alpha": alpha, "x0": [x0], "t0": 0.0,
        "label": "rescaled-wave-1d", "check": "super", "h_s": h_s,
        "box": {"lo": [x0 - alpha + 2 * h_s], "hi": [x0 + alpha - 2 * h_s],
                "t_lo": (-alpha + 2 * h_s) * short, "t_hi": -2 * h_s * h_s},
    })
    return {
        "command": "verify-barriers",
        "physics": {"m": 2.0, "potential": {"kind": "zero"}},
        "barriers": jobs,
    }


def _barrier_sizes(cfg):
    points = 0
    lattice_bytes = 0
    for job in cfg["barriers"]:
        box, h_s = job["box"], job["h_s"]
        n = 1
        for lo, hi in zip(box["lo"], box["hi"]):
            n *= math.floor((hi - lo) / h_s + 1e-9) + 1
        times = math.floor((box["t_hi"] - box["t_lo"]) / h_s + 1e-9) + 1
        checks = 2 if job["check"] == "both" else 1
        points += checks * times * n
        lattice_bytes = max(lattice_bytes, n * len(box["lo"]) * FLOAT)
    return {"lattice_samples": points, "lattice_bytes_max": lattice_bytes}


WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate-2d-output", "simulate",
        "cli output formatting (csv + ndjson, one _fmt call per value) "
        "outweighs the solver on a 128^2 grid",
        SIM_RANGES, _make_simulate, lambda c: _grid_sizes(c, 1)),
    Workload(
        "converge-2d-fine", "convergence",
        "freeboundary: dense Hausdorff matrices of ~830 boundary points per "
        "snapshot, beside a per-cell-bound solver on 400^2",
        CONV_RANGES, _make_convergence, _convergence_sizes),
    Workload(
        "compare-1d-long", "compare",
        "~13k tiny 1D steps over two trajectories: fixed per-step numpy "
        "overhead dominates; no output, no freeboundary",
        CMP_RANGES, _make_compare, lambda c: _grid_sizes(c, 2)),
    Workload(
        "verify-barriers-2d", "verify-barriers",
        "almost only barriers residual sampling (finite differences over "
        "size-2 last axes); no solver",
        BAR_RANGES, _make_barriers, _barrier_sizes),
)}

def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """The config of workload ``name`` for ``seed``."""
    return WORKLOADS[name].make(random.Random(f"{name}:{seed}"), tiny)
