"""Golden-bytes pins for every CLI command on small 1D and 2D configs.

Each case runs ``pmed <command>`` in-process and compares the SHA-256 of
every output file, and the exit code, against values recorded from an
earlier revision.  A refactor that keeps the numerics must keep these
digests; a change that alters outputs on purpose records new ones and says
why.  The digests depend on IEEE-754 double arithmetic as numpy performs
it, so a different numpy build may legitimately disagree.

To print fresh digests: ``python tests/test_golden.py``.
"""

import hashlib
import json
import os

import pytest

from pmed.cli import main

QUAD_1D = {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}}
BOTH = {"formats": ["csv", "ndjson"]}

CASES = {
    "simulate-1d": ("simulate", {
        "grid": {"dim": 1, "L": 2.0, "h": 0.05},
        "physics": {"m": 2.0, "potential": {
            "kind": "polynomial", "coefficients": [0.0, 0.1, 1.0]}},
        "solver": {"t_end": 0.2, "snapshot_every": 0.1},
        "initial": {"kind": "barenblatt", "tau": 1.0, "C": 0.5},
        "output": BOTH,
    }),
    "simulate-2d": ("simulate", {
        "grid": {"dim": 2, "L": 1.5, "h": 0.1},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 0.5}},
        "solver": {"t_end": 0.1, "snapshot_every": 0.05, "cfl_safety": 0.3},
        "initial": {"kind": "bump", "amplitude": 0.4, "width": 0.5,
                    "center": [0.1, -0.2]},
        "output": BOTH,
    }),
    "equilibrium-1d": ("equilibrium", {
        "grid": {"dim": 1, "L": 2.0, "h": 0.01},
        "physics": QUAD_1D,
        "equilibrium": {"target_mass": 0.5},
    }),
    "equilibrium-2d": ("equilibrium", {
        "grid": {"dim": 2, "L": 2.0, "h": 0.05},
        "physics": {"m": 1.5, "potential": {"kind": "quadratic", "a": 1.0}},
        "equilibrium": {"target_mass": 0.3, "eps_fb": 0.02},
    }),
    "verify-barriers-1d": ("verify-barriers", {
        "physics": QUAD_1D,
        "barriers": [
            {"kind": "barenblatt", "m": 2.0, "d": 1, "tau": 1.0, "C": 1.0,
             "check": "both", "h_s": 0.02,
             "box": {"lo": [-3.0], "hi": [3.0], "t_lo": 0.0, "t_hi": 0.1}},
            {"kind": "rescaled-wave",
             "base": {"kind": "spherical-wave", "A": 1.5, "omega": 1.7,
                      "B": 0.55, "R": 1.0, "m": 2.0, "d": 1},
             "alpha": 0.1, "x0": [1.05], "t0": 0.0, "check": "super",
             "h_s": 0.00125,
             "box": {"lo": [0.9525], "hi": [1.1475], "t_lo": -0.0975,
                     "t_hi": -3.125e-06}},
        ],
    }),
    "verify-barriers-2d": ("verify-barriers", {
        "physics": {"m": 2.0, "potential": {"kind": "zero"}},
        "barriers": [
            {"kind": "barenblatt", "m": 2.0, "d": 2, "tau": 1.0, "C": 0.5,
             "check": "both", "h_s": 0.025,
             "box": {"lo": [-2.5, -2.5], "hi": [2.5, 2.5],
                     "t_lo": 0.0, "t_hi": 0.1}},
            {"kind": "spherical-wave", "A": 1.0, "omega": 2.5, "B": 0.7,
             "R": 1.0, "m": 2.0, "d": 2, "check": "super", "h_s": 0.05,
             "box": {"lo": [-0.9, -0.9], "hi": [0.9, 0.9],
                     "t_lo": -0.1, "t_hi": 0.0}},
        ],
    }),
    "compare-1d": ("compare", {
        "grid": {"dim": 1, "L": 2.0, "h": 0.05},
        "physics": QUAD_1D,
        "solver": {"t_end": 0.2, "snapshot_every": 0.1},
        "initial_lo": {"kind": "bump", "amplitude": 0.3, "width": 0.6},
        "initial_hi": {"kind": "bump", "amplitude": 0.5, "width": 0.6},
    }),
    "compare-2d": ("compare", {
        "grid": {"dim": 2, "L": 1.5, "h": 0.1},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
        "solver": {"t_end": 0.1, "snapshot_every": 0.05},
        "initial_lo": {"kind": "equilibrium-offset", "mass": 0.2, "scale": 0.5},
        "initial_hi": {"kind": "equilibrium-offset", "mass": 0.2},
    }),
    "convergence-1d": ("convergence", {
        "grid": {"dim": 1, "L": 2.5, "h": 0.05},
        "physics": QUAD_1D,
        "solver": {"t_end": 2.0, "snapshot_every": 0.5},
        "initial": {"kind": "bump", "amplitude": 0.6, "width": 0.8, "center": -0.3},
        "convergence": {"eps_fb": 0.01, "max_final_hausdorff": 0.5},
    }),
    "convergence-2d": ("convergence", {
        "grid": {"dim": 2, "L": 2.0, "h": 0.1},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
        "solver": {"t_end": 1.0, "snapshot_every": 0.5},
        "initial": {"kind": "bump", "amplitude": 0.6, "width": 0.8,
                    "center": [0.2, 0.0]},
    }),
}

# case -> (exit code, {output file: sha256 hex digest})
DIGESTS = {
    'compare-1d': (0, {'compare.csv': 'f8d00ba4f85bc296b2b909c032611cdce6d1cacc3d090ef8e020882f5a632d6f'}),
    'compare-2d': (0, {'compare.csv': '50fee4fefaac807bda9e3bdf85b996183639740905b0981b33eec5cb03ebe783'}),
    'convergence-1d': (0, {'hausdorff.csv': 'fd00704f6fc736140ad55ff9dbec4856af55069ff3794161924d39b8d9e6dcc0', 'summary.csv': 'b4b4e1939dca63de4edde078f5311417d035ff9876d22ef8f1eb76d76c7c711d'}),
    'convergence-2d': (0, {'hausdorff.csv': 'cd59e4c30c9129a11f935ea154342f3c1f2cb19bfca3ec5b20fbdb22d615f419', 'summary.csv': 'b58685194efc78fc0b786d1acc6966415c0a75cc721fe3b33d7f295030d7447b'}),
    'equilibrium-1d': (0, {'equilibrium.csv': 'a8ef620f4ece694a5a1c1e3e786bf158c2cbb9c7d43dd8c24d0d25322d291558'}),
    'equilibrium-2d': (0, {'equilibrium.csv': 'efcafed2cffcb97bb5165fd98066f6ec5e9eb72d42e55829074c337ccce924b2'}),
    'simulate-1d': (0, {'mass.csv': '1d72fdd7b88d78ec7d584aaaaa9bc20bb8453d0f9fe1007515912c532c9eaee6', 'snapshots.csv': 'baca2e133ac15627fbaf1c5e749c4d65eb840e92996628d0329b75b0d20bd996', 'snapshots.ndjson': 'a75a60cdf350cacf4a719b2a9dfd10ee011d6fa2922756a0a96157f451b368d1'}),
    'simulate-2d': (0, {'mass.csv': 'f710ff9a46ddcdbdd7bd780e2444ae0d1a6cdbbd7d4554278479191eaaeecb36', 'snapshots.csv': '5820dc87f5abe4b1c552764c466dc003a1ff121682b11962bad211c523c944f4', 'snapshots.ndjson': '7d690ccff4ffcfcd5d65f473d67ec75b53a2c1031f9e7e192cb5423ad82cfefe'}),
    'verify-barriers-1d': (1, {'residuals.csv': '8ac64d90d73388425763dd73b038aad703845907bac31da93501ce173f5ded31'}),
    'verify-barriers-2d': (0, {'residuals.csv': '96d114fa278e3238f78359f85e81acf9d4c6602a26c0b20a14169e723a7f4ec6'}),
}


def run_case(name, tmp_dir):
    command, config = CASES[name]
    cfg_path = os.path.join(tmp_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(tmp_dir, "out")
    code = main([command, "--config", cfg_path, "--out", out])
    digests = {}
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return code, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    assert run_case(name, str(tmp_path)) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, tmp)!r},")
