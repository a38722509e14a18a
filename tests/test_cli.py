import copy
import io
import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmed.cli
from pmed.cli import main, parse_config
from pmed.errors import ConfigError
from test_golden import CASES

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def simulate_config(**overrides):
    cfg = {
        "grid": {"dim": 1, "L": 4.0, "h": 0.05},
        "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
        "solver": {"t_end": 0.2, "snapshot_every": 0.1},
        "initial": {"kind": "bump", "amplitude": 0.5, "width": 0.6},
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_simulate_accepted(self):
        cfg = parse_config(json.dumps(simulate_config()), "simulate")
        assert cfg["grid"].n_cells == 160
        assert cfg["solver"].t_end == 0.2

    def test_bad_exponent_names_field(self):
        data = simulate_config()
        data["physics"]["m"] = 1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(data), "simulate")
        assert any("physics.m" in e for e in exc.value.errors)

    def test_malformed_json_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("{", "simulate")
        assert "line 1" in exc.value.errors[0]

    def test_unknown_key_rejected(self):
        data = simulate_config()
        data["mystery"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(data), "simulate")
        assert any("mystery" in e for e in exc.value.errors)

    def test_all_errors_reported(self):
        data = simulate_config()
        data["physics"]["m"] = 0.5
        data["grid"]["h"] = -1
        data["solver"]["t_end"] = 0
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(data), "simulate")
        joined = " ".join(exc.value.errors)
        assert "physics.m" in joined and "grid.h" in joined and "solver.t_end" in joined

    def test_deep_nesting_is_config_error(self):
        # json.loads gives up with RecursionError long before this depth
        with pytest.raises(ConfigError) as exc:
            parse_config("[" * 100000, "simulate")
        assert exc.value.errors == ["config: JSON nested too deeply to parse"]

    def test_command_mismatch(self):
        data = simulate_config(command="equilibrium")
        with pytest.raises(ConfigError):
            parse_config(json.dumps(data), "simulate")

    def test_default_c_pert_follows_barrier_dimension(self):
        # a |x|^2 with d = 2 and no grid block: the Hessian diag(2a, 2a) has
        # norm 2a, so C_pert = 2a + 1; the drift 2a x0 has d entries
        data = barenblatt_2d_config({"kind": "quadratic", "a": 1.0}, x0=[0.5, 0.0])
        cfg = parse_config(json.dumps(data), "verify-barriers")
        assert cfg["barriers"][0].spec.rescale.C_pert == 3.0
        assert cfg["barriers"][0].spec.rescale.drift == (1.0, 0.0)

    def test_polynomial_potential_in_2d(self):
        # p = 0.1 x + 0.5 x^2 on both axes: grad Phi(0.5, 0) = (0.6, 0.1), p'' = 1
        data = barenblatt_2d_config({"kind": "polynomial", "coefficients": [0, 0.1, 0.5]},
                                    x0=[0.5, 0.0])
        cfg = parse_config(json.dumps(data), "verify-barriers")
        assert cfg["barriers"][0].spec.rescale.C_pert == 2.0
        assert cfg["barriers"][0].spec.rescale.drift == (0.6, 0.1)

    def test_default_c_pert_on_the_rescale_cylinder(self):
        # |Phi''| = 6 |x| of Phi = x^3 reaches 120.6 on |x - 20| <= 0.1
        data = rescaled_wave_config(x0=[20.0])
        data["physics"]["potential"] = {"kind": "polynomial", "coefficients": [0, 0, 0, 1]}
        cfg = parse_config(json.dumps(data), "verify-barriers")
        assert cfg["barriers"][0].spec.rescale.C_pert == pytest.approx(121.6, rel=1e-12)

    @pytest.mark.parametrize("potential,overrides,message", [
        ({"kind": "zero"}, {"x0": [0.5]}, "x0 has 1 entries, but d = 2"),
        ({"kind": "zero"}, {"x0": [0.5, 0.0], "drift": [0.0]}, "drift has 1 entries, but d = 2"),
    ])
    def test_barrier_dimension_errors(self, potential, overrides, message):
        data = barenblatt_2d_config(potential, **overrides)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(data), "verify-barriers")
        assert exc.value.errors == [f"barriers[0]: {message}"]

    def test_readme_examples_parse(self):
        # the README's example configs, each parsed for the command it runs
        text = README.read_text()
        examples = re.findall(
            r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\npmed (\S+) --config \1", text, re.S)
        assert [name for name, _, _ in examples] == ["eq.json", "barriers.json"]
        for _, config, command in examples:
            parse_config(config, command)


def rescaled_wave_config(**overrides):
    data = copy.deepcopy(CASES["verify-barriers-1d"][1])
    data["barriers"] = [data["barriers"][1]]
    data["barriers"][0].update(overrides)
    return data


def barenblatt_2d_config(potential, **overrides):
    # a d = 2 job on a 2D box; rescaled when overrides name the rescale keys
    base = {"kind": "barenblatt", "m": 2.0, "d": 2, "tau": 1.0, "C": 0.5}
    job = {"h_s": 0.01, "box": {"lo": [0.45, -0.05], "hi": [0.55, 0.05],
                                "t_lo": -0.05, "t_hi": 0.0}}
    if overrides:
        job.update(kind="rescaled-barenblatt", base=base, alpha=0.1, t0=0.0, **overrides)
    else:
        job.update(base)
    return {"physics": {"m": 2.0, "potential": potential}, "barriers": [job]}


def polynomial_config(**overrides):
    data = copy.deepcopy(CASES["simulate-1d"][1])
    data["physics"]["potential"].update(overrides)
    return data


def with_initial(initial, grid=None):
    data = simulate_config(initial=initial)
    if grid is not None:
        data["grid"] = grid
    return data


BUMP = {"kind": "bump", "amplitude": 0.5, "width": 0.6}
WAVE = {"kind": "spherical-wave", "A": 1.0, "omega": 2.5, "B": 0.7, "R": 1.0,
        "m": 0.5, "d": 1, "check": "super", "h_s": 0.05,
        "box": {"lo": [-0.9], "hi": [0.9], "t_lo": -0.1, "t_hi": 0.0}}

# configs with one bad value, each rejected by a check or by a library
# constructor: (command, config, the path the single error must name)
BAD_CONFIGS = {
    "bump-wider-than-box": ("simulate", with_initial(
        {**BUMP, "width": 5.0}, grid={"dim": 1, "L": 2.0, "h": 0.05}), "initial"),
    "bump-center-string": ("simulate", with_initial({**BUMP, "center": "abc"}),
                           "initial.center"),
    "bump-center-3d": ("simulate", with_initial(
        {**BUMP, "center": [0.1, 0.2, 0.3]}, grid={"dim": 2, "L": 2.0, "h": 0.1}),
        "initial"),
    "barenblatt-before-start": ("simulate", with_initial(
        {"kind": "barenblatt", "tau": 1.0, "C": 0.5, "t": -2.0}), "initial"),
    "polynomial-no-coefficients": ("simulate", polynomial_config(coefficients=[]),
                                   "physics.potential.coefficients"),
    "polynomial-declared-minimum": ("simulate", polynomial_config(min_point=[-0.05]),
                                    "physics.potential.min_point"),
    "equilibrium-offset-zero-potential": ("simulate", {
        **with_initial({"kind": "equilibrium-offset", "mass": 0.2}),
        "physics": {"m": 2.0, "potential": {"kind": "zero"}}}, "initial"),
    "rescaled-x0-string": ("verify-barriers", rescaled_wave_config(x0=["a"]),
                           "barriers[0].x0"),
    "rescaled-drift-number": ("verify-barriers", rescaled_wave_config(drift=3),
                              "barriers[0].drift"),
    "rescaled-drift-length": ("verify-barriers", rescaled_wave_config(drift=[1.0, 2.0]),
                              "barriers[0]"),
    "rescaled-x0-length": ("verify-barriers", barenblatt_2d_config(
        {"kind": "zero"}, x0=[0.5]), "barriers[0]"),
    "barrier-ball-step": ("verify-barriers", rescaled_wave_config(ball_step=0.01),
                          "barriers[0].ball_step"),
    "verify-barriers-grid": ("verify-barriers", {
        **rescaled_wave_config(), "grid": {"dim": 1, "L": 2.0, "h": 0.05}}, "grid"),
    "wave-exponent-below-one": ("verify-barriers", {
        "physics": {"m": 2.0, "potential": {"kind": "zero"}}, "barriers": [WAVE]},
        "barriers[0].m"),
    "output-directory-number": ("simulate", simulate_config(output={"directory": 5}),
                                "output.directory"),
    "grid-dim-true": ("simulate", simulate_config(
        grid={"dim": True, "L": 4.0, "h": 0.05}), "grid.dim"),
    "grid-extent-beyond-float": ("simulate", simulate_config(
        grid={"dim": 1, "L": 10**400, "h": 0.05}), "grid.L"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_one_config_error(name, tmp_path, capsys):
    command, data, path = BAD_CONFIGS[name]
    cfgp = write_config(tmp_path, data)
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"pmed: error: config: {path}: ")
    assert "; " not in err[0]  # one error, not several


class TestSimulateCommand:
    def test_outputs(self, tmp_path):
        cfgp = write_config(tmp_path, simulate_config())
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfgp, "--out", out]) == 0
        snaps = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "t,x,rho,u"
        mass = (tmp_path / "out" / "mass.csv").read_text().splitlines()
        assert mass[0] == "t,mass,clipped_mass"
        assert len(mass) == 4  # header + t in {0, 0.1, 0.2}

    def test_ndjson_2d(self, tmp_path):
        data = simulate_config()
        data["grid"] = {"dim": 2, "L": 2.0, "h": 0.1}
        data["solver"]["t_end"] = 0.1
        data["output"] = {"formats": ["ndjson"]}
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "snapshots.ndjson").read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["t"] == 0.0
        assert len(rec["rho"]) == 40
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    def test_one_pressure_conversion_per_snapshot(self, tmp_path, monkeypatch):
        # csv and ndjson share each snapshot's pressure field
        calls = []
        real = pmed.cli.pressure_from_density

        def counting(rho, m):
            calls.append(rho)
            return real(rho, m)

        monkeypatch.setattr(pmed.cli, "pressure_from_density", counting)
        command, data = CASES["simulate-2d"]
        assert data["output"]["formats"] == ["csv", "ndjson"]
        cfgp = write_config(tmp_path, data)
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
        snapshots = (tmp_path / "out" / "mass.csv").read_text().splitlines()[1:]
        assert len(snapshots) == 3
        assert len(calls) == 3

    @staticmethod
    def overflowing_config():
        # support reaches the margin during the run: domain-overflow, exit 2
        data = simulate_config(grid={"dim": 1, "L": 3.0, "h": 0.05},
                               initial={"kind": "barenblatt", "tau": 1.0, "C": 1.0})
        data["physics"]["potential"] = {"kind": "zero"}
        data["solver"]["t_end"] = 2.0
        return data

    def test_runtime_error_leaves_no_files(self, tmp_path):
        cfgp = write_config(tmp_path, self.overflowing_config())
        out = tmp_path / "runs" / "out"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        assert not (tmp_path / "runs").exists()

    def test_interrupted_run_leaves_no_files(self, tmp_path, monkeypatch):
        # an interrupt at the second snapshot, after both snapshot files
        # were opened, is raised again once the stage is cleared
        calls = []
        real = pmed.cli.pressure_from_density

        def interrupted(rho, m):
            calls.append(rho)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(rho, m)

        monkeypatch.setattr(pmed.cli, "pressure_from_density", interrupted)
        command, data = CASES["simulate-2d"]
        out = tmp_path / "runs" / "out"
        with pytest.raises(KeyboardInterrupt):
            main([command, "--config", write_config(tmp_path, data), "--out", str(out)])
        assert len(calls) == 2
        assert not (tmp_path / "runs").exists()

    def test_step_rate_overflow_is_a_typed_error(self, tmp_path, capsys):
        # a bump of 1e160 at m 3: its power m - 1 overflows a float
        data = simulate_config(initial={"kind": "bump", "amplitude": 1e160, "width": 0.6})
        data["physics"]["m"] = 3.0
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "pmed: error: InvalidInputError: step rate is not finite")
        assert not out.exists()

    def test_step_rate_overflow_in_a_product_is_a_typed_error(self, tmp_path, capsys):
        # a bump of 1e306 at m 2: its power is finite, the step rate is not
        data = simulate_config(initial={"kind": "bump", "amplitude": 1e306, "width": 0.6})
        data["physics"]["m"] = 2.0
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "pmed: error: InvalidInputError: step rate is not finite")
        assert not out.exists()

    @pytest.mark.parametrize("command, potential, block, message", [
        # Phi overflows near the box edge: the drift there was NaN or +inf
        ("simulate", {"kind": "polynomial", "coefficients": [1e308, 0.0, 1e308]},
         {"solver": {"t_end": 0.2, "snapshot_every": 0.1},
          "initial": {"kind": "bump", "amplitude": 0.5, "width": 0.5}},
         "the drift of the potential (1e+308, 0.0, 1e+308) is not finite on the grid"),
        ("equilibrium", {"kind": "quadratic", "a": 1e308},
         {"equilibrium": {"target_mass": 0.1}},
         "the potential (0.0, 0.0, 1e+308) is not finite on the grid"),
    ], ids=["simulate", "equilibrium"])
    def test_potential_that_overflows_on_the_grid(self, tmp_path, capsys, command,
                                                  potential, block, message):
        data = {"grid": {"dim": 1, "L": 2.0, "h": 0.1},
                "physics": {"m": 2.0, "potential": potential}, **block}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"pmed: error: InvalidParameterError: {message}")
        assert not out.exists()

    def test_failing_run_keeps_an_earlier_runs_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, simulate_config()),
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfgp = write_config(tmp_path, self.overflowing_config(), "failing.json")
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def reference_rows(t, ax, rho, u):
    """The rows of the earlier snapshot writer, each value formatted by _fmt."""
    for x, r, p in zip(itertools.product(ax, repeat=rho.ndim), rho.ravel(), u.ravel()):
        yield (t, *x, r, p)


def reference_record(t, rho, u):
    """The ndjson line of the earlier snapshot writer."""
    return json.dumps({"t": t, "rho": rho.tolist(), "u": u.tolist()}) + "\n"


# signed zeros, subnormals, and magnitudes 1e-300..1e300
FINITE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0**exp,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-300, 299)),
)


@st.composite
def snapshot_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 7))
    ax = np.array(draw(st.lists(st.floats(-1e3, 1e3, width=64), min_size=n, max_size=n)))
    rho, u = (np.array(draw(st.lists(FINITE_VALUES, min_size=n**dim, max_size=n**dim)))
              .reshape((n,) * dim) for _ in range(2))
    t = draw(st.floats(0.0, 1e6))
    return (np.float64(t) if draw(st.booleans()) else t), ax, rho, u


STRAY_VALUES = st.sampled_from([-0.0, -5e-324, -1e-300, -1.0, 2.5])


@st.composite
def snapshot_sequences(draw):
    """Snapshots of one grid, rho and u each nonzero on a drawn box (empty,
    one cell wide or at the grid edge, drawn anew per snapshot, so the
    union box grows, shrinks and moves) plus a few stray cells, -0.0 or
    negative among them, inside or outside it."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 7))
    ax = np.array(draw(st.lists(st.floats(-1e3, 1e3, width=64), min_size=n, max_size=n)))
    snaps = []
    for _ in range(draw(st.integers(1, 5))):
        fields = []
        for _ in range(2):
            v = np.zeros((n,) * dim)
            box = tuple(slice(*sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2))))
                        for _ in range(dim))
            size = v[box].size
            v[box] = np.reshape(draw(st.lists(FINITE_VALUES, min_size=size, max_size=size)),
                                v[box].shape)
            for _ in range(draw(st.integers(0, 2))):
                v[tuple(draw(st.integers(0, n - 1)) for _ in range(dim))] = draw(STRAY_VALUES)
            fields.append(v)
        snaps.append((draw(st.floats(0.0, 1e6)), *fields))
    return ax, snaps


def boxed_sequence(n, *boxes):
    """A 2D sequence on n x n cells: rho is 1.5 on each box and u is -0.0 on
    its first cell (a box of None leaves both all +0.0)."""
    snaps = []
    for k, box in enumerate(boxes):
        rho, u = np.zeros((n, n)), np.zeros((n, n))
        if box is not None:
            rho[box] = 1.5
            u[tuple(s.start for s in box)] = -0.0
        snaps.append((0.25 * k, rho, u))
    return np.linspace(-1.0, 1.0, n), snaps


def write_both(formats, ax, dim):
    """A writer to a fresh StringIO per format in ``formats``."""
    got = {name: io.StringIO() for name in formats}
    return got, pmed.cli._SnapshotWriter(got.get("csv"), got.get("ndjson"),
                                         list(map(repr, ax.tolist())), dim)


FORMATS = st.sampled_from([("csv", "ndjson"), ("csv",), ("ndjson",)])


class TestSnapshotWriter:
    @settings(max_examples=300, deadline=None)
    @given(snapshot_cases(), FORMATS)
    def test_matches_per_value_rows(self, case, formats):
        t, ax, rho, u = case
        want = io.StringIO()
        pmed.cli._write_lines(want, reference_rows(t, ax, rho, u))
        got, writer = write_both(formats, ax, rho.ndim)
        writer.write(t, rho, u)
        if "csv" in got:
            assert got["csv"].getvalue() == want.getvalue()
        if "ndjson" in got:
            assert got["ndjson"].getvalue() == reference_record(t, rho, u)

    @settings(max_examples=200, deadline=None)
    @given(snapshot_sequences(), FORMATS)
    @example(boxed_sequence(6, (slice(2, 3), slice(3, 4)), (slice(1, 4), slice(2, 5)),
                            (slice(2, 3), slice(2, 5)), (slice(4, 6), slice(0, 2)), None,
                            (slice(0, 6), slice(5, 6)), (slice(0, 6), slice(0, 6)), None),
             ("csv", "ndjson"))  # grows, shrinks, moves to a corner, empties, one wide
    def test_a_sequence_through_one_writer(self, case, formats):
        ax, snaps = case
        got, writer = write_both(formats, ax, snaps[0][1].ndim)
        for t, rho, u in snaps:
            start = {name: len(fh.getvalue()) for name, fh in got.items()}
            writer.write(t, rho, u)
            new = {name: fh.getvalue()[start[name]:] for name, fh in got.items()}
            if "csv" in got:
                want = io.StringIO()
                pmed.cli._write_lines(want, reference_rows(t, ax, rho, u))
                assert new["csv"] == want.getvalue()
            if "ndjson" in got:
                assert new["ndjson"] == reference_record(t, rho, u)


class TestEquilibriumCommand:
    def test_analytic_value(self, tmp_path, capsys):
        data = {
            "grid": {"dim": 1, "L": 2.0, "h": 0.0002},
            "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
            "equilibrium": {"target_mass": 2.0 / 3.0},
        }
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "equilibrium.csv").read_text().splitlines()
        assert lines[0] == "c_inf,x"
        c_inf = float(lines[1].split(",")[0])
        assert abs(c_inf - 1.0) <= 1e-6

    def test_deterministic_bytes(self, tmp_path):
        data = {
            "grid": {"dim": 1, "L": 2.0, "h": 0.001},
            "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
            "equilibrium": {"target_mass": 0.5},
        }
        cfgp = write_config(tmp_path, data)
        for name in ("a", "b"):
            assert main(["equilibrium", "--config", cfgp,
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "equilibrium.csv").read_bytes() == \
               (tmp_path / "b" / "equilibrium.csv").read_bytes()


    @pytest.mark.parametrize("coefficients,code", [([0, 0, 1], 0), ([0, 0, -1, 0, 1], 2)],
                             ids=["convex", "double-well"])
    def test_convexity_is_computed(self, coefficients, code, tmp_path, capsys):
        # x^2 needs no declaration; the double well x^4 - x^2 is refused
        data = copy.deepcopy(CASES["equilibrium-1d"][1])
        data["physics"]["potential"] = {"kind": "polynomial", "coefficients": coefficients}
        out = tmp_path / "out"
        assert main(["equilibrium", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == code
        if code == 0:  # the same potential as the golden case's a |x|^2 with a = 1
            quad = tmp_path / "quad"
            main(["equilibrium", "--config",
                  write_config(tmp_path, CASES["equilibrium-1d"][1], "quad.json"),
                  "--out", str(quad)])
            assert (out / "equilibrium.csv").read_bytes() == \
                   (quad / "equilibrium.csv").read_bytes()
        else:
            assert capsys.readouterr().err.startswith(
                "pmed: error: UnsupportedPotentialError: ")


class TestVerifyBarriersCommand:
    def test_barenblatt_passes(self, tmp_path):
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "barenblatt", "m": 2.0, "d": 1, "tau": 1.0, "C": 1.0,
                "check": "both", "h_s": 0.02,
                "box": {"lo": [-3.0], "hi": [3.0], "t_lo": 0.0, "t_hi": 0.2},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["verify-barriers", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert lines[0].startswith("barrier,kind,result")
        assert all(",pass," in line for line in lines[1:])

    def test_rescaled_wave_under_drift(self, tmp_path):
        h_s = 0.00125
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
            "barriers": [{
                "kind": "rescaled-wave",
                "base": {"kind": "spherical-wave", "A": 1.5, "omega": 1.7,
                         "B": 0.55, "R": 1.0, "m": 2.0, "d": 1},
                "alpha": 0.1, "x0": [1.05], "t0": 0.0,
                "check": "super", "h_s": h_s,
                "box": {"lo": [1.05 - 0.1 + 2 * h_s], "hi": [1.05 + 0.1 - 2 * h_s],
                        "t_lo": -0.1 + 2 * h_s, "t_hi": -2 * h_s * h_s},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["verify-barriers", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert ",super,pass," in lines[1]

    def test_check_without_samples_fails(self, tmp_path):
        # max u = C/tau = 1 is not above the floor 10 h_s = 1: no interior
        # point and no floor crossing, so neither check can pass
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "barenblatt", "m": 2.0, "d": 2, "tau": 1.0, "C": 1.0,
                "check": "both", "h_s": 0.1,
                "box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "t_lo": 0.0, "t_hi": 0.2},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["verify-barriers", "--config", cfgp, "--out", out]) == 1
        lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[1:3] for row in rows] == [["sub", "fail"], ["super", "fail"]]
        assert all(row[6:] == ["0", "0"] for row in rows)

    def test_box_dimension_must_equal_d(self, tmp_path, capsys):
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "barenblatt", "m": 2.0, "d": 1, "tau": 1.0, "C": 1.0,
                "h_s": 0.1,
                "box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "t_lo": 0.0, "t_hi": 0.2},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-barriers", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["pmed: error: config: barriers[0]: box.lo has 2 entries, but d = 1"]
        assert not out.exists()

    def test_box_whose_lattice_overflows_is_a_typed_error(self, tmp_path, capsys):
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "barenblatt", "m": 2.0, "d": 1, "tau": 1.0, "C": 1.0,
                "h_s": 1.0,
                "box": {"lo": [-1e308], "hi": [1e308], "t_lo": 0.0, "t_hi": 0.0},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-barriers", "--config", cfgp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "pmed: error: InvalidParameterError: box extent [-1e+308, 1e+308] at h_s 1.0")
        assert not out.exists()

    def test_box_whose_lattice_numpy_cannot_allocate_is_a_typed_error(self, tmp_path, capsys):
        # 1e15 + 1 points, 7.1 PiB: numpy refuses it before allocating
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "barenblatt", "m": 2.0, "d": 1, "tau": 1.0, "C": 1.0,
                "h_s": 1.0,
                "box": {"lo": [-5e14], "hi": [5e14], "t_lo": 0.0, "t_hi": 0.0},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-barriers", "--config", cfgp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "pmed: error: InvalidParameterError: box extent [-500000000000000.0, "
            "500000000000000.0] at h_s 1.0 gives a lattice of 1000000000000001 points")
        assert not out.exists()

    def test_both_samples_each_job_once(self, tmp_path, monkeypatch):
        # sub and super read the same residuals in opposite directions, so one
        # sampling serves both rows, and each row is that report asked per kind
        import pmed.barriers as bar

        reports = []
        real = bar.residual_pmed

        def spy(*args):
            reports.append(real(*args))
            return reports[-1]

        monkeypatch.setattr(bar, "residual_pmed", spy)
        command, data = CASES["verify-barriers-2d"]
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--config", cfgp, "--out", str(out)]) == 0
        assert len(reports) == len(data["barriers"])
        rows = [line.split(",") for line in (out / "residuals.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["sub", "super", "super"]
        for row, rep in zip(rows, [reports[0], *reports]):
            kind = row[1]
            assert row[2:] == [pmed.cli._fmt(v) for v in (
                "pass" if rep.passed(kind) else "fail", *rep.worst(kind), rep.tol,
                rep.interior_count, rep.boundary_count)]

    def test_box_leaving_the_cylinder_exits_two(self, tmp_path, capsys):
        # the box ends on |x - x0| = alpha, where u = 0; the shift by h_s
        # out of the ball is still an error, though no residual reads it
        data = barenblatt_2d_config({"kind": "zero"}, x0=[0.5, 0.0], C_pert=1.0)
        data["barriers"][0]["box"] = {"lo": [0.4, 0.0], "hi": [0.6, 0.0],
                                      "t_lo": -0.02, "t_hi": -0.01}
        data["barriers"][0]["base"]["C"] = 0.05
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify-barriers", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmed: error: OutOfCylinderError: points outside the ball")
        assert not out.exists()

    def test_failing_barrier_exits_one(self, tmp_path):
        # a wave violating the slope criterion is not a supersolution
        data = {
            "physics": {"m": 2.0, "potential": {"kind": "zero"}},
            "barriers": [{
                "kind": "spherical-wave", "A": 2.0, "omega": 1.0, "B": 0.6,
                "R": 1.0, "m": 2.0, "d": 1, "check": "super", "h_s": 0.005,
                "box": {"lo": [-0.95], "hi": [0.95], "t_lo": -0.2, "t_hi": 0.0},
            }],
        }
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["verify-barriers", "--config", cfgp, "--out", out]) == 1
        lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert any(",fail," in line for line in lines[1:])


class TestCompareCommand:
    def base(self):
        return {
            "grid": {"dim": 1, "L": 2.0, "h": 0.05},
            "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
            "solver": {"t_end": 0.2, "snapshot_every": 0.1},
            "initial_lo": {"kind": "bump", "amplitude": 0.3, "width": 0.6},
            "initial_hi": {"kind": "bump", "amplitude": 0.5, "width": 0.6},
        }

    def test_ordered_pair(self, tmp_path):
        cfgp = write_config(tmp_path, self.base())
        out = str(tmp_path / "out")
        assert main(["compare", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        assert lines[0] == "ordered,max_violation,first_violation_time,tol_order"
        assert lines[1].startswith("true,")

    def test_unordered_input_exits_two(self, tmp_path, capsys):
        data = self.base()
        data["initial_lo"], data["initial_hi"] = data["initial_hi"], data["initial_lo"]
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmed: error:")
        assert "ordered" in err
        assert not (out / "compare.csv").exists()


class TestConvergenceCommand:
    def base(self):
        return {
            "grid": {"dim": 1, "L": 2.5, "h": 0.05},
            "physics": {"m": 2.0, "potential": {"kind": "quadratic", "a": 1.0}},
            "solver": {"t_end": 8.0, "snapshot_every": 1.0},
            "initial": {"kind": "bump", "amplitude": 0.6, "width": 0.8},
            "convergence": {"eps_fb": 0.01, "max_final_hausdorff": 0.15},
        }

    def test_short_run(self, tmp_path):
        data = self.base()
        cfgp = write_config(tmp_path, data)
        out = str(tmp_path / "out")
        assert main(["convergence", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "out" / "hausdorff.csv").read_text().splitlines()
        assert lines[0] == "t,hausdorff"
        assert len(lines) == 10  # header + t in {0..8}
        summary = dict(
            line.split(",", 1)
            for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        )
        assert summary["shell_ok"] == "true"
        assert summary["hausdorff_ok"] == "true"

    def test_threshold_above_data_is_boundary_gap(self, tmp_path, capsys):
        # the density never exceeds 0.6, so no snapshot has an eps_fb crossing
        data = self.base()
        data["solver"] = {"t_end": 0.2, "snapshot_every": 0.1}
        data["convergence"] = {"eps_fb": 10.0}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["pmed: error: BoundaryGapError: "
                       "empty support boundary at t = 0, 0.1, 0.2"]
        assert not out.exists()

    def test_default_threshold_on_a_coarse_grid(self, tmp_path):
        # 20 cells per axis: 10 h max / L is the maximum itself, so only the
        # cap at max / 2 leaves a boundary to measure
        data = self.base()
        data["grid"] = {"dim": 1, "L": 1.0, "h": 0.1}
        data["physics"]["potential"] = {"kind": "quadratic", "a": 4.0}
        data["solver"] = {"t_end": 0.2, "snapshot_every": 0.1}
        data["initial"] = {"kind": "bump", "amplitude": 0.5, "width": 0.5}
        del data["convergence"]
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfgp, "--out", str(out)]) == 0
        assert len((out / "hausdorff.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("grid,coefficients,bump,solver,shell", [
        ({"dim": 1, "L": 2.0, "h": 0.05}, [-1.0, 0.0, 1.0], {"amplitude": 0.3, "width": 0.5},
         {"t_end": 0.5, "snapshot_every": 0.1}, 0.56083),
        ({"dim": 2, "L": 2.0, "h": 0.1}, [-1.0, 0.3, 1.0],
         {"amplitude": 0.6, "width": 0.8, "center": [0.2, 0.0]},
         {"t_end": 1.0, "snapshot_every": 0.5}, 1.34578),
    ])
    def test_default_shell_width_under_a_negative_level(self, tmp_path, grid, coefficients,
                                                        bump, solver, shell):
        # p(0) = -1 puts C_inf below 0; the shell width sees only C_inf - min Phi
        data = self.base()
        data["grid"], data["solver"] = grid, solver
        data["physics"]["potential"] = {"kind": "polynomial", "coefficients": coefficients}
        data["initial"] = {"kind": "bump", **bump}
        del data["convergence"]
        cfgp = write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["convergence", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
        summary = dict(
            line.split(",", 1)
            for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["c_inf"]) < 0.0
        assert summary["shell_ok"] == "true"
        assert float(summary["epsilon_shell"]) == pytest.approx(shell, abs=5e-6)


class TestEnvironment:
    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err.startswith("pmed: error: io:")

    def test_out_names_a_regular_file(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, simulate_config())
        target = tmp_path / "taken"
        target.write_text("not a directory")
        assert main(["simulate", "--config", cfgp, "--out", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pmed: error: io:")
        assert target.read_text() == "not a directory"
