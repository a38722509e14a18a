"""Batch front end: JSON config in, CSV/NDJSON out.

Usage: ``pmed <command> --config <path> [--out <dir>]`` with commands
simulate, equilibrium, verify-barriers, compare, convergence.  Exit code 0
when every check passes, 1 when a check fails, 2 on configuration or
runtime errors.  Output files are written to a temporary name and renamed
only after the whole run succeeds, so a failing or interrupted run leaves
no partial files, nor an output directory that it created.  Identical
configs produce byte-identical outputs.

The config schema is documented in the repository README.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import barriers as bar
from .core import (
    Field,
    Grid,
    Potential,
    integrate,
    make_polynomial_potential,
    make_quadratic_potential,
    make_zero_potential,
    pressure_from_density,
    support_box,
)
from .errors import BoundaryGapError, ConfigError, InvalidParameterError, PmedError
from .freeboundary import (
    default_support_threshold,
    equilibrium_profile,
    extract_boundary,
    hausdorff,
    sublevel_shell_check,
)
from .initialdata import barenblatt_density, bump_density, equilibrium_offset_density
from .solver import SolverConfig, comparison_harness, simulate

# ---------------------------------------------------------------------------
# config schema as data.  A spec is a field table {key: (default or REQUIRED,
# spec)} for an object, a _Kinds table {kind: field table} for an object
# tagged by "kind", a one-item list [spec] for a nonempty list, or a leaf
# check (see _leaf).  _check walks a config against the schema and records
# every problem; _build then makes library objects from the blocks that passed.

REQUIRED = object()
_BAD = object()  # stands in for a value that failed its check


class _Kinds(dict):
    """Kind name -> field table for the object's other keys."""


def _leaf(accepts, want: str, read=lambda v: v):
    """Leaf check: ``read(v)`` if ``accepts(v)``, else "must be <want>"."""
    def check(v):
        if not accepts(v):
            raise ValueError(f"must be {want}, got {v!r}")
        return read(v)
    return check


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _floats(v):
    return float(v) if _is_number(v) else tuple(map(float, v))


def _number(lo: float | None = None, hi: float | None = None):
    """A finite number in (lo, hi], read as float; a None end is open."""
    want = "a finite number" if lo is None else (
        f"a number > {lo}" if hi is None else f"a number in ({lo}, {hi}]")
    return _leaf(lambda v: _is_number(v) and (lo is None or v > lo)
                 and (hi is None or v <= hi), want, float)


def _one_of(*options):
    """One of the given ints or strings (``true`` is not 1, ``1.0`` is not 1)."""
    return _leaf(lambda v: type(v) in (int, str) and v in options,
                 "one of " + "|".join(map(str, options)))


_REAL = _number()
_POSITIVE = _number(lo=0.0)
_EXPONENT = _number(lo=1.0)
_DIM = _one_of(1, 2)
_STR = _leaf(lambda v: isinstance(v, str), "a string")
_NUMBERS = _leaf(_is_numbers, "a nonempty list of numbers", _floats)
_POINT = _leaf(lambda v: _is_number(v) or _is_numbers(v),
               "a number or a nonempty list of numbers", _floats)

_POTENTIAL = _Kinds({
    "quadratic": {"a": (REQUIRED, _POSITIVE)},
    "zero": {},
    "polynomial": {"coefficients": (REQUIRED, _NUMBERS)},
})
_INITIAL = _Kinds({
    "barenblatt": {"tau": (REQUIRED, _POSITIVE), "C": (REQUIRED, _POSITIVE),
                   "t": (0.0, _REAL)},
    "bump": {"amplitude": (REQUIRED, _POSITIVE), "width": (REQUIRED, _POSITIVE),
             "center": (0.0, _POINT)},
    "equilibrium-offset": {"mass": (REQUIRED, _POSITIVE), "scale": (1.0, _POSITIVE)},
})
_BARENBLATT = {"m": (REQUIRED, _EXPONENT), "d": (REQUIRED, _DIM),
               "tau": (REQUIRED, _POSITIVE), "C": (REQUIRED, _POSITIVE)}
_WAVE = {"A": (REQUIRED, _POSITIVE), "omega": (REQUIRED, _POSITIVE),
         "B": (REQUIRED, _POSITIVE), "R": (REQUIRED, _POSITIVE),
         "m": (REQUIRED, _EXPONENT), "d": (REQUIRED, _DIM)}
_JOB = {
    "label": (None, _STR),
    "check": ("both", _one_of("sub", "super", "both")),
    "box": (REQUIRED, {"lo": (REQUIRED, _NUMBERS), "hi": (REQUIRED, _NUMBERS),
                       "t_lo": (REQUIRED, _REAL), "t_hi": (REQUIRED, _REAL)}),
    "h_s": (REQUIRED, _POSITIVE),
}
_RESCALE = {"alpha": (REQUIRED, _number(0.0, 1.0)), "x0": (REQUIRED, _NUMBERS),
            "t0": (REQUIRED, _REAL), "C_pert": (None, _POSITIVE), "drift": (None, _NUMBERS)}
_BARRIER = _Kinds({
    "barenblatt": _BARENBLATT | _JOB,
    "spherical-wave": _WAVE | _JOB,
    "rescaled-wave": {"base": (REQUIRED, _Kinds({"spherical-wave": _WAVE})),
                      **_RESCALE, **_JOB},
    "rescaled-barenblatt": {"base": (REQUIRED, _Kinds({"barenblatt": _BARENBLATT})),
                            **_RESCALE, **_JOB},
})

# block -> (default when the block is optional, spec)
_BLOCKS = {
    "grid": (None, {"dim": (REQUIRED, _DIM), "L": (REQUIRED, _POSITIVE),
                    "h": (REQUIRED, _POSITIVE)}),
    "physics": (None, {"m": (REQUIRED, _EXPONENT), "potential": (REQUIRED, _POTENTIAL)}),
    "solver": (None, {"t_end": (REQUIRED, _POSITIVE),
                      "snapshot_every": (REQUIRED, _POSITIVE),
                      "cfl_safety": (0.8, _number(0.0, 1.0))}),
    "initial": (None, _INITIAL),
    "initial_lo": (None, _INITIAL),
    "initial_hi": (None, _INITIAL),
    "equilibrium": (None, {"target_mass": (REQUIRED, _POSITIVE),
                           "eps_fb": (None, _POSITIVE)}),
    "barriers": (None, [_BARRIER]),
    "convergence": ({}, {key: (None, _POSITIVE)
                         for key in ("eps_fb", "epsilon_shell", "max_final_hausdorff")}),
    "output": ({}, {"directory": (None, _STR),
                    "formats": (["csv"], [_one_of("csv", "ndjson")])}),
}
# command -> (required blocks, optional blocks)
_COMMANDS = {
    "simulate": ("grid physics solver initial", "output"),
    "equilibrium": ("grid physics equilibrium", "output"),
    "verify-barriers": ("physics barriers", "output"),
    "compare": ("grid physics solver initial_lo initial_hi", "output"),
    "convergence": ("grid physics solver initial", "output convergence"),
}
COMMANDS = tuple(_COMMANDS)


def _check(errors: list[str], value: Any, path: str, spec: Any) -> Any:
    """Append ``"<path>: <message>"`` to ``errors`` for every missing, unknown
    or invalid key in ``value``.  Returns ``value`` as its checks read it, with
    defaults filled in (a default other than None is checked like a given
    value) and every part that failed replaced by ``_BAD``."""
    def fail(where: str, msg: Any):
        errors.append(f"{where}: {msg}")
        return _BAD

    def sub(key: str) -> str:
        return f"{path}.{key}" if path else key

    if callable(spec):
        try:
            return spec(value)
        except (ValueError, OverflowError) as exc:  # overflow: an int beyond float
            return fail(path, exc)
    if isinstance(spec, list):
        if not (isinstance(value, list) and value):
            return fail(path, f"must be a nonempty list, got {value!r}")
        return [_check(errors, v, f"{path}[{i}]", spec[0]) for i, v in enumerate(value)]
    if not isinstance(value, dict):
        return fail(path, f"must be an object, got {value!r}")
    if isinstance(spec, _Kinds):
        kind = _check(errors, value.get("kind"), sub("kind"), _one_of(*spec))
        if kind is _BAD:
            return _BAD
        rest = {k: v for k, v in value.items() if k != "kind"}
        return {"kind": kind, **_check(errors, rest, path, spec[kind])}
    for key in value:
        if key not in spec:
            fail(sub(key), "unknown key")
    out = {}
    for key, (default, item) in spec.items():
        if key in value:
            out[key] = _check(errors, value[key], sub(key), item)
        elif default is REQUIRED:
            out[key] = fail(sub(key), "missing required key")
        else:
            out[key] = None if default is None else _check(errors, default, sub(key), item)
    return out


def _ok(value: Any) -> bool:
    """True when no part of a checked value failed."""
    if isinstance(value, dict):
        return all(map(_ok, value.values()))
    if isinstance(value, list):
        return all(map(_ok, value))
    return value is not _BAD


def _potential(p: dict) -> Potential:
    if p["kind"] == "quadratic":
        return make_quadratic_potential(p["a"])
    if p["kind"] == "zero":
        return make_zero_potential()
    return make_polynomial_potential(p["coefficients"])


def _initial(b: dict, grid: Grid, m: float, pot: Potential) -> Field:
    if b["kind"] == "barenblatt":
        spec = bar.BarenblattSpec(m=m, d=grid.dim, tau=b["tau"], C=b["C"])
        return barenblatt_density(grid, spec, t=b["t"])
    if b["kind"] == "bump":
        return bump_density(grid, amplitude=b["amplitude"], width=b["width"],
                            center=b["center"])
    return equilibrium_offset_density(grid, m, pot, mass=b["mass"], scale=b["scale"])


@dataclass
class _BarrierJob:
    label: str
    spec: Any
    check: str  # sub | super | both
    box: bar.SpaceTimeBox
    h_s: float
    m: float


def _barrier_job(idx: int, b: dict, pot: Potential) -> _BarrierJob:
    p = b.get("base", b)  # the Barenblatt or spherical-wave profile
    if p["kind"] == "barenblatt":
        spec = base = bar.BarenblattSpec(**{k: p[k] for k in _BARENBLATT})
    else:
        spec = base = bar.SphericalWaveSpec(**{k: p[k] for k in _WAVE})
    for key, v in (("box.lo", b["box"]["lo"]), ("x0", b.get("x0")), ("drift", b.get("drift"))):
        if v is not None and len(v) != base.d:
            raise InvalidParameterError(f"{key} has {len(v)} entries, but d = {base.d}")
    if "base" in b:
        # defaults: the drift grad Phi(x0), and C_pert 1 + Phi's curvature on |x - x0| <= a
        x0, a = np.asarray(b["x0"]), b["alpha"]
        drift = b["drift"] if b["drift"] is not None else tuple(pot.grad(x0).tolist())
        c_pert = b["C_pert"] if b["C_pert"] is not None else pot.hessian_bound(x0 - a, x0 + a) + 1.0
        spec = bar.RescaledBarrierSpec(base=base, rescale=bar.RescaleSpec(
            alpha=b["alpha"], x0=b["x0"], t0=b["t0"], drift=drift, C_pert=c_pert))
    label = b["label"] if b["label"] is not None else f"{b['kind']}-{idx}"
    return _BarrierJob(label=label, spec=spec, check=b["check"],
                       box=bar.SpaceTimeBox(**b["box"]), h_s=b["h_s"], m=base.m)


def _build(errors: list[str], blocks: dict, command: str) -> dict:
    """Construct the library objects from the checked blocks that passed; a
    PmedError raised by a constructor becomes one more ``"<path>: <message>"``
    error.  An object whose inputs failed is skipped: their errors are in."""
    def make(path: str, build, *inputs):
        if not all(x is not None and _ok(x) for x in inputs):
            return None
        try:
            return build(*inputs)
        except PmedError as exc:
            errors.append(f"{path}: {exc}")
            return None

    grid = make("grid", lambda g: Grid(dim=g["dim"], h=g["h"], extent=g["L"]),
                blocks.get("grid"))
    physics = blocks["physics"] if _ok(blocks["physics"]) else {}
    m = physics.get("m")
    pot = make("physics.potential", _potential, physics.get("potential"))
    out: dict[str, Any] = {"command": command, "grid": grid, "m": m, "potential": pot}
    if "solver" in blocks:
        out["solver"] = make("solver", lambda s, m, pot: SolverConfig(m=m, potential=pot, **s),
                             blocks["solver"], m, pot)
    for key in ("initial", "initial_lo", "initial_hi"):
        if key in blocks:
            out[key] = make(key, _initial, blocks[key], grid, m, pot)
    if isinstance(blocks.get("barriers"), list):
        out["barriers"] = [make(f"barriers[{i}]", _barrier_job, i, b, pot)
                           for i, b in enumerate(blocks["barriers"])]
    # plain values (if any failed, ``out`` is never returned)
    if isinstance(eq := blocks.get("equilibrium"), dict):
        out.update(target_mass=eq["target_mass"], eps_fb=eq["eps_fb"])
    if isinstance(conv := blocks.get("convergence"), dict):
        out.update(conv_eps_fb=conv["eps_fb"], epsilon_shell=conv["epsilon_shell"],
                   max_final_hausdorff=conv["max_final_hausdorff"])
    if isinstance(output := blocks["output"], dict):
        out.update(out_dir=output["directory"], formats=output["formats"])
    return out


def parse_config(text: str, command: str) -> dict:
    """Validate a JSON experiment config; raises ConfigError listing every
    problem found, not just the first."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    except RecursionError:
        raise ConfigError(["config: JSON nested too deeply to parse"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])
    required, optional = (names.split() for names in _COMMANDS[command])
    schema = {"command": (command, _one_of(command)),
              **{key: (REQUIRED, _BLOCKS[key][1]) for key in required},
              **{key: _BLOCKS[key] for key in optional}}
    errors: list[str] = []
    cfg = _build(errors, _check(errors, raw, "", schema), command)
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# output staging: everything goes to <name>.tmp first, renamed on success


class _Stage:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pending: list[tuple[str, str]] = []
        self.created = []  # the directories makedirs makes, deepest first
        d = os.path.abspath(out_dir)
        while not os.path.lexists(d):
            self.created.append(d)
            d = os.path.dirname(d)
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        tmp = os.path.join(self.out_dir, name + ".tmp")
        self.pending.append((tmp, os.path.join(self.out_dir, name)))
        return tmp

    def commit(self):
        for tmp, final in self.pending:
            os.replace(tmp, final)
        self.pending.clear()

    def abort(self):
        for tmp, _ in self.pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        self.pending.clear()
        for d in self.created:  # only while empty: nothing else is removed
            with contextlib.suppress(OSError):
                os.rmdir(d)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_lines(fh, rows):
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_rows(path: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        _write_lines(fh, [header])
        _write_lines(fh, rows)


# ---------------------------------------------------------------------------
# command runners


class _SnapshotWriter:
    """Writes snapshots to either file handle (None skips it), byte for byte
    as _write_lines would write the rows ``t,x[,y],rho,u`` from the formatted
    axis centers ``ax``, and the ndjson record as ``json.dumps`` would write
    it (a Field's values are finite: no NaN or Infinity spelling).  Only the
    box of cells where rho or u is not +0.0 is formatted, once for both
    files; every other cell's line or row is a per-run all-zero string."""

    def __init__(self, csv, ndjson, ax: list[str], dim: int):
        self.csv, self.ndjson, self.n, self.dim = csv, ndjson, len(ax), dim
        self.heads = [",".join(x) for x in itertools.product(ax, repeat=dim)] if csv else []
        self.zero_lines = [f"{x},0.0,0.0\n" for x in self.heads]
        self.zero_row = "[" + ", ".join(["0.0"] * self.n) + "]"

    def write(self, t: float, rho: np.ndarray, u: np.ndarray):
        t, n = repr(float(t)), self.n
        rho, u = rho.reshape(-1, n), u.reshape(-1, n)
        # +0.0 is the one float whose bits are all zero; -0.0 is in the box
        box = support_box((rho.view(np.int64) | u.view(np.int64)) != 0)
        # an all-zero snapshot gets an empty box: no rows of the full width
        (r0, r1), (c0, c1) = box or ((0, 0), (0, n))
        w = c1 - c0
        rs, us = (list(map(repr, v[r0:r1, c0:c1].ravel().tolist())) for v in (rho, u))
        if self.csv:
            lines = self.zero_lines.copy()
            for k, i in zip(range(0, len(rs), w), range(r0 * n + c0, r1 * n, n)):
                lines[i:i + w] = [f"{x},{r},{p}\n" for x, r, p in
                                  zip(self.heads[i:i + w], rs[k:k + w], us[k:k + w])]
            self.csv.write(t + "," + (t + ",").join(lines))
        if self.ndjson:
            pad0, pad1 = "[" + "0.0, " * c0, ", 0.0" * (n - c1) + "]"
            arrays = []
            for s in (rs, us):
                lists = [self.zero_row] * len(rho)
                lists[r0:r1] = [pad0 + ", ".join(s[k:k + w]) + pad1 for k in range(0, len(s), w)]
                arrays.append(lists[0] if self.dim == 1 else "[" + ", ".join(lists) + "]")
            self.ndjson.write(f'{{"t": {t}, "rho": {arrays[0]}, "u": {arrays[1]}}}\n')


def _run_simulate(cfg: dict, stage: _Stage) -> int:
    traj = simulate(cfg["initial"], cfg["solver"])
    grid = cfg["grid"]
    ax = list(map(repr, grid.axis_centers().tolist()))  # as _fmt writes them, once
    with contextlib.ExitStack() as files:
        csv = ndjson = None
        if "csv" in cfg["formats"]:
            csv = files.enter_context(open(stage.path("snapshots.csv"), "w", newline=""))
            _write_lines(csv, [["t", *("x", "y")[:grid.dim], "rho", "u"]])
        if "ndjson" in cfg["formats"]:
            ndjson = files.enter_context(open(stage.path("snapshots.ndjson"), "w"))
        writer = _SnapshotWriter(csv, ndjson, ax, grid.dim)
        for snap in traj.snapshots:  # both formats share one pressure field
            u = pressure_from_density(snap.field, traj.config.m).values
            writer.write(snap.t, snap.field.values, u)
    _write_rows(
        stage.path("mass.csv"),
        ["t", "mass", "clipped_mass"],
        ((s.t, s.mass, s.clipped_cum) for s in traj.snapshots),
    )
    return 0


def _run_equilibrium(cfg: dict, stage: _Stage) -> int:
    prof = equilibrium_profile(cfg["target_mass"], cfg["potential"], cfg["m"],
                               cfg["grid"], eps_fb=cfg.get("eps_fb"))
    grid = cfg["grid"]
    _write_rows(
        stage.path("equilibrium.csv"),
        ["c_inf", *("x", "y")[:grid.dim]],
        ((prof.c_inf, *pt) for pt in prof.boundary),
    )
    return 0


def _run_verify_barriers(cfg: dict, stage: _Stage) -> int:
    rows = []
    all_pass = True
    for job in cfg["barriers"]:
        cand = bar.build_barrier(job.spec)
        rep = bar.residual_pmed(cand, cfg["potential"], job.box, job.h_s, job.m)
        for kind in ("sub", "super") if job.check == "both" else (job.check,):
            passed = rep.passed(kind)
            all_pass = all_pass and passed
            rows.append((job.label, kind, "pass" if passed else "fail", *rep.worst(kind),
                         rep.tol, rep.interior_count, rep.boundary_count))
    _write_rows(
        stage.path("residuals.csv"),
        ["barrier", "kind", "result", "worst_interior", "worst_boundary",
         "tol", "interior_samples", "boundary_samples"],
        rows,
    )
    return 0 if all_pass else 1


def _run_compare(cfg: dict, stage: _Stage) -> int:
    report = comparison_harness(cfg["initial_lo"], cfg["initial_hi"], cfg["solver"])
    _write_rows(
        stage.path("compare.csv"),
        ["ordered", "max_violation", "first_violation_time", "tol_order"],
        [(
            "true" if report.ordered else "false",
            report.max_violation,
            "" if report.first_violation_time is None else report.first_violation_time,
            report.tol_order,
        )],
    )
    return 0 if report.ordered else 1


def _run_convergence(cfg: dict, stage: _Stage) -> int:
    traj = simulate(cfg["initial"], cfg["solver"])
    grid = cfg["grid"]
    mass = integrate(cfg["initial"])
    eps_fb = cfg["conv_eps_fb"]
    if eps_fb is None:
        eps_fb = default_support_threshold(traj.final.field)
    prof = equilibrium_profile(mass, cfg["potential"], cfg["m"], grid, eps_fb=eps_fb)
    boundaries = [extract_boundary(snap.field, eps_fb) for snap in traj.snapshots]
    gaps = [snap.t for snap, b in zip(traj.snapshots, boundaries) if len(b) == 0]
    if gaps:
        raise BoundaryGapError(gaps)
    rows = [(snap.t, hausdorff(b, prof.boundary))
            for snap, b in zip(traj.snapshots, boundaries)]
    _write_rows(stage.path("hausdorff.csv"), ["t", "hausdorff"], rows)
    final_d = rows[-1][1]
    final_b = boundaries[-1]

    eps_shell = cfg["epsilon_shell"]
    if eps_shell is None:
        phi_min = cfg["potential"].min_value(grid.dim)  # the shell check ignores Phi's offset
        eps_shell = 5.0 * grid.h * (1.0 + 2.0 * np.sqrt(prof.c_inf - phi_min))
    shell_ok = sublevel_shell_check(final_b, cfg["potential"], prof.c_inf, eps_shell)
    ok = shell_ok
    summary = [
        ("c_inf", prof.c_inf),
        ("eps_fb", eps_fb),
        ("epsilon_shell", eps_shell),
        ("shell_ok", "true" if shell_ok else "false"),
        ("final_hausdorff", final_d),
    ]
    if cfg["max_final_hausdorff"] is not None:
        h_ok = final_d <= cfg["max_final_hausdorff"]
        ok = ok and h_ok
        summary.append(("hausdorff_ok", "true" if h_ok else "false"))
    _write_rows(stage.path("summary.csv"), ["key", "value"], summary)
    return 0 if ok else 1


_RUNNERS = {
    "simulate": _run_simulate,
    "equilibrium": _run_equilibrium,
    "verify-barriers": _run_verify_barriers,
    "compare": _run_compare,
    "convergence": _run_convergence,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmed",
        description="Degenerate-diffusion-with-drift experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text, args.command)
        stage = _Stage(args.out or cfg["out_dir"] or "pmed-out")
    except ConfigError as exc:
        print(f"pmed: error: config: {'; '.join(exc.errors)}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"pmed: error: io: {exc}", file=sys.stderr)
        return 2

    try:
        code = _RUNNERS[args.command](cfg, stage)
    except BaseException as exc:  # no partial files on any failure, an interrupt's too
        stage.abort()
        if not isinstance(exc, Exception):
            raise
        kind = "" if isinstance(exc, PmedError) else "runtime: "
        print(f"pmed: error: {kind}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    stage.commit()
    return code


if __name__ == "__main__":
    sys.exit(main())
