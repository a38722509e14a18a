"""Batch front end: JSON config in, CSV/NDJSON out.

Usage: ``pmed <command> --config <path> [--out <dir>]`` with commands
simulate, equilibrium, verify-barriers, compare, convergence.  Exit code 0
when every check passes, 1 when a check fails, 2 on configuration or
runtime errors.  Output files are written to a temporary name and renamed
only after the whole run succeeds, so a failing run leaves no partial
files.  Identical configs produce byte-identical outputs.

The config schema is documented in the repository README.
"""

from __future__ import annotations

import argparse
import json
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
)
from .errors import BoundaryGapError, ConfigError, PmedError
from .freeboundary import (
    default_support_threshold,
    equilibrium_profile,
    extract_boundary,
    hausdorff,
    sublevel_shell_check,
)
from .initialdata import barenblatt_density, bump_density, equilibrium_offset_density
from .solver import SolverConfig, comparison_harness, simulate

COMMANDS = ("simulate", "equilibrium", "verify-barriers", "compare", "convergence")


# ---------------------------------------------------------------------------
# config validation: every checker appends into ``errors`` and returns what it
# could parse, so one pass reports all problems instead of the first


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def require_keys(self, obj: dict, path: str, required: tuple, optional: tuple = ()):
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}" if path else key, "missing required key")
        allowed = set(required) | set(optional)
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def number(self, obj: dict, path: str, key: str, lo=None, hi=None,
               lo_strict=True, default=None):
        if key not in obj:
            return default
        v = obj[key]
        where = f"{path}.{key}" if path else key
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            self.fail(where, f"must be a number, got {v!r}")
            return default
        v = float(v)
        if lo is not None and (v <= lo if lo_strict else v < lo):
            self.fail(where, f"must be {'>' if lo_strict else '>='} {lo}, got {v}")
            return default
        if hi is not None and v > hi:
            self.fail(where, f"must be <= {hi}, got {v}")
            return default
        return v


def _parse_potential(ck: _Checker, obj: Any, path: str, dim: int) -> Potential | None:
    if not isinstance(obj, dict):
        ck.fail(path, "must be an object")
        return None
    kind = obj.get("kind")
    if kind == "quadratic":
        ck.require_keys(obj, path, ("kind", "a"))
        a = ck.number(obj, path, "a", lo=0.0)
        return make_quadratic_potential(a, dim) if a is not None else None
    if kind == "zero":
        ck.require_keys(obj, path, ("kind",))
        return make_zero_potential(dim)
    if kind == "polynomial":
        ck.require_keys(obj, path, ("kind", "coefficients"), ("strictly_convex", "min_point"))
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs
        ):
            ck.fail(f"{path}.coefficients", "must be a list of numbers")
            return None
        if dim != 1:
            ck.fail(path, "polynomial potentials are 1D only")
            return None
        mp = obj.get("min_point")
        return make_polynomial_potential(
            coeffs,
            strictly_convex=bool(obj.get("strictly_convex", False)),
            min_point=tuple(mp) if mp is not None else None,
        )
    ck.fail(f"{path}.kind", f"must be one of quadratic|zero|polynomial, got {kind!r}")
    return None


def _parse_grid(ck: _Checker, obj: Any) -> Grid | None:
    if not isinstance(obj, dict):
        ck.fail("grid", "must be an object")
        return None
    ck.require_keys(obj, "grid", ("dim", "L", "h"))
    dim = obj.get("dim")
    if dim not in (1, 2):
        ck.fail("grid.dim", f"must be 1 or 2, got {dim!r}")
        dim = None
    L = ck.number(obj, "grid", "L", lo=0.0)
    h = ck.number(obj, "grid", "h", lo=0.0)
    if None in (dim, L, h):
        return None
    try:
        return Grid(dim=dim, h=h, extent=L)
    except PmedError as exc:
        ck.fail("grid", str(exc))
        return None


def _parse_initial(ck: _Checker, obj: Any, path: str, grid: Grid | None,
                   m: float | None, pot: Potential | None) -> Field | None:
    if not isinstance(obj, dict):
        ck.fail(path, "must be an object")
        return None
    kind = obj.get("kind")
    if kind == "barenblatt":
        ck.require_keys(obj, path, ("kind", "tau", "C"), ("t",))
        tau = ck.number(obj, path, "tau", lo=0.0)
        c = ck.number(obj, path, "C", lo=0.0)
        t = ck.number(obj, path, "t", default=0.0)
        if None in (tau, c) or grid is None or m is None:
            return None
        spec = bar.BarenblattSpec(m=m, d=grid.dim, tau=tau, C=c)
        return barenblatt_density(grid, spec, t=t)
    if kind == "bump":
        ck.require_keys(obj, path, ("kind", "amplitude", "width"), ("center",))
        amp = ck.number(obj, path, "amplitude", lo=0.0)
        width = ck.number(obj, path, "width", lo=0.0)
        center = obj.get("center", 0.0)
        if None in (amp, width) or grid is None or m is None:
            return None
        return bump_density(grid, m, amplitude=amp, width=width, center=center)
    if kind == "equilibrium-offset":
        ck.require_keys(obj, path, ("kind", "mass"), ("scale",))
        mass = ck.number(obj, path, "mass", lo=0.0)
        scale = ck.number(obj, path, "scale", lo=0.0, default=1.0)
        if mass is None or grid is None or m is None or pot is None:
            return None
        return equilibrium_offset_density(grid, m, pot, mass=mass, scale=scale)
    ck.fail(f"{path}.kind",
            f"must be one of barenblatt|bump|equilibrium-offset, got {kind!r}")
    return None


def _parse_solver(ck: _Checker, obj: Any, m: float | None,
                  pot: Potential | None) -> SolverConfig | None:
    if not isinstance(obj, dict):
        ck.fail("solver", "must be an object")
        return None
    ck.require_keys(obj, "solver", ("t_end", "snapshot_every"), ("cfl_safety",))
    t_end = ck.number(obj, "solver", "t_end", lo=0.0)
    snap = ck.number(obj, "solver", "snapshot_every", lo=0.0)
    cfl = ck.number(obj, "solver", "cfl_safety", lo=0.0, hi=1.0, default=0.4)
    if None in (t_end, snap, cfl) or m is None or pot is None:
        return None
    return SolverConfig(m=m, potential=pot, t_end=t_end, snapshot_every=snap,
                        cfl_safety=cfl)


def _parse_barrier_base(ck: _Checker, obj: dict, path: str):
    kind = obj.get("kind")
    if kind == "barenblatt":
        ck.require_keys(obj, path, ("kind", "m", "d", "tau", "C"))
        m = ck.number(obj, path, "m", lo=1.0)
        d = obj.get("d")
        tau = ck.number(obj, path, "tau", lo=0.0)
        c = ck.number(obj, path, "C", lo=0.0)
        if None in (m, tau, c) or d not in (1, 2):
            if d not in (1, 2):
                ck.fail(f"{path}.d", f"must be 1 or 2, got {d!r}")
            return None
        return bar.BarenblattSpec(m=m, d=d, tau=tau, C=c)
    if kind == "spherical-wave":
        ck.require_keys(obj, path, ("kind", "A", "omega", "B", "R", "m", "d"))
        vals = {k: ck.number(obj, path, k, lo=0.0) for k in ("A", "omega", "B", "R", "m")}
        d = obj.get("d")
        if any(v is None for v in vals.values()) or d not in (1, 2):
            if d not in (1, 2):
                ck.fail(f"{path}.d", f"must be 1 or 2, got {d!r}")
            return None
        return bar.SphericalWaveSpec(A=vals["A"], omega=vals["omega"], B=vals["B"],
                                     R=vals["R"], m=vals["m"], d=d)
    ck.fail(f"{path}.kind", f"must be barenblatt|spherical-wave, got {kind!r}")
    return None


@dataclass
class _BarrierJob:
    label: str
    spec: Any
    check: str  # sub | super | both
    box: bar.SpaceTimeBox
    h_s: float
    m: float
    ball_step: float | None


def _parse_barrier_job(ck: _Checker, obj: Any, idx: int,
                       pot: Potential | None) -> _BarrierJob | None:
    path = f"barriers[{idx}]"
    if not isinstance(obj, dict):
        ck.fail(path, "must be an object")
        return None
    kind = obj.get("kind")
    keys_common = ("label", "check", "box", "h_s", "ball_step")
    if kind in ("barenblatt", "spherical-wave"):
        base = _parse_barrier_base(ck, {k: v for k, v in obj.items()
                                        if k not in keys_common}, path)
        spec = base
        m = base.m if base is not None else None
    elif kind in ("rescaled-wave", "rescaled-barenblatt"):
        ck.require_keys(obj, path, ("kind", "base", "alpha", "x0", "t0"),
                        keys_common + ("C_pert", "drift"))
        base_obj = obj.get("base")
        want = "spherical-wave" if kind == "rescaled-wave" else "barenblatt"
        base = None
        if isinstance(base_obj, dict):
            if base_obj.get("kind") != want:
                ck.fail(f"{path}.base.kind", f"must be {want}")
            else:
                base = _parse_barrier_base(ck, base_obj, f"{path}.base")
        else:
            ck.fail(f"{path}.base", "must be an object")
        alpha = ck.number(obj, path, "alpha", lo=0.0, hi=1.0)
        t0 = ck.number(obj, path, "t0", default=0.0)
        x0 = obj.get("x0")
        if not isinstance(x0, list) or not x0:
            ck.fail(f"{path}.x0", "must be a nonempty list of numbers")
            x0 = None
        if base is None or alpha is None or x0 is None or pot is None:
            return None
        x0_t = tuple(float(v) for v in x0)
        drift = obj.get("drift")
        if drift is None:
            drift = tuple(np.atleast_1d(pot.grad(np.asarray(x0_t))).tolist())
        else:
            drift = tuple(float(v) for v in drift)
        c_pert = ck.number(obj, path, "C_pert", lo=0.0,
                           default=pot.hessian_bound + 1.0)
        spec = bar.RescaledBarrierSpec(
            base=base,
            rescale=bar.RescaleSpec(alpha=alpha, x0=x0_t, t0=t0, drift=drift,
                                    C_pert=c_pert),
        )
        m = base.m
    else:
        ck.fail(f"{path}.kind", f"unknown barrier kind {kind!r}")
        return None

    check = obj.get("check", "both")
    if check not in ("sub", "super", "both"):
        ck.fail(f"{path}.check", f"must be sub|super|both, got {check!r}")
        return None
    if "h_s" not in obj:
        ck.fail(f"{path}.h_s", "missing required key")
    box_obj = obj.get("box")
    box = None
    if not isinstance(box_obj, dict):
        ck.fail(f"{path}.box", "must be an object with lo, hi, t_lo, t_hi")
    else:
        ck.require_keys(box_obj, f"{path}.box", ("lo", "hi", "t_lo", "t_hi"))
        try:
            box = bar.SpaceTimeBox(
                lo=tuple(float(v) for v in box_obj["lo"]),
                hi=tuple(float(v) for v in box_obj["hi"]),
                t_lo=float(box_obj["t_lo"]),
                t_hi=float(box_obj["t_hi"]),
            )
        except (PmedError, TypeError, KeyError, ValueError) as exc:
            ck.fail(f"{path}.box", f"invalid: {exc}")
    h_s = ck.number(obj, path, "h_s", lo=0.0)
    ball_step = ck.number(obj, path, "ball_step", lo=0.0)
    if spec is None or box is None or h_s is None or m is None:
        return None
    label = obj.get("label", f"{kind}-{idx}")
    return _BarrierJob(label=str(label), spec=spec, check=check, box=box,
                       h_s=h_s, m=m, ball_step=ball_step)


_TOP_KEYS = {
    "simulate": (("grid", "physics", "solver", "initial"), ("command", "output")),
    "equilibrium": (("grid", "physics", "equilibrium"), ("command", "output")),
    "verify-barriers": (("physics", "barriers"), ("command", "grid", "output")),
    "compare": (("grid", "physics", "solver", "initial_lo", "initial_hi"),
                ("command", "output")),
    "convergence": (("grid", "physics", "solver", "initial"),
                    ("command", "output", "convergence")),
}


def parse_config(text: str, command: str) -> dict:
    """Validate a JSON experiment config; raises ConfigError listing every
    problem found, not just the first."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be an object"])

    ck = _Checker()
    required, optional = _TOP_KEYS[command]
    ck.require_keys(raw, "", required, optional)
    if "command" in raw and raw["command"] != command:
        ck.fail("command", f"config says {raw['command']!r} but {command!r} was invoked")

    out: dict[str, Any] = {"command": command}

    grid = _parse_grid(ck, raw["grid"]) if "grid" in raw else None
    out["grid"] = grid

    m = None
    pot = None
    if "physics" in raw:
        phys = raw["physics"]
        if not isinstance(phys, dict):
            ck.fail("physics", "must be an object")
        else:
            ck.require_keys(phys, "physics", ("m", "potential"))
            m = ck.number(phys, "physics", "m", lo=1.0)
            dim = grid.dim if grid is not None else 1
            if "potential" in phys:
                pot = _parse_potential(ck, phys["potential"], "physics.potential", dim)
    out["m"] = m
    out["potential"] = pot

    if command in ("simulate", "compare", "convergence"):
        out["solver"] = _parse_solver(ck, raw.get("solver"), m, pot) if "solver" in raw else None
        if command == "compare":
            for key in ("initial_lo", "initial_hi"):
                out[key] = (
                    _parse_initial(ck, raw[key], key, grid, m, pot) if key in raw else None
                )
        elif "initial" in raw:
            out["initial"] = _parse_initial(ck, raw["initial"], "initial", grid, m, pot)
        else:
            out["initial"] = None

    if command == "equilibrium" and "equilibrium" in raw:
        eq = raw["equilibrium"]
        if not isinstance(eq, dict):
            ck.fail("equilibrium", "must be an object")
        else:
            ck.require_keys(eq, "equilibrium", ("target_mass",), ("eps_fb",))
            out["target_mass"] = ck.number(eq, "equilibrium", "target_mass", lo=0.0)
            out["eps_fb"] = ck.number(eq, "equilibrium", "eps_fb", lo=0.0)

    if command == "verify-barriers":
        jobs = []
        items = raw.get("barriers")
        if not isinstance(items, list) or not items:
            ck.fail("barriers", "must be a nonempty list")
        else:
            for i, item in enumerate(items):
                job = _parse_barrier_job(ck, item, i, pot)
                if job is not None:
                    jobs.append(job)
        out["barriers"] = jobs

    if command == "convergence":
        conv = raw.get("convergence", {})
        if not isinstance(conv, dict):
            ck.fail("convergence", "must be an object")
            conv = {}
        ck.require_keys(conv, "convergence", (),
                        ("eps_fb", "epsilon_shell", "max_final_hausdorff"))
        out["conv_eps_fb"] = ck.number(conv, "convergence", "eps_fb", lo=0.0)
        out["epsilon_shell"] = ck.number(conv, "convergence", "epsilon_shell", lo=0.0)
        out["max_final_hausdorff"] = ck.number(conv, "convergence",
                                               "max_final_hausdorff", lo=0.0)

    outc = raw.get("output", {})
    if not isinstance(outc, dict):
        ck.fail("output", "must be an object")
        outc = {}
    else:
        ck.require_keys(outc, "output", (), ("directory", "formats"))
    formats = outc.get("formats", ["csv"])
    if not isinstance(formats, list) or not formats or any(
        f not in ("csv", "ndjson") for f in formats
    ):
        ck.fail("output.formats", f"must be a nonempty list from csv|ndjson, got {formats!r}")
        formats = ["csv"]
    out["out_dir"] = outc.get("directory")
    out["formats"] = formats

    if ck.errors:
        raise ConfigError(ck.errors)
    return out


# ---------------------------------------------------------------------------
# output staging: everything goes to <name>.tmp first, renamed on success


class _Stage:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pending: list[tuple[str, str]] = []
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
            try:
                os.remove(tmp)
            except OSError:
                pass
        self.pending.clear()


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_rows(path: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# command runners


def _snapshot_rows(traj, grid: Grid):
    ax = grid.axis_centers()
    for snap in traj.snapshots:
        u = pressure_from_density(snap.field, traj.config.m)
        if grid.dim == 1:
            for i in range(grid.n_cells):
                yield (snap.t, ax[i], snap.field.values[i], u.values[i])
        else:
            for i in range(grid.n_cells):
                for j in range(grid.n_cells):
                    yield (snap.t, ax[i], ax[j], snap.field.values[i, j],
                           u.values[i, j])


def _run_simulate(cfg: dict, stage: _Stage) -> int:
    traj = simulate(cfg["initial"], cfg["solver"])
    grid = cfg["grid"]
    if "csv" in cfg["formats"]:
        header = ["t", "x", "rho", "u"] if grid.dim == 1 else ["t", "x", "y", "rho", "u"]
        _write_rows(stage.path("snapshots.csv"), header, _snapshot_rows(traj, grid))
    if "ndjson" in cfg["formats"]:
        with open(stage.path("snapshots.ndjson"), "w") as fh:
            for snap in traj.snapshots:
                u = pressure_from_density(snap.field, traj.config.m)
                rec = {"t": snap.t, "rho": snap.field.values.tolist(),
                       "u": u.values.tolist()}
                fh.write(json.dumps(rec) + "\n")
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
    header = ["c_inf", "x"] if grid.dim == 1 else ["c_inf", "x", "y"]
    _write_rows(
        stage.path("equilibrium.csv"),
        header,
        ((prof.c_inf, *pt) for pt in prof.boundary.points),
    )
    return 0


def _run_verify_barriers(cfg: dict, stage: _Stage) -> int:
    rows = []
    all_pass = True
    for job in cfg["barriers"]:
        cand = bar.build_barrier(job.spec, step=job.ball_step)
        kinds = ("sub", "super") if job.check == "both" else (job.check,)
        for kind in kinds:
            rep = bar.residual_pmed(cand, cfg["potential"], kind, job.box,
                                    job.h_s, job.m)
            all_pass = all_pass and rep.passed
            rows.append((
                job.label, kind, "pass" if rep.passed else "fail",
                rep.worst_interior(), rep.worst_boundary(), rep.tol,
                rep.interior_count, rep.boundary_count,
            ))
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
    gaps = [snap.t for snap, b in zip(traj.snapshots, boundaries) if b.empty]
    if gaps:
        raise BoundaryGapError(gaps)
    rows = [(snap.t, hausdorff(b, prof.boundary))
            for snap, b in zip(traj.snapshots, boundaries)]
    _write_rows(stage.path("hausdorff.csv"), ["t", "hausdorff"], rows)
    final_d = rows[-1][1]
    final_b = boundaries[-1]

    eps_shell = cfg["epsilon_shell"]
    if eps_shell is None:
        eps_shell = 5.0 * grid.h * (1.0 + 2.0 * np.sqrt(prof.c_inf))
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
    except OSError as exc:
        print(f"pmed: error: io: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text, args.command)
    except ConfigError as exc:
        print(f"pmed: error: config: {'; '.join(exc.errors)}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg["out_dir"] or "pmed-out"
    stage = _Stage(out_dir)
    try:
        code = _RUNNERS[args.command](cfg, stage)
    except PmedError as exc:
        stage.abort()
        print(f"pmed: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: no partial files either
        stage.abort()
        print(f"pmed: error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    stage.commit()
    return code


if __name__ == "__main__":
    sys.exit(main())
