"""pmed benchmark: one workload, one seed, for a fixed measuring time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program measured is the package in ``src/`` of the
checkout this file sits in.  The workload config is generated from the
seed (see workloads.py) and written, with the full result, under
``.perfbench-out/<workload>-seed<n>-trace<t>/`` at the checkout root.

The load is a closed loop with one client: each ``pmed.cli.main`` call
starts when the previous one has returned, in this process, with no added
threads.  Every call is checked (checks.py); a failed check counts into
``failed``.

``--trace 0`` reports the end-to-end metrics.  Timings are in seconds at
the reference host speed (calibrate.py): each measured time is scaled by
REFERENCE_S over the calibration kernel's time around it.  The raw times
and the kernel times are in the result file.
  wall_s       median time of one main() call, after a warm-up call
  wall_s_tail  the highest percentile of the call times with at least 10
               samples beyond it (percentile and count in the result file)
  setup_s      median over fresh interpreters of importing pmed.cli and
               running parse_config on the config, initial data included
  peak_rss_mb  peak RSS of a fresh interpreter doing set-up plus one run
``--trace 1`` alternates traced and untraced calls and reports per-layer
metrics from spans recorded around the calls pmed.cli makes into each
module (tracing.py), plus exact step counts from a replay of the solver's
documented dt schedule through its public functions.

The last line of standard output is the run's result as one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import envinfo
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
ISOLATED_S = 0.25  # time budget of each isolated solver-call median
ISOLATED_MAX = 200  # repeat cap of each isolated solver-call median

UNITS = {
    "wall_s": "s", "wall_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


class Caller:
    """Runs and checks pmed CLI calls for one config; tallies failures."""

    def __init__(self, cfg: dict, cfg_path: str, out_dir: str):
        self.cfg = cfg
        self.cfg_path = cfg_path
        self.argv = [cfg["command"], "--config", cfg_path, "--out", out_dir]
        self.out_dir = out_dir
        self.reference = None  # (file, sha256, bytes) of the first good call
        self.broken: list[str] = []  # invariants the reference outputs break
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str):
        self.failures.append(message)

    def call(self, main) -> float | None:
        """Seconds the call took, or None if it failed a check."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = main(self.argv)
        except Exception as exc:  # any exception is a failed call
            self.fail(f"call {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        if code != 0:
            self.fail(f"call {self.attempted}: exit code {code}")
            return None
        try:
            dig = checks.digest(self.out_dir, self.cfg["command"])
        except OSError as exc:
            self.fail(f"call {self.attempted}: missing output: {exc}")
            return None
        if self.reference is None:
            self.reference = dig
            self.broken = checks.invariants(self.out_dir, self.cfg)
        if dig != self.reference:
            self.fail(f"call {self.attempted}: outputs differ from the first call")
            return None
        if self.broken:
            self.fail(f"call {self.attempted}: " + "; ".join(self.broken))
            return None
        return seconds

    def bytes_written(self) -> int:
        return sum(size for _, _, size in self.reference)


def tail(samples: list[float]) -> dict:
    """Nearest-rank percentile with TAIL_BEYOND samples beyond it; the
    maximum when there are too few samples for that."""
    s = sorted(samples)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return {"value": s[rank - 1], "percentile": 100.0 * rank / len(s),
            "samples": len(s)}


def probe(caller: Caller, out_dir: str | None = None) -> dict | None:
    """Run probe.py in a fresh interpreter; a probe that fails is a failed
    call."""
    argv = [sys.executable, PROBE, SRC, caller.cfg_path, caller.cfg["command"]]
    if out_dir:
        argv.append(out_dir)
    caller.attempted += 1
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        caller.fail("probe timed out")
        return None
    if done.returncode != 0:
        caller.fail(f"probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if out_dir and out["exit_code"] != 0:
        caller.fail(f"probe run: exit code {out['exit_code']}")
        return None
    return out


def normalized(seconds: float, kernel_s: float) -> float:
    """Seconds at the reference host speed (see calibrate.py)."""
    return seconds * calibrate.REFERENCE_S / kernel_s


# --- untraced run: end-to-end metrics -------------------------------------------


def untraced(cli, caller: Caller, run_dir: str, seconds: float) -> tuple[dict, dict]:
    rss = probe(caller, os.path.join(run_dir, "probe-out"))
    caller.call(cli.main)  # warm-up: fills lazy caches, sets the reference outputs
    samples, setups = [], []  # (raw seconds, calibration kernel seconds)
    probed = 0

    def probe_setup():
        nonlocal probed
        probed += 1
        before = calibrate.kernel_s()
        out = probe(caller)
        if out:
            setups.append((out["setup_s"], (before + calibrate.kernel_s()) / 2))

    start = time.perf_counter()
    kernel = calibrate.kernel_s()
    while not samples or time.perf_counter() < start + seconds:
        dt = caller.call(cli.main)
        after = calibrate.kernel_s()
        if dt is not None:
            samples.append((dt, (kernel + after) / 2))
        kernel = after
        # set-up probes are spread over the window, so that they meet the
        # same phases of a noisy host as the timed calls
        if probed < SETUP_PROBES and time.perf_counter() - start >= seconds * probed / SETUP_PROBES:
            probe_setup()
        if len(caller.failures) > 3 and not samples:
            break  # the calls keep failing: stop, the result says so
    while probed < SETUP_PROBES:
        probe_setup()

    details = {"samples_s": samples, "setup_samples_s": setups}
    if not (samples and setups and rss):
        return {}, details
    walls = [normalized(t, k) for t, k in samples]
    details["wall_s_tail"] = tail(walls)
    details["raw"] = {
        "wall_s": statistics.median(t for t, _ in samples),
        "wall_s_tail": tail([t for t, _ in samples])["value"],
        "setup_s": statistics.median(t for t, _ in setups),
        "kernel_s": statistics.median(k for _, k in samples),
    }
    return {
        "wall_s": statistics.median(walls),
        "wall_s_tail": details["wall_s_tail"]["value"],
        "setup_s": statistics.median(normalized(t, k) for t, k in setups),
        "peak_rss_mb": rss["peak_rss_mb"],
    }, details


# --- traced run: per-layer metrics ----------------------------------------------


def layer_values(table: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced CLI call, from its span table."""

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def count(name, key="calls"):
        return table[name].get(key, 0) if name in table else 0

    main_s = table["cli.main"]["total_s"]
    layer_self = {layer: sum(r["self_s"] for n, r in table.items()
                             if n.split(".")[0] == layer)
                  for layer in tracing.LAYERS}
    cli_self = table["cli.main"]["self_s"]
    residual_s = total("barriers.residual_pmed")
    samples = count("barriers.residual_pmed", "samples")
    v = {
        "cli.parse_s": total("cli.parse_config"),
        "initialdata.build_s": total(*[n for n in table if n.startswith("initialdata.")]),
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": bytes_written / 1e6 / cli_self,
        "core.pressure_s": total("core.pressure_from_density"),
        "core.pressure_calls": count("core.pressure_from_density"),
        "solver.simulate_s": total("solver.simulate", "solver.comparison_harness"),
        "freeboundary.equilibrium_s": total("freeboundary.equilibrium_profile"),
        "freeboundary.extract_s": total("freeboundary.extract_boundary"),
        "freeboundary.extract_calls": count("freeboundary.extract_boundary"),
        "freeboundary.boundary_points": count("freeboundary.extract_boundary", "points"),
        "freeboundary.hausdorff_s": total("freeboundary.hausdorff"),
        "freeboundary.hausdorff_pairs": count("freeboundary.hausdorff", "pairs"),
        "barriers.residual_s": residual_s,
        "barriers.candidate_s": total("barriers.candidate"),
        "barriers.candidate_calls": count("barriers.candidate"),
        "barriers.candidate_points": count("barriers.candidate", "points"),
        "barriers.residual_self_s": table.get("barriers.residual_pmed", {}).get("self_s", 0.0),
        "barriers.samples": samples,
        "barriers.samples_per_s": samples / residual_s if residual_s else 0.0,
    }
    for layer, seconds in layer_self.items():
        v[f"{layer}.frac"] = seconds / main_s
    return v


COUNTS = ("cli.bytes_written", "core.pressure_calls", "freeboundary.extract_calls",
          "freeboundary.boundary_points", "freeboundary.hausdorff_pairs",
          "barriers.candidate_calls", "barriers.candidate_points", "barriers.samples")


def replay(parsed: dict) -> dict:
    """Exact step count from outside simulate: replay its documented dt
    schedule through the public cfl_dt and step_density_report, and check
    that the replay ends on simulate's final field.  Also times the two
    public calls on the mid-run snapshot."""
    import numpy as np
    from pmed.solver import cfl_dt, simulate, step_density_report

    cfg = parsed["solver"]
    starts = [parsed[k] for k in ("initial", "initial_lo", "initial_hi") if k in parsed]
    steps = 0
    mid = None
    targets = math.floor(cfg.t_end / cfg.snapshot_every + 1e-9)
    for rho in starts:
        rho0 = rho
        t = 0.0
        for k in range(1, targets + 1):
            target = k * cfg.snapshot_every
            while t < target * (1.0 - 1e-14):
                dt = min(cfl_dt(rho, cfg), target - t)
                rho = step_density_report(rho, cfg, dt).field
                steps += 1
                t += dt
                if abs(t - target) <= 1e-12 * max(1.0, target):
                    t = target
            t = target
            if k == (targets + 1) // 2 and mid is None:
                mid = rho
        if not np.array_equal(simulate(rho0, cfg).final.field.values, rho.values):
            raise RuntimeError("replayed steps do not end on simulate's final field")

    def median_us(fn):
        times = []
        deadline = time.perf_counter() + ISOLATED_S
        while len(times) < ISOLATED_MAX and (len(times) < 5 or time.perf_counter() < deadline):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e6

    dt_mid = cfl_dt(mid, cfg)
    return {
        "steps": steps,
        "cells": mid.values.size,
        "cfl_dt_us": median_us(lambda: cfl_dt(mid, cfg)),
        "step_report_us": median_us(lambda: step_density_report(mid, cfg, dt_mid)),
    }


def traced(cli, caller: Caller, seconds: float) -> tuple[dict, dict]:
    """Traced and untraced calls alternate, so that both meet the same
    phases of a noisy host and their ratio gives the tracing overhead."""
    caller.call(cli.main)  # warm-up
    samples, traced_samples, tables, per_call, spans_out = [], [], [], [], []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    i = 0
    while not (samples and traced_samples) or time.perf_counter() < deadline:
        if i % 2:
            with tracing.instrumented(cli, tracer) as traced_main:
                dt = caller.call(traced_main)
            spans = tracer.take()
            if dt is not None:
                traced_samples.append(dt)
                tables.append(tracing.span_table(spans))
                per_call.append(layer_values(tables[-1], caller.bytes_written()))
                spans_out.append([vars(s) for s in spans])
        else:
            dt = caller.call(cli.main)
            if dt is not None:
                samples.append(dt)
        i += 1
        if len(caller.failures) > 3 and not (samples and traced_samples):
            break  # the calls keep failing: stop, the result says so

    details = {"samples_s": samples, "traced_samples_s": traced_samples,
               "spans": spans_out}
    if not (samples and per_call):
        return {}, details
    caller.attempted += 1
    differ = [key for key in COUNTS if len({v[key] for v in per_call}) != 1]
    if differ:
        caller.fail(f"exact counts differ between traced calls: {differ}")
    metrics = {k: per_call[0][k] if k in COUNTS else statistics.median(v[k] for v in per_call)
               for k in per_call[0]}
    with open(caller.cfg_path) as fh:
        parsed = cli.parse_config(fh.read(), caller.cfg["command"])
    solver = {"steps": 0, "cells": 0, "cfl_dt_us": 0.0, "step_report_us": 0.0}
    if "solver" in parsed:
        caller.attempted += 1
        try:
            solver = replay(parsed)
        except Exception as exc:  # a failed replay is a failed check
            caller.fail(f"replay: {type(exc).__name__}: {exc}")
    sim_s = metrics["solver.simulate_s"]
    steps = solver["steps"]
    metrics.update({
        "solver.steps": steps,
        "solver.step_us": sim_s / steps * 1e6 if steps else 0.0,
        "solver.cell_steps_per_s": steps * solver["cells"] / sim_s if steps else 0.0,
        "solver.cfl_dt_us": solver["cfl_dt_us"],
        "solver.step_report_us": solver["step_report_us"],
        "trace.overhead_frac": (statistics.median(traced_samples)
                                / statistics.median(samples) - 1.0),
    })
    details["self_time_table"] = {
        n: {k: statistics.median(t[n][k] for t in tables if n in t)
            for k in ("calls", "total_s", "self_s")}
        for n in sorted({n for t in tables for n in t})}
    return metrics, details


# --- one run --------------------------------------------------------------------


def measure(cli, name: str, seed: int, seconds: float, trace: bool,
            run_dir: str, tiny: bool = False) -> dict:
    """Run one workload for ``seconds``; writes config.json, result.json and
    spans.json into ``run_dir`` and returns the result."""
    wl = workloads.WORKLOADS[name]
    cfg = workloads.generate(name, seed, tiny)
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    caller = Caller(cfg, cfg_path, os.path.join(run_dir, "out"))
    result = {
        "workload": name, "why": wl.why, "seed": seed, "ranges": wl.ranges,
        "config": cfg_path, "seconds": seconds, "trace": int(trace),
        "environment": envinfo.record(ROOT, SRC, seed),
        "sizes_computed": wl.sizes(cfg),
    }
    if trace:
        metrics, details = traced(cli, caller, seconds)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, details = untraced(cli, caller, run_dir, seconds)
        units = UNITS
    spans = details.pop("spans", [])
    result.update(details)
    result.update({
        "attempted": caller.attempted,
        "failed": len(caller.failures),
        "failed_frac": len(caller.failures) / caller.attempted,
        "failures": caller.failures,
        "outputs": caller.reference,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    for sub in ("out", "probe-out"):  # up to 10 MB each; the digests stay
        shutil.rmtree(os.path.join(run_dir, sub), ignore_errors=True)
    with open(os.path.join(run_dir, "spans.json"), "w") as fh:
        json.dump(spans, fh)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def per_layer_unit(key: str) -> str:
    if key in COUNTS or key == "solver.steps":
        return "count"
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_us", "us"),
                         ("_s", "s"), ("frac", "frac")):
        if key.endswith(suffix):
            return unit
    raise KeyError(key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pmed", "cli.py")):
        print(f"perfbench: no pmed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pmed.cli as cli

    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
