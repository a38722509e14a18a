"""Paired before/after runs of perfbench for two checkouts of this repository.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        [--workloads NAME[:FIRST-LAST] ...] [--seeds 0 1 2] [--seconds 12]
        [--trace-workloads NAME[:FIRST-LAST] ...] [--trace-seconds 12]

The workloads, the end-to-end metrics and which way each metric is better
are read from the ``BENCHMARK.json`` beside this tool's directory.  Each
checkout is measured by its own ``perfbench/run.py`` (the program under
``DIR/src``).  For every workload and seed one pair of ``--trace 0`` runs is
made, parent and change back to back; which of the two runs first alternates
from pair to pair, so that a slow phase of a shared host does not always
fall on the same side.  A workload given as ``NAME:FIRST-LAST`` runs the
seeds FIRST..LAST instead of ``--seeds``; every spec is checked before the
first pair runs, and one that names no declared workload or no range
FIRST <= LAST stops the tool with a usage error.  The workloads named by
``--trace-workloads`` also get ``--trace 1`` pairs, for the per-layer
tables: at the first of ``--seeds``, or at the seeds of their own range.

The output file holds, per pair, the normalized metrics perfbench prints,
the raw (unnormalized) medians, the output digests and the failure count of
both sides; per workload, the medians and quartiles of each end-to-end
metric over its pairs, and of a few per-layer metrics over its traced pairs.
``gain_shown`` applies the gain rule: at least ten pairs, the change better
in at least 9 of 10 of them (ties count for neither side), and its median
better than the parent's by more than the parent's interquartile range.  perfbench
itself is only run, never changed.

The output file is rewritten (to a temporary name, then renamed) after
every pair, so an interrupted run keeps the pairs it finished.  A failed
perfbench run stops the tool: the record keeps the pairs so far and says
why under ``error``, and the tool exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)  # the workloads and metrics, each named there once
BETTER = {metric["name"]: metric["better"]
          for kind in ("end_to_end", "per_layer") for metric in BENCHMARK[kind]}
ENVIRONMENT = ("git_commit", "source_sha256", "python", "numpy", "nproc", "cpu")
LAYERS = ("barriers.residual_s", "barriers.residual_self_s", "barriers.samples_per_s",
          "barriers.candidate_calls", "barriers.candidate_points", "barriers.samples",
          "cli.self_s", "cli.write_mb_per_s", "core.pressure_s", "solver.simulate_s",
          "solver.steps", "solver.step_us", "solver.cfl_dt_us", "solver.step_report_us",
          "freeboundary.hausdorff_s", "freeboundary.extract_s", "freeboundary.equilibrium_s",
          "initialdata.build_s")


def names(kind: str) -> tuple[str, ...]:
    """The names of BENCHMARK.json's ``workloads`` or ``end_to_end`` metrics."""
    return tuple(entry["name"] for entry in BENCHMARK[kind])


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run of ``checkout``: its printed result plus the parts
    of result.json that the printed line leaves out."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=checkout)
    path = os.path.join(checkout, ".perfbench-out", f"{workload}-seed{seed}-trace{trace}",
                        "result.json")
    if done.returncode != 0:
        # run.py exits 1 when every call failed its check; result.json then
        # says why, and a crash leaves only stderr
        failures = []
        if os.path.isfile(path):
            with open(path) as fh:
                failures = json.load(fh).get("failures", [])
        why = "; ".join(failures[:3]) or done.stderr.strip()[-500:]
        raise RuntimeError(f"{workload} seed {seed} trace {trace} in {checkout} "
                           f"exited {done.returncode}: {why}")
    printed = json.loads(done.stdout.strip().splitlines()[-1])
    with open(path) as fh:
        result = json.load(fh)
    env = result.get("environment", {})
    out = {
        "environment": {k: env.get(k) for k in ENVIRONMENT},
        "failed": printed["failed"],
        "attempted": printed["attempted"],
        "metrics": {k: v["value"] for k, v in printed["metrics"].items()},
        "outputs": result.get("outputs"),
    }
    if trace:
        out["self_time_table"] = result.get("self_time_table", {})
    else:
        out["raw"] = result.get("raw", {})
    return out


def pair(dirs: dict, workload: str, seed: int, seconds: float, trace: int,
         index: int) -> dict:
    order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
    row = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
    for side in order:
        row[side] = run(dirs[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side}: "
              + ", ".join(f"{k} {row[side]['metrics'].get(k, float('nan')):.4g}"
                          for k in (names("end_to_end") if not trace else LAYERS)),
              file=sys.stderr, flush=True)
    row["outputs_identical"] = row["parent"]["outputs"] == row["change"]["outputs"]
    return row


def seeds_of(spec: str, default: list[int]) -> tuple[str, list[int]]:
    """``NAME`` or ``NAME:FIRST-LAST`` -> (NAME, seeds).  Raises ValueError
    unless NAME is a declared workload and FIRST <= LAST are seed numbers."""
    workload, colon, span = spec.partition(":")
    if workload not in names("workloads"):
        raise ValueError(f"{spec!r}: unknown workload {workload!r}")
    if not colon:
        return workload, default
    first, dash, last = span.partition("-")
    if not (dash and first.isdigit() and last.isdigit() and int(first) <= int(last)):
        raise ValueError(f"{spec!r}: not NAME:FIRST-LAST with FIRST <= LAST")
    return workload, list(range(int(first), int(last) + 1))


def quartiles(xs: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated between the order statistics."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[dict], keys: tuple[str, ...]) -> dict:
    """Per workload: the median and quartiles of each metric in ``keys`` on
    both sides, their ratio, in how many pairs the change was lower, and
    whether the pairs show a gain."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        entry = {"pairs": len(rows),
                 "outputs_identical": all(p["outputs_identical"] for p in rows),
                 "failed": {s: sum(p[s]["failed"] for p in rows) for s in ("parent", "change")}}
        for key in keys:
            before = [p["parent"]["metrics"][key] for p in rows]
            after = [p["change"]["metrics"][key] for p in rows]
            b, a = statistics.median(before), statistics.median(after)
            q1, q3 = quartiles(before)
            sign = -1 if BETTER.get(key) == "higher" else 1  # sign * (parent - change) > 0: better
            wins = sum(sign * (y - x) > 0 for x, y in zip(after, before))
            entry[key] = {
                "parent_median": b,
                "change_median": a,
                "parent_quartiles": [q1, q3],
                "change_quartiles": list(quartiles(after)),
                "ratio": a / b if b else None,
                "change_lower_in": sum(x < y for x, y in zip(after, before)),
                "gain_shown": (len(rows) >= 10 and 10 * wins >= 9 * len(rows)
                               and sign * (b - a) > q3 - q1),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(names("workloads")))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace-workloads", nargs="*", default=[])
    parser.add_argument("--trace-seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs, traced = [], []
    try:  # every spec is checked before the first pair runs
        jobs = [(rows, trace, seconds, *seeds_of(spec, default))
                for specs, trace, seconds, default, rows in (
                    (args.workloads, 0, args.seconds, args.seeds, pairs),
                    (args.trace_workloads, 1, args.trace_seconds, args.seeds[:1], traced))
                for spec in specs]
    except ValueError as exc:
        parser.error(str(exc))
    environment = {}  # recorded once per side, not per run

    def save(error: str | None = None):
        """Write the record of the pairs so far, atomically."""
        record = {
            "environment": environment,
            "seeds": args.seeds,
            "seconds": args.seconds,
            "trace_seconds": args.trace_seconds,
            "summary": summary(pairs, names("end_to_end")),
            "trace_summary": summary(traced, LAYERS),
            "pairs": pairs,
            "trace_pairs": traced,
            **({"error": error} if error else {}),
        }
        with open(args.out + ".tmp", "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        os.replace(args.out + ".tmp", args.out)

    save()  # an empty record before the first pair
    index = 0
    for rows, trace, seconds, workload, seeds in jobs:
        for seed in seeds:
            try:
                row = pair(dirs, workload, seed, seconds, trace, index)
            except Exception as exc:  # keep the pairs so far, say why it stopped
                save(f"{type(exc).__name__}: {exc}")
                traceback.print_exc()
                return 1
            for side in ("parent", "change"):
                environment.setdefault(side, row[side].pop("environment"))
            rows.append(row)
            index += 1
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
