"""Minor page faults and wall time of pmed CLI calls, per benchmark workload.

    python3 tools/faults.py [WORKLOAD ...] [--seed 0] [--repeats 10] [--src DIR] [--tiny]

Each workload's config comes from ``generate`` in ``perfbench/workloads.py``
(default: every workload there; ``--tiny`` takes its small configs).  The
tool imports ``pmed.cli`` from ``--src`` (default: this checkout's
``src``), calls ``pmed.cli.main`` once, then ``--repeats`` more times in the
same process with the same config and output directory, and prints one
JSON line per workload:

  first     minor faults and seconds of the first call
  repeated  the median minor faults and the median seconds of the calls
            after it

A call's minor faults are the growth of ``ru_minflt`` in
``resource.getrusage(RUSAGE_SELF)`` across it: the pages the process
touched for the first time, or got back after returning them to the
kernel.  As in perfbench, each call comes after a ``gc.collect()``.  The
tool only reads these counters; it changes no setting of the host.

Naming one workload measures it in this interpreter.  With more than one,
each runs in a fresh interpreter of its own, so that every ``first`` is the
first call of a new process.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def workloads():
    """perfbench's workload generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def call(main, argv: list[str]) -> tuple[int, float]:
    """Minor faults and seconds of one ``main(argv)`` call, which must exit 0."""
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if code != 0:
        raise RuntimeError(f"pmed {' '.join(argv)} exited {code}")
    return faults, seconds


def measure(name: str, seed: int = 0, repeats: int = 10, tiny: bool = False) -> dict:
    """The record of one workload, measured in this process."""
    import pmed.cli

    cfg = workloads().generate(name, seed, tiny)
    with tempfile.TemporaryDirectory(prefix="pmed-faults-") as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = [cfg["command"], "--config", path, "--out", os.path.join(tmp, "out")]
        (faults, seconds), *rest = [call(pmed.cli.main, argv) for _ in range(1 + repeats)]
    return {
        "workload": name, "seed": seed, "tiny": tiny,
        "pmed": os.path.dirname(os.path.dirname(os.path.abspath(pmed.cli.__file__))),
        "first": {"minor_faults": faults, "wall_s": seconds},
        "repeated": {"calls": repeats,
                     "minor_faults": statistics.median(f for f, _ in rest),
                     "wall_s": statistics.median(s for _, s in rest)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", help="default: every perfbench workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    known = workloads().WORKLOADS
    names = args.workloads or list(known)
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if len(names) == 1:
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(measure(names[0], args.seed, args.repeats, args.tiny)), flush=True)
        return 0
    common = ["--seed", str(args.seed), "--repeats", str(args.repeats), "--src", args.src,
              *(["--tiny"] if args.tiny else [])]
    for name in names:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), name, *common],
                              capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr, end="")
            return done.returncode
        print(done.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
