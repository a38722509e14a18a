"""Correctness checks on the files one pmed CLI call wrote.

A call passes when it exits with the expected code, its files are
byte-identical to the first call of the run, and the paper invariants
read back from its CSVs hold.  Digests are compared on every call; the
invariants are read once per distinct digest, since identical bytes give
identical verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

# What each command must write; simulate writes snapshots.* per format.
OUTPUTS = {
    "simulate": ("mass.csv", "snapshots.csv", "snapshots.ndjson"),
    "convergence": ("hausdorff.csv", "summary.csv"),
    "compare": ("compare.csv",),
    "verify-barriers": ("residuals.csv",),
}


def digest(out_dir: str, command: str) -> tuple[tuple[str, str, int], ...]:
    """(name, sha256, bytes) per expected output file, in a fixed order."""
    rows = []
    for name in OUTPUTS[command]:
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        rows.append((name, h.hexdigest(), os.path.getsize(os.path.join(out_dir, name))))
    return tuple(rows)


def _rows(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def invariants(out_dir: str, cfg: dict) -> list[str]:
    """Broken paper invariants, as messages; empty when all hold."""
    command = cfg["command"]
    problems = []
    if command in ("simulate", "convergence", "compare"):
        s = cfg["solver"]
        snapshots = math.floor(s["t_end"] / s["snapshot_every"] + 1e-9) + 1
    if command == "simulate":
        rows = _rows(out_dir, "mass.csv")
        mass = [float(r["mass"]) for r in rows]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        clipped = float(rows[-1]["clipped_mass"])
        if len(rows) != snapshots:
            problems.append(f"mass.csv has {len(rows)} rows, expected {snapshots}")
        if not drift <= 1e-10:
            problems.append(f"relative mass drift {drift:.3e} > 1e-10")
        if not clipped <= 1e-8 * mass[0]:
            problems.append(f"clipped mass {clipped:.3e} > 1e-8 * mass")
        cells = round(2.0 * cfg["grid"]["L"] / cfg["grid"]["h"]) ** cfg["grid"]["dim"]
        lines = _count_lines(os.path.join(out_dir, "snapshots.csv"))
        if lines != 1 + snapshots * cells:
            problems.append(f"snapshots.csv has {lines} lines, expected "
                            f"{1 + snapshots * cells}")
        lines = _count_lines(os.path.join(out_dir, "snapshots.ndjson"))
        if lines != snapshots:
            problems.append(f"snapshots.ndjson has {lines} lines, expected {snapshots}")
    elif command == "compare":
        (row,) = _rows(out_dir, "compare.csv")
        if row["ordered"] != "true":
            problems.append(f"compare.csv not ordered: {row}")
    elif command == "convergence":
        summary = {r["key"]: r["value"] for r in _rows(out_dir, "summary.csv")}
        if summary.get("shell_ok") != "true":
            problems.append(f"summary.csv shell_ok = {summary.get('shell_ok')!r}")
        dists = [float(r["hausdorff"]) for r in _rows(out_dir, "hausdorff.csv")]
        if len(dists) != snapshots or not all(map(math.isfinite, dists)):
            problems.append(f"hausdorff.csv: {len(dists)} rows, expected "
                            f"{snapshots} finite distances")
    elif command == "verify-barriers":
        rows = _rows(out_dir, "residuals.csv")
        expected = sum(2 if j["check"] == "both" else 1 for j in cfg["barriers"])
        if len(rows) != expected:
            problems.append(f"residuals.csv has {len(rows)} rows, expected {expected}")
        for r in rows:
            if r["result"] != "pass":
                problems.append(f"residual check failed: {r['barrier']} {r['kind']}")
            # a check with no samples passes vacuously
            if int(r["interior_samples"]) == 0 or int(r["boundary_samples"]) == 0:
                problems.append(f"residual check without samples: {r['barrier']} "
                                f"{r['kind']}")
    return problems
