"""The environment a result was measured in, recorded beside every result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
import sys


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: str) -> str:
    """sha256 over the package sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "pmed", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu() -> dict:
    info = {"model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["model"] = value.strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(index, name)) as fh:
                    fields[name] = fh.read().strip()
        except OSError:
            continue
        info["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    return info


def record(root: str, src: str, seed: int) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "platform": platform.platform(),
    }
