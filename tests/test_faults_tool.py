"""Smoke test of ``tools/faults.py`` on the tiny perfbench configs: every
workload gives one record of counts and times, in this process and, for
more than one workload, one fresh interpreter each."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "faults.py")
faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(faults)
NAMES = list(faults.workloads().WORKLOADS)


def check(record, name, repeats):
    assert record["workload"] == name and record["tiny"] is True
    assert record["repeated"]["calls"] == repeats
    for part in ("first", "repeated"):
        assert record[part]["minor_faults"] >= 0
        assert record[part]["wall_s"] > 0.0


@pytest.mark.parametrize("name", NAMES)
def test_one_workload_in_process(name):
    check(faults.measure(name, seed=0, repeats=2, tiny=True), name, 2)


def test_one_interpreter_per_workload(capsys):
    assert faults.main([*NAMES[:2], "--repeats", "1", "--tiny",
                        "--src", str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for name, line in zip(NAMES[:2], lines):
        record = json.loads(line)
        check(record, name, 1)
        assert Path(record["pmed"]) == ROOT / "src"


def test_unknown_workload_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        faults.main(["no-such-workload"])
    assert info.value.code == 2
