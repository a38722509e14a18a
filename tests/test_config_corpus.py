"""Single-fault mutations of the golden configs must never crash the parser.

Every mutation of the ten configs in ``test_golden.CASES`` either parses or
raises ``ConfigError``; no other exception may escape ``parse_config``, and
each reported error names the mutated key, an ancestor of it or a
descendant of it.  The mutations are: each key deleted, each key's value
replaced in turn by every entry of ``REPLACEMENTS``, and one unknown key
added to each object.
"""

import copy
import json

import pytest

from pmed.cli import parse_config
from pmed.errors import ConfigError
from test_golden import CASES

REPLACEMENTS = {"str": "x", "neg": -1.0, "zero": 0, "true": True,
                "list": [], "object": {}, "null": None}
OPS = ("delete", *REPLACEMENTS, "unknown")
UNKNOWN_KEY = "zz_unknown"


def _objects(value, path=()):
    """Path of every object inside ``value``, ``value`` itself included."""
    if isinstance(value, dict):
        yield path
        for key, item in value.items():
            yield from _objects(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _objects(item, path + (i,))


def _edited(config, path, op):
    out = copy.deepcopy(config)
    parent = out
    for part in path[:-1]:
        parent = parent[part]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = 1 if op == "unknown" else copy.deepcopy(REPLACEMENTS[op])
    return out


def mutations(config, op):
    """(path, mutated config) for every mutation of kind ``op``."""
    for obj_path in _objects(config):
        if op == "unknown":
            path = obj_path + (UNKNOWN_KEY,)
            yield path, _edited(config, path, op)
            continue
        obj = config
        for part in obj_path:
            obj = obj[part]
        for key in obj:
            path = obj_path + (key,)
            yield path, _edited(config, path, op)


def dotted(path) -> str:
    """("barriers", 0, "box") -> "barriers[0].box", the parser's spelling."""
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def related(a: str, b: str) -> bool:
    """True when path ``a`` equals, contains or lies inside path ``b``."""
    def inside(x, y):
        return x == y or x.startswith(y + ".") or x.startswith(y + "[")
    return inside(a, b) or inside(b, a)


def test_corpus_size():
    total = sum(len(list(mutations(config, op)))
                for _, config in CASES.values() for op in OPS)
    assert total == 1706


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_mutation_parses_or_raises_config_error(case, op):
    command, config = CASES[case]
    problems = []
    for path, mutated in mutations(config, op):
        where = dotted(path)
        try:
            parse_config(json.dumps(mutated), command)
        except ConfigError as exc:
            stray = [e for e in exc.errors if not related(e.split(": ", 1)[0], where)]
            if stray:
                problems.append(f"{where}: errors name other paths: {stray}")
        except Exception as exc:  # the defect under test: anything else escapes
            problems.append(f"{where}: {type(exc).__name__}: {exc}")
    assert problems == []
