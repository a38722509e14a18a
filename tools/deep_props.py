"""The suite's property tests, with many more examples than tier-1 draws.

    python3 tools/deep_props.py [--seed N]

Tier-1 draws the same examples on every run of a tree (see
``tests/conftest.py``).  This tool runs the ``tests`` directory under a
"deep" profile instead: random draws from a seed it prints first
(``--seed`` replays a run), no deadline, and each hypothesis test's own
``max_examples`` multiplied by 10.  Tests that are not properties are
deselected.  A failing property prints its falsifying example and its
``@reproduce_failure`` blob in pytest's report; pin the example with
``@example``.  The tool exits with pytest's status, nonzero when a
property failed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
FACTOR = 10  # examples per property, in multiples of its tier-1 count


class Deepen:
    """pytest plugin: register the "deep" profile, and keep only the
    hypothesis tests, each with FACTOR times its examples."""

    @pytest.hookimpl(tryfirst=True)  # before hypothesis's own hook loads the profile
    def pytest_configure(self, config):
        from hypothesis import settings  # here, so that pytest imports hypothesis first

        settings.register_profile("deep", print_blob=True, derandomize=False, database=None,
                                  deadline=None)

    def pytest_collection_modifyitems(self, config, items):
        from hypothesis import settings

        keep, drop, done = [], [], set()
        for item in items:
            test = getattr(item, "obj", None)
            test = getattr(test, "__func__", test)  # a method's function
            if not getattr(test, "is_hypothesis_test", False):
                drop.append(item)
                continue
            keep.append(item)
            if id(test) not in done:  # the items of one parametrized test share it
                done.add(id(test))
                own = test._hypothesis_internal_use_settings
                test._hypothesis_internal_use_settings = settings(
                    own, max_examples=own.max_examples * FACTOR)
        if drop:
            config.hook.pytest_deselected(items=drop)
        items[:] = keep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, help="replay the run of this seed")
    args = parser.parse_args(argv)
    seed = random.randrange(2**32) if args.seed is None else args.seed
    print(f"deep_props: seed {seed}, {FACTOR}x examples", flush=True)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    code = int(pytest.main(["-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-profile=deep",
                            f"--hypothesis-seed={seed}", os.path.join(ROOT, "tests")],
                           plugins=[Deepen()]))
    print(f"deep_props: seed {seed}, {FACTOR}x examples: "
          f"{'passed' if code == 0 else f'FAILED (pytest exit {code})'}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
