"""Hypothesis settings for the suite: every run of a tree draws the same
examples (``derandomize``: each test seeds from its own source), and a
failing property also prints its ``@reproduce_failure`` blob.  Example
counts, deadlines and health checks stay hypothesis's and each test's own.
Wider random searches run outside the suite: ``tools/deep_props.py``."""

from hypothesis import settings

settings.register_profile("pmed", print_blob=True, derandomize=True)
settings.load_profile("pmed")
