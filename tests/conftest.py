"""Hypothesis settings for the suite: a failing property also prints its
``@reproduce_failure`` blob, so a rare counterexample can be replayed.
Example counts, deadlines and health checks stay hypothesis's and each
test's own."""

from hypothesis import settings

settings.register_profile("pmed", print_blob=True)
settings.load_profile("pmed")
