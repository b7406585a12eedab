"""One hypothesis profile for every property in the suite: a fixed example
count, examples derived from the test itself rather than a random seed, and
no per-example deadline, so a run is reproducible and a busy machine cannot
fail a property on time alone."""

from hypothesis import settings

settings.register_profile("pptor", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("pptor")
