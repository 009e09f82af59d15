"""One hypothesis profile for the suite: every property draws the same
examples on every run, and none is timed against a deadline."""

from hypothesis import settings

settings.register_profile("catscan", derandomize=True, deadline=None)
settings.load_profile("catscan")
