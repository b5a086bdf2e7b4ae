"""Shared pytest set-up: the one hypothesis profile of the property tests.

Examples are derandomized (drawn from a seed derived from each test's
source), never stored, and never timed, so every run checks the same cases.
"""

from hypothesis import settings

settings.register_profile(
    "permdiff", max_examples=150, deadline=None, derandomize=True, database=None
)
settings.load_profile("permdiff")
