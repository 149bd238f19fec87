"""Test-suite settings: one deterministic hypothesis profile for every run."""

from hypothesis import settings

# derandomized, no example database and no deadline, so a property test draws
# the same bounded set of examples on every machine and every run
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("deterministic")
