"""Shared test settings: property tests run a fixed, seed-free set of examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
