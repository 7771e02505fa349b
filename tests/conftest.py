"""Shared test configuration: one hypothesis profile for every property test.

derandomize makes each run draw the same examples, and deadline=None keeps a
slow exact-arithmetic example from failing on time alone.
"""

from hypothesis import settings

settings.register_profile("thermoflux", derandomize=True, deadline=None)
settings.load_profile("thermoflux")
