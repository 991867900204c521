"""Hypothesis settings shared by the test suite.

The derandomized profile draws the same examples on every run and keeps no
example database, so the suite is deterministic.
"""

from hypothesis import settings

# No deadline: example run times on a loaded machine are not a property of
# the code under test.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
