"""Shared test settings.

Property tests run with a derandomized Hypothesis profile, no deadline and no
example database, so every run draws the same examples and slow hosts do not
fail on timing.
"""

from hypothesis import settings

settings.register_profile("cpfast", derandomize=True, deadline=None, database=None)
settings.load_profile("cpfast")
