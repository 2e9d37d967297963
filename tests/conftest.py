"""Hypothesis draws the same examples on every run, so tier-1 is repeatable."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
