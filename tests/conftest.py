"""Hypothesis profiles.  ``--hypothesis-profile=ci`` derandomizes the property
tests, so a CI run draws the same examples every time and cannot flake."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
