"""Hypothesis settings for the whole suite: a failing draw prints the
``@reproduce_failure`` line that replays it."""

from hypothesis import settings

settings.register_profile("hubkit", print_blob=True)
settings.load_profile("hubkit")
