"""Shared test configuration.

The ``ci`` Hypothesis profile runs the property suites ten times
harder than the default one::

    python -m pytest tests/datalog/test_continue.py --hypothesis-profile=ci

Property tests that pin their own example count scale it by the loaded
profile (see :func:`examples`).
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)


def examples(count):
    """`count` under the default profile, scaled by the loaded
    profile's example count relative to the default's."""
    default = settings.get_profile("default").max_examples
    return count * settings().max_examples // default
