"""Hypothesis profiles for the suite.

``default`` is what tier-1 runs: 60 examples per property, 50 steps per
stateful run (the budget ``tests/property/test_store_machine.py`` used to
hard-code), no per-example deadline — every clock a test asserts on is the
simulated one. ``long`` is the CI job ``store-machine-long``::

    PYTHONPATH=src python -m pytest tests/property/test_store_machine.py --hypothesis-profile=long

A test that sets ``max_examples`` itself keeps its own budget under both.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=60, stateful_step_count=50, deadline=None)
settings.register_profile("long", max_examples=400, stateful_step_count=80, deadline=None)
