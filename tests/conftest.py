"""Hypothesis profiles for the test suite.

On a CI runner (``CI`` or ``GITHUB_ACTIONS`` set) Hypothesis loads its
built-in ``ci`` profile, whose ``derandomize=True`` overrides
``--hypothesis-seed``: every seed leg would draw the same examples.  The
``seeded`` profile is that profile with ``derandomize=False``, so a run with
``--hypothesis-profile=seeded --hypothesis-seed=N`` draws seed N's own
examples, on a runner and locally alike (and keeps no example database).
"""

from hypothesis import settings

settings.register_profile("seeded", parent=settings.get_profile("ci"), derandomize=False)
