"""Hypothesis profiles.

Every property test sets its own example count but one: the standing CLI
sweep, ``test_every_request_is_answered_correctly_or_refused``, takes its count
and its derandomization from the loaded profile. "tier-1", loaded here, runs
500 derandomized examples, drawn from a fixed seed (not from a digest of the
test's source), so editing the test keeps its requests.
``--hypothesis-profile=random-sweep`` runs 4,000 random ones instead, drawn
from the seed that ``--hypothesis-seed`` gives, so each seed explores new
requests and a failure can be replayed from its seed.
The property tests of ``test_structure.py``, and
``test_last_product_is_bitwise_the_last_prefix_product`` in ``test_engine.py``,
keep their own counts but take their derandomization from the profile too, so
each seed draws new inputs.
"""

from hypothesis import settings

settings.register_profile("tier-1", max_examples=500, derandomize=True)
settings.register_profile("random-sweep", max_examples=4000, derandomize=False, database=None)
settings.load_profile("tier-1")
