"""Every test starts with no scheme structure built.

``vrelax.operators`` builds the basis and skeleton of a scheme once per set of
quantum numbers and keeps them in a small bounded cache (``_structure_of``).
Clearing it before each test lets each test see the first build of its
schemes whatever ran before it, so a test that counts the work of a build
(the lookups in ``tests/test_keys.py``, the builds in ``tests/test_caches.py``)
counts that build.
"""

import pytest

from vrelax.operators import _structure_of


@pytest.fixture(autouse=True)
def unbuilt_structures():
    _structure_of.cache_clear()
