"""Shared test configuration and fixtures.

The ``src`` layout is added to ``sys.path`` as a fallback so the suite also
runs in environments where the editable install is unavailable (e.g. fully
offline machines); when ``repro`` is already installed the import below is a
no-op.  This directory is put on ``sys.path`` too, so every suite imports
the shared Hypothesis generators as ``strategies`` (the test tree has no
packages).

One Hypothesis profile, ``repro``, is registered and loaded: it prints the
reproduction blob of every falsifying example, so a failure at a random
seed can be replayed with ``@reproduce_failure``.  It matters for runs
outside GitHub Actions; there Hypothesis loads its own ``ci`` profile
first (derandomized, blobs printed), which ``repro`` inherits unchanged.
"""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import settings

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")
for _path in (_SRC, _TESTS):
    if _path not in sys.path:  # pragma: no cover - environment dependent
        sys.path.insert(0, _path)

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")

from repro.hypergraph import aclique, aring, chain_schema, parse_schema  # noqa: E402


@pytest.fixture
def rng():
    """A deterministic random generator for tests that sample."""
    return random.Random(20260613)


@pytest.fixture
def chain4():
    """The tree schema ``(ab, bc, cd)`` of Figure 1."""
    return parse_schema("ab,bc,cd")


@pytest.fixture
def triangle():
    """The cyclic schema ``(ab, bc, ac)`` of Figure 1 (the Aring of size 3)."""
    return parse_schema("ab,bc,ac")


@pytest.fixture
def figure1_tree():
    """The tree schema ``(abc, cde, ace, afe)`` of Figure 1."""
    return parse_schema("abc,cde,ace,afe")


@pytest.fixture
def aring4():
    """The Aring of size 4 (Figure 2a)."""
    return aring(4)


@pytest.fixture
def aclique4():
    """The Aclique of size 4 (Figure 2b)."""
    return aclique(4)


@pytest.fixture
def small_tree_schemas():
    """A handful of small tree schemas used across parametrized tests."""
    return [
        parse_schema("ab"),
        parse_schema("ab,bc"),
        parse_schema("ab,bc,cd"),
        parse_schema("abc,cde,ace,afe"),
        parse_schema("abc,ab,bc"),
        chain_schema(5),
    ]


@pytest.fixture
def small_cyclic_schemas():
    """A handful of small cyclic schemas used across parametrized tests."""
    return [
        parse_schema("ab,bc,ac"),
        aring(4),
        aring(5),
        aclique(3),
        aclique(4),
        parse_schema("ab,bc,cd,da,ac"),
    ]
