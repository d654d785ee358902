"""Run the library's docstring examples as tests."""

from __future__ import annotations

import doctest

import pytest

import repro.catalog.distributions
import repro.cost.selectivity
import repro.skyline.dominance
import repro.skyline.naive
import repro.skyline.sfs
import repro.util.bitset
import repro.util.rng
import repro.util.tables
import repro.util.timer

MODULES = [
    repro.util.bitset,
    repro.util.rng,
    repro.util.tables,
    repro.util.timer,
    repro.catalog.distributions,
    repro.cost.selectivity,
    repro.skyline.dominance,
    repro.skyline.naive,
    repro.skyline.sfs,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, attempted = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert failures == 0
    assert attempted > 0, f"{module.__name__} has no doctest examples"
