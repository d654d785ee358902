"""Tests for repro.core.enumeration: level_pairs against the plain double loop."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SearchBudget, SearchCounters
from repro.core.enumeration import level_pairs
from repro.plans.jcr import JCR
from repro.query.joingraph import JoinGraph
from repro.util.timer import Timer


def scan_all_pairs(levels, target_level, graph, counters):
    """``level_pairs`` as a double loop that tests every (small, large) pair."""
    for small in range(1, target_level // 2 + 1):
        large = target_level - small
        small_list = levels.get(small, ())
        large_list = levels.get(large, ())
        if not small_list or not large_list:
            continue
        same_size = small == large
        for a in small_list:
            a_mask = a.mask
            a_neighbors = graph.neighbors(a_mask)
            for b in large_list:
                b_mask = b.mask
                if a_mask & b_mask:
                    continue
                if same_size and a_mask > b_mask:
                    continue
                if not a_neighbors & b_mask:
                    continue
                counters.note_pairs()
                yield a, b


@st.composite
def survivor_levels(draw):
    """A connected join graph and random survivor lists for every size.

    A size's list may be empty, and with a coin flip every JCR in it holds
    one shared relation, as every composite of a star holds the hub.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    names = [f"R{i}" for i in range(n)]
    joins = [
        (names[draw(st.integers(0, child - 1))], f"j{child}", names[child], "k")
        for child in range(1, n)
    ]
    for left, right in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4,
            unique=True,
        )
    ):
        if left != right:
            joins.append((names[left], f"x{right}", names[right], f"y{left}"))
    graph = JoinGraph(names, joins)
    shared = draw(st.integers(0, n - 1))
    levels = {}
    for size in range(1, n + 1):
        if draw(st.booleans()):
            others = [i for i in range(n) if i != shared]
            members = st.sets(
                st.sampled_from(others), min_size=size - 1, max_size=size - 1
            ).map(lambda rest: rest | {shared})
        else:
            members = st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
        masks = draw(
            st.lists(
                members.map(lambda rels: sum(1 << i for i in rels)),
                max_size=10,
                unique=True,
            )
        )
        levels[size] = [JCR(mask, 1.0, 0.0) for mask in masks]
    return graph, levels


def fresh_counters():
    return SearchCounters(SearchBudget.unlimited(), Timer().start())


@settings(max_examples=300, deadline=None)
@given(survivor_levels())
def test_level_pairs_equals_double_loop(case):
    graph, levels = case
    for target in range(2, graph.n + 1):
        expected_counters = fresh_counters()
        expected = list(scan_all_pairs(levels, target, graph, expected_counters))
        counters = fresh_counters()
        got = list(level_pairs(levels, target, graph, counters))
        assert [(a.mask, b.mask) for a, b in got] == [
            (a.mask, b.mask) for a, b in expected
        ]
        assert counters.enumerated_pairs == expected_counters.enumerated_pairs

