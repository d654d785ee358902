"""Tests for repro.skyline, including hypothesis property tests."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline import (
    dominates,
    naive_skyline,
    pairwise_union_skyline,
    sfs_skyline,
)

vectors_2d = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=0,
    max_size=40,
)

#: Option 1: the single projection onto the whole RCS vector.
FULL = ((0, 1, 2),)

vectors_3d = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=1,
    max_size=40,
)


# Coordinates that make float sums tie: 1e20 absorbs every small y (its
# ulp is 2**14), 1e20 + 2**14 is the next float up, and small values repeat.
small_floats = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=-8.0, max_value=8.0),
)
float_vectors_2d = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1e20, 1e20 + 2**14, 3e25]), small_floats),
        st.one_of(st.sampled_from([-5.0, -3.0, 0.0, 2.0]), small_floats),
    ),
    max_size=40,
)


def sfs_scan_2d(vectors):
    """2-D SFS that tests each candidate against every accepted vector."""
    order = sorted(range(len(vectors)), key=lambda i: sum(vectors[i]))
    accepted = []
    kept = []
    for i in order:
        cx, cy = vectors[i]
        for kx, ky in kept:
            if kx <= cx and ky <= cy and (kx < cx or ky < cy):
                break
        else:
            accepted.append(i)
            kept.append(vectors[i])
    return set(accepted)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1, 2), (2, 3))

    def test_partial_dominance(self):
        assert dominates((1, 3), (1, 4))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_incomparable(self):
        assert not dominates((1, 5), (5, 1))
        assert not dominates((5, 1), (1, 5))

    @given(vectors_2d.filter(lambda v: len(v) >= 2))
    def test_antisymmetric(self, vecs):
        a, b = vecs[0], vecs[1]
        assert not (dominates(a, b) and dominates(b, a))


class TestSkylineAlgorithms:
    def test_known_case(self):
        vecs = [(1, 4), (2, 2), (3, 3), (4, 1), (4, 4)]
        assert naive_skyline(vecs) == {0, 1, 3}

    def test_empty(self):
        assert naive_skyline([]) == set()
        assert sfs_skyline([]) == set()

    def test_single(self):
        assert naive_skyline([(5, 5)]) == {0}

    def test_duplicates_all_survive(self):
        vecs = [(1, 1), (1, 1), (9, 9)]
        assert naive_skyline(vecs) == {0, 1}
        assert sfs_skyline(vecs) == {0, 1}

    @given(vectors_2d)
    def test_sfs_equals_naive(self, vecs):
        assert sfs_skyline(vecs) == naive_skyline(vecs)

    @settings(max_examples=500)
    @given(float_vectors_2d)
    def test_sfs_staircase_equals_scan_on_float_ties(self, vecs):
        assert sfs_skyline(vecs) == sfs_scan_2d(vecs)

    def test_float_sum_tie_keeps_dominated_vector(self):
        # Both sums round to 1e20 and tie, so index 0 is accepted before
        # the vector that dominates it is seen.
        vecs = [(1e20, 0.0), (1e20, -5.0)]
        assert sfs_skyline(vecs) == {0, 1}
        assert sfs_scan_2d(vecs) == {0, 1}
        assert naive_skyline(vecs) == {1}

    @given(vectors_2d.filter(bool))
    def test_no_survivor_dominated(self, vecs):
        survivors = sfs_skyline(vecs)
        for i in survivors:
            assert not any(dominates(vecs[j], vecs[i]) for j in range(len(vecs)))

    @given(vectors_2d.filter(bool))
    def test_every_pruned_vector_dominated_by_survivor(self, vecs):
        survivors = sfs_skyline(vecs)
        for i in range(len(vecs)):
            if i not in survivors:
                assert any(dominates(vecs[j], vecs[i]) for j in survivors)

    @given(vectors_2d.filter(bool))
    def test_minimum_of_each_dimension_survives(self, vecs):
        survivors = sfs_skyline(vecs)
        for dim in range(2):
            best = min(v[dim] for v in vecs)
            assert any(vecs[i][dim] == best for i in survivors)

    @given(vectors_2d.filter(bool))
    def test_idempotent(self, vecs):
        survivors = sorted(sfs_skyline(vecs))
        again = sfs_skyline([vecs[i] for i in survivors])
        assert again == set(range(len(survivors)))


class TestMultiway:
    def test_option2_subset_of_option1_without_ties(self):
        vecs = [(1, 9, 3), (2, 8, 4), (3, 7, 5), (9, 1, 2), (5, 5, 9)]
        assert pairwise_union_skyline(vecs) <= pairwise_union_skyline(vecs, FULL)

    @given(vectors_3d)
    def test_union_members_survive_some_projection(self, vecs):
        union = pairwise_union_skyline(vecs)
        for i in union:
            in_some = False
            for dims in ((0, 1), (1, 2), (0, 2)):
                projected = [tuple(v[d] for d in dims) for v in vecs]
                if i in naive_skyline(projected):
                    in_some = True
                    break
            assert in_some

    @given(vectors_3d)
    def test_per_dimension_minimum_survives_option2(self, vecs):
        union = pairwise_union_skyline(vecs)
        for dim in range(3):
            best = min(v[dim] for v in vecs)
            assert any(vecs[i][dim] == best for i in union)

    def test_option1_keeps_more_generally(self):
        # A vector can survive the full skyline while losing every
        # pairwise projection.
        vecs = [(4, 4, 9), (9, 4, 4), (4, 9, 4), (5, 5, 5)]
        assert 3 in pairwise_union_skyline(vecs, FULL)
        assert 3 not in pairwise_union_skyline(vecs)

    def test_paper_worked_example(self):
        # Table 2.2: survivors 123, 125, 145, 156; JCR 135 pruned.
        vecs = [
            (187638, 49386, 3.9e-5),
            (122879, 52132, 1.0e-5),
            (242620, 56021, 1.0e-5),
            (241562, 55388, 6.65e-6),
            (385375, 52632, 4.5e-6),
        ]
        assert pairwise_union_skyline(vecs) == {0, 1, 3, 4}

    def test_custom_dimensions(self):
        vecs = [(1, 2, 9), (2, 1, 0)]
        only_rc = pairwise_union_skyline(vecs, dimensions=((0, 1),))
        assert only_rc == {0, 1}
