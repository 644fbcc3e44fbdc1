import time

import numpy as np
import pytest

from qocd.communities import Covering
from qocd.compare import nmi, nmi_matrix

from oracles import (conditional_term, dense_nmi, membership_matrix,
                     pair_entropies, reference_nmi)


def cov(universe, *groups):
    return Covering(universe=frozenset(universe),
                    communities=tuple(frozenset(g) for g in groups))


def random_covering(rng, n):
    ids = [f"n{i:02d}" for i in range(n)]
    groups = []
    for _ in range(int(rng.integers(0, 5))):
        size = int(rng.integers(2, max(3, n // 2 + 1)))
        members = frozenset(ids[i] for i in
                            rng.choice(n, size=min(size, n), replace=False))
        if members not in groups:
            groups.append(members)
    return Covering(universe=frozenset(ids), communities=tuple(groups))


def skewed_covering(rng, n):
    """Up to two communities of 2..n-1 nodes; every other node a singleton."""
    ids = [f"n{i:02d}" for i in range(n)]
    groups = []
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(2, n)) if n > 2 else 2
        members = frozenset(ids[i] for i in
                            rng.choice(n, size=size, replace=False))
        if members not in groups:
            groups.append(members)
    return Covering(universe=frozenset(ids), communities=tuple(groups))


def singletons(n):
    return Covering(universe=frozenset(f"v{i:05d}" for i in range(n)),
                    communities=())


# The dense helpers below live in tests/oracles.py; nmi must agree with the
# dense evaluation built from them exactly.


class TestPairEntropies:
    def test_identical_half_ones(self):
        pe = pair_entropies([1, 1, 0, 0], [1, 1, 0, 0])
        assert (pe.h11, pe.h00) == (0.5, 0.5)
        assert (pe.h01, pe.h10) == (0.0, 0.0)
        assert pe.hx == pe.hy == 1.0

    def test_complementary_rows(self):
        pe = pair_entropies([1, 1, 0, 0], [0, 0, 1, 1])
        assert (pe.h01, pe.h10) == (0.5, 0.5)
        assert (pe.h11, pe.h00) == (0.0, 0.0)

    def test_degenerate_row(self):
        pe = pair_entropies([0, 0, 0], [1, 0, 1])
        assert pe.hx == 0.0

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            pair_entropies([1, 0], [1, 0, 1])
        with pytest.raises(ValueError):
            pair_entropies([], [])


class TestConditionalTerm:
    def test_perfect_match_gives_zero(self):
        assert conditional_term([1, 1, 0, 0],
                                [[0, 1, 1, 0], [1, 1, 0, 0]]) == 0.0

    def test_cross_partition_rows_are_inadmissible(self):
        # {1,2} of four nodes against the covering {{1,3},{2,4}}
        term = conditional_term([1, 1, 0, 0], [[1, 0, 1, 0], [0, 1, 0, 1]])
        assert term == 1.0

    def test_degenerate_row_contributes_zero(self):
        assert conditional_term([1, 1, 1, 1], [[1, 0, 1, 0]]) == 0.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            row = (rng.random(n) < 0.4).astype(int)
            others = (rng.random((3, n)) < 0.5).astype(int)
            term = conditional_term(row.tolist(), others.tolist())
            assert 0.0 <= term <= 1.0


class TestMembershipMatrix:
    def test_rows_cover_every_node(self):
        c = cov("abcde", "abc", "cd")
        m = membership_matrix(c)
        assert m.shape == (3, 5)  # two communities + singleton e
        assert (m.sum(axis=0) >= 1).all()

    def test_singleton_rows_have_one_entry(self):
        c = cov("abc")
        m = membership_matrix(c)
        assert m.shape == (3, 3)
        assert (m.sum(axis=1) == 1).all()


class TestNmi:
    def test_identical_up_to_label_order(self):
        a = cov("abcdef", "abc", "def")
        b = cov("abcdef", "def", "abc")
        assert nmi(a, b) == 1.0

    def test_cross_partition_is_zero(self):
        a = cov("1234", "12", "34")
        b = cov("1234", "13", "24")
        assert nmi(a, b) == 0.0

    def test_reflexivity(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            c = random_covering(rng, int(rng.integers(4, 30)))
            assert nmi(c, c) == 1.0

    def test_split_community_lands_strictly_between(self):
        whole = cov("abcdefgh", "abcd", "efgh")
        split = cov("abcdefgh", "ab", "cd", "efgh")
        value = nmi(whole, split)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(reference_nmi(whole, split), abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            a = random_covering(rng, n)
            b = random_covering(rng, n)
            assert nmi(a, b) == pytest.approx(reference_nmi(a, b), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            n = int(rng.integers(2, 50))
            a = random_covering(rng, n)
            b = random_covering(rng, n)
            ab, ba = nmi(a, b), nmi(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= 1.0

    def test_universe_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            nmi(cov("abc"), cov("abd"))

    def test_empty_coverings_are_an_error(self):
        with pytest.raises(ValueError, match="coverings must be non-empty"):
            nmi(cov(""), cov(""))


class TestSparseNmiAgainstDenseOracle:
    def test_random_pairs_are_bit_identical(self):
        rng = np.random.default_rng(34)
        for i in range(2400):
            n = int(rng.integers(2, 60))
            make = random_covering if i % 2 else skewed_covering
            a, b = make(rng, n), make(rng, n)
            assert nmi(a, b) == dense_nmi(a, b)

    @pytest.mark.parametrize("x, y", [
        (cov("a"), cov("a")),
        (cov("abcde", "abcde"), cov("abcde")),
        (cov("abcde", "abcde"), cov("abcde", "abc")),
        (singletons(50), singletons(50)),
        (cov("abcdefgh", "abcdefg"), cov("abcdefgh")),
        (cov("abcdefgh", "abcdefg"), cov("abcdefgh", "ab", "cdefgh")),
        # every size-2 row of y meets the x row abcd
        (cov("abcdefgh", "abcd"), cov("abcdefgh", "ab", "cd", "efgh")),
    ])
    def test_edge_cases(self, x, y):
        assert nmi(x, y) == dense_nmi(x, y)
        assert nmi(y, x) == dense_nmi(y, x)

    def test_skips_a_size_whose_rows_all_meet_the_row(self):
        # a singleton inside the 89-node community meets the only row of
        # size 89; the disjoint (1, 89) cell would score better than the
        # real overlap, so it must not be used for that singleton
        small = singletons(100)
        ids = sorted(small.universe)
        big = Covering(universe=small.universe,
                       communities=(frozenset(ids[:89]),))
        assert nmi(small, big) == dense_nmi(small, big)
        assert nmi(small, big) == pytest.approx(reference_nmi(small, big),
                                                abs=1e-12)

    @pytest.mark.parametrize("other, expected", [("singletons", 1.0),
                                                 ("one community", 0.5)])
    def test_large_singleton_covering_is_fast(self, other, expected):
        # a singleton given the whole-universe row is unexplained (term 1);
        # that row has zero entropy (term 0), so the NMI is exactly 0.5
        x = singletons(8000)
        y = x if other == "singletons" else Covering(
            universe=x.universe, communities=(frozenset(x.universe),))
        start = time.perf_counter()
        value = nmi(x, y)
        assert time.perf_counter() - start < 1.0
        assert value == expected


def test_nmi_matrix_is_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(33)
    coverings = {f"c{i}": random_covering(rng, 20) for i in range(4)}
    labels, matrix = nmi_matrix(coverings)
    assert labels == sorted(coverings)
    assert np.allclose(matrix, matrix.T)
    assert (np.diag(matrix) == 1.0).all()


def test_nmi_matrix_entries_equal_pairwise_nmi():
    rng = np.random.default_rng(35)
    coverings = {f"c{i}": skewed_covering(rng, 30) for i in range(4)}
    labels, matrix = nmi_matrix(coverings)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            first, second = sorted((a, b))
            assert matrix[i, j] == nmi(coverings[first], coverings[second])
