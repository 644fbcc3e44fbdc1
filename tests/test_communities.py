import itertools

import numpy as np
import pytest

from qocd.communities import (Covering, FitnessParams, covering_stats,
                              detect_communities, read_covering,
                              write_covering)
from qocd.weighting import WeightedDigraph

from oracles import loop_detect_communities


def wdg(edge_weights, nodes=()):
    return WeightedDigraph.from_mapping(dict(edge_weights), "test", nodes)


def fitness(weights, members, alpha=1.0):
    """Reference fitness evaluation, straight from the definition."""
    w_in = sum(w for (a, b), w in weights.items()
               if a in members and b in members)
    w_bnd = sum(w for (a, b), w in weights.items()
                if (a in members) != (b in members))
    total = w_in + w_bnd
    return 0.0 if total <= 0 else w_in / total ** alpha


class TestCoveringType:
    def test_singletons_are_the_uncovered_nodes(self):
        c = Covering(universe=frozenset("abcde"),
                     communities=(frozenset("abc"), frozenset("cd")))
        assert c.universe == tuple("abcde")
        assert c.singletons == ("e",)
        # rows: the two communities, then e's singleton row
        assert c.sizes.tolist() == [3, 2, 1]
        assert c.rows[c.indptr[2]:c.indptr[3]].tolist() == [0, 1]  # c
        assert c.rows[c.indptr[4]:c.indptr[5]].tolist() == [2]  # e
        with pytest.raises(ValueError):
            c.rows[0] = 1
        assert c == Covering(universe=list("edcba"),
                             communities=c.communities)

    def test_every_node_has_a_membership(self):
        c = Covering(universe=frozenset("abcd"),
                     communities=(frozenset("ab"),))
        assert c.sizes.tolist() == [2, 1, 1]
        assert c.indptr.tolist() == [0, 1, 2, 3, 4]  # one row per node
        assert c.rows.tolist() == [0, 0, 1, 2]

    def test_rejects_tiny_and_duplicate_and_stray_communities(self):
        with pytest.raises(ValueError):
            Covering(universe=frozenset("ab"), communities=(frozenset("a"),))
        with pytest.raises(ValueError):
            Covering(universe=frozenset("ab"),
                     communities=(frozenset("ab"), frozenset("ab")))
        with pytest.raises(ValueError):
            Covering(universe=frozenset("ab"), communities=(frozenset("az"),))


class TestCoveringIO:
    def test_parse_with_complement_singletons(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("a b c\nc d\n")
        c = read_covering(path, frozenset("abcde"))
        assert sorted(sorted(x) for x in c.communities) == [["a", "b", "c"],
                                                            ["c", "d"]]
        assert c.singletons == ("e",)

    def test_empty_file_is_all_singletons(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("")
        c = read_covering(path, frozenset("ab"))
        assert c.communities == () and c.singletons == ("a", "b")

    def test_node_outside_universe_is_an_error(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="'b'"):
            read_covering(path, frozenset("a"))

    def test_comments_and_singleton_lines(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("# module 1\na b\nc\n")
        c = read_covering(path, frozenset("abc"))
        assert c.communities == (frozenset("ab"),)
        assert c.singletons == ("c",)

    def test_roundtrip(self, tmp_path):
        for communities in ((frozenset("abc"), frozenset("cd")), (),
                            (frozenset("ab"),)):
            c = Covering(universe=frozenset("abcde"), communities=communities)
            path = tmp_path / "cov.txt"
            write_covering(c, path)
            back = read_covering(path, c.universe)
            assert set(back.communities) == set(c.communities)
            assert back.singletons == c.singletons


class TestCoveringStats:
    def test_counts_exclude_singletons(self):
        c = Covering(universe=frozenset("abcdef"),
                     communities=(frozenset("ab"), frozenset("cde")))
        assert covering_stats(c) == {"communities": 2, "singletons": 1,
                                     "sizes": [2, 3]}

    def test_all_singletons(self):
        c = Covering(universe=frozenset("abcde"), communities=())
        stats = covering_stats(c)
        assert (stats["communities"], stats["singletons"]) == (0, 5)

    def test_one_community_covers_everything(self):
        c = Covering(universe=frozenset("abc"), communities=(frozenset("abc"),))
        stats = covering_stats(c)
        assert (stats["communities"], stats["singletons"]) == (1, 0)


def triangle_weights():
    w = {}
    for a, b, c in (("a", "b", "c"), ("d", "e", "f")):
        w[(a, b)] = 1.0
        w[(b, c)] = 1.0
        w[(c, a)] = 1.0
    return w


class TestDetect:
    def test_two_triangles_found_exactly(self):
        weights = triangle_weights()
        cov = detect_communities(wdg(weights))
        assert set(cov.communities) == {frozenset("abc"), frozenset("def")}
        # oracle: no subset of the six nodes beats the triangles' fitness
        best = max(fitness(weights, set(s))
                   for r in range(1, 7)
                   for s in itertools.combinations("abcdef", r))
        assert fitness(weights, set("abc")) == best
        assert fitness(weights, set("def")) == best

    def test_single_positive_edge(self):
        cov = detect_communities(wdg({("u", "f"): 1.0},
                                     nodes={"u", "f", "g", "h"}))
        assert cov.communities == (frozenset({"u", "f"}),)
        assert cov.singletons == ("g", "h")
        # oracle: brute force puts {u, f} at the global fitness maximum
        best = max(fitness({("u", "f"): 1.0}, set(s))
                   for r in range(1, 5)
                   for s in itertools.combinations("ufgh", r))
        assert fitness({("u", "f"): 1.0}, {"u", "f"}) == best == 1.0

    def test_all_zero_weights_warns_and_yields_singletons(self):
        with pytest.warns(UserWarning, match="no positive-weight"):
            cov = detect_communities(wdg({("a", "b"): 0.0, ("b", "c"): 0.0}))
        assert cov.communities == ()
        assert set(cov.singletons) == {"a", "b", "c"}

    def test_zero_weight_edges_are_invisible(self):
        weights = triangle_weights()
        weights[("c", "d")] = 0.0  # bridge carrying no weight
        cov = detect_communities(wdg(weights))
        assert set(cov.communities) == {frozenset("abc"), frozenset("def")}

    def test_every_community_is_a_local_fitness_maximum(self):
        rng = np.random.default_rng(20)
        nodes = [f"n{i:02d}" for i in range(16)]
        weights = {}
        for a in nodes:
            for b in nodes:
                if a < b and rng.random() < 0.3:
                    weights[(a, b)] = float(rng.uniform(0.1, 1.0))
        cov = detect_communities(wdg(weights, nodes=nodes))
        for comm in cov.communities:
            f0 = fitness(weights, set(comm))
            for node in set(nodes) - comm:
                assert fitness(weights, set(comm) | {node}) <= f0
            # only the protected seed may look removable in hindsight
            improving = [n for n in comm
                         if fitness(weights, set(comm) - {n}) > f0]
            assert len(improving) <= 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        nodes = [f"n{i:02d}" for i in range(12)]
        weights = {}
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.25:
                    weights[(a, b)] = float(rng.uniform(0.1, 1.0))
        cov = detect_communities(wdg(weights, nodes=nodes))
        relabel = lambda n: "x" + n  # order-preserving
        relabeled = {(relabel(a), relabel(b)): w for (a, b), w in weights.items()}
        cov2 = detect_communities(wdg(relabeled,
                                      nodes=[relabel(n) for n in nodes]))
        expected = {frozenset(relabel(n) for n in c) for c in cov.communities}
        assert set(cov2.communities) == expected

    def test_determinism(self):
        rng = np.random.default_rng(22)
        nodes = [f"n{i:02d}" for i in range(20)]
        weights = {}
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.2:
                    weights[(a, b)] = float(rng.uniform(0.0, 1.0))
        graph = wdg(weights, nodes=nodes)
        first = detect_communities(graph)
        second = detect_communities(graph)
        assert first.communities == second.communities

    def test_covering_ignores_edge_insertion_order(self):
        # the detector sums weights in edge order: with the weights inserted
        # in the second order, a set-ordered sum lost the {b, c, d, g} group
        rows = {("a", "e"): 2 / 3, ("a", "g"): 0.7, ("b", "c"): 0.1,
                ("c", "d"): 1 / 3, ("c", "e"): 0.1, ("c", "f"): 0.1,
                ("d", "g"): 2 / 3, ("f", "a"): 0.7, ("f", "g"): 0.2,
                ("g", "b"): 0.4, ("g", "c"): 0.1}
        order = "bc gc gb ae fa cf ag fg dg cd ce".split()
        shuffled = {(p[0], p[1]): rows[(p[0], p[1])] for p in order}
        assert list(shuffled) != sorted(rows) and shuffled == rows
        first = detect_communities(wdg(dict(sorted(rows.items()))))
        second = detect_communities(wdg(shuffled))
        assert first.communities == second.communities
        assert set(first.communities) == {frozenset("bcdg"),
                                          frozenset("abcdefg")}

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            FitnessParams(alpha=0.0)

    def test_higher_alpha_never_grows_communities(self):
        weights = triangle_weights()
        weights[("c", "d")] = 0.4
        loose = detect_communities(wdg(weights), FitnessParams(alpha=0.8))
        tight = detect_communities(wdg(weights), FitnessParams(alpha=1.5))
        assert max(len(c) for c in tight.communities) <= \
            max(len(c) for c in loose.communities)


TIED = (0.0, 0.25, 0.5, 1.0, 1.0 / 3.0)  # a zero weight among the ties


def random_weights(seed):
    """One seeded weighted graph: planted blocks or none, reciprocal pairs,
    tied or random weights, zero weights, isolated nodes, and every 40th
    table all zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    nodes = [f"v{i:02d}" for i in range(n)]
    block = rng.integers(int(rng.integers(1, 5)), size=n)
    p_in, p_out = rng.uniform(0.1, 0.7), rng.uniform(0.0, 0.15)
    tied = rng.random() < 0.5
    weights = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < (p_in if block[i] == block[j] else p_out):
                w = (TIED[rng.integers(len(TIED))] if tied
                     else 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 2.0))
                weights[(nodes[i], nodes[j])] = float(w)
    if seed % 40 == 0:
        weights = dict.fromkeys(weights, 0.0)
    isolated = [f"w{i}" for i in range(int(rng.integers(0, 3)))]
    return wdg(weights, nodes=nodes + isolated)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_detector_matches_the_loop_oracle(alpha):
    """Same communities in the same order as the dict-and-rescan detector,
    on 300 seeded graphs per alpha."""
    grown = 0
    for seed in range(300):
        wg = random_weights(seed)
        expected = loop_detect_communities(wg, alpha)
        if (wg.values > 0).any():
            found = detect_communities(wg, FitnessParams(alpha))
        else:
            with pytest.warns(UserWarning, match="no positive-weight"):
                found = detect_communities(wg, FitnessParams(alpha))
        assert found.communities == expected, seed
        grown += sum(len(c) > 3 for c in expected)
    assert grown > 50  # enough multi-step growth to exercise the link cache
