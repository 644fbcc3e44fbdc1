import json

import numpy as np
import pytest

from qocd.communities import Covering
from qocd.edgestats import (EDGE_CLASSES, conditional_weights,
                            partition_edges, size_ccdf, weight_ccdf)
from qocd.weighting import WeightedDigraph

from oracles import (loop_conditional_weights, loop_partition_edges,
                     loop_weight_ccdf)


def cov(universe, *groups):
    return Covering(universe=frozenset(universe),
                    communities=tuple(frozenset(g) for g in groups))


def classify_edge(mu, mf):
    """The class of the edge u -> f under a covering that puts u in the
    communities named in ``mu`` and f in those named in ``mf``. Each
    community also holds a member of its own, so no two coincide, and an
    endpoint with an empty set is left out of the covering."""
    holders = {"u": mu, "f": mf}
    groups = [{"pad" + x} | {n for n, names in holders.items() if x in names}
              for x in sorted(mu | mf)]
    wg = WeightedDigraph.from_mapping({("u", "f"): 1.0}, "t")
    (code,) = partition_edges(wg, cov(set().union(*groups), *groups))
    return EDGE_CLASSES[code]


def median_low(values):
    """The median that ``conditional_weights`` reports for a class holding
    ``values``; an empty class has none."""
    wg = WeightedDigraph.from_mapping(
        {(f"n{i}", f"m{i}"): float(w) for i, w in enumerate(values)}, "t")
    summary = conditional_weights(wg, np.zeros(len(values), dtype=np.int8))
    median = summary["classes"]["inter"]["median"]
    if median is None:
        raise ValueError("no values")
    return median


class TestClassify:
    def test_identical_memberships(self):
        assert classify_edge(frozenset("A"), frozenset("A")) == "intra"

    def test_disjoint_memberships(self):
        assert classify_edge(frozenset("A"), frozenset("B")) == "inter"

    def test_partial_overlap(self):
        assert classify_edge(frozenset("AB"), frozenset("A")) == "mixed"

    def test_empty_membership_is_an_error(self):
        with pytest.raises(ValueError):
            classify_edge(frozenset(), frozenset("A"))

    def test_symmetry(self):
        rng = np.random.default_rng(40)
        labels = list("ABCDE")
        for _ in range(200):
            mu = frozenset(rng.choice(labels, size=int(rng.integers(1, 4)),
                                      replace=False))
            mf = frozenset(rng.choice(labels, size=int(rng.integers(1, 4)),
                                      replace=False))
            assert classify_edge(mu, mf) == classify_edge(mf, mu)


class TestPartition:
    def test_singleton_endpoints_are_inter(self):
        wg = WeightedDigraph.from_mapping({("a", "b"): 1.0}, "t")
        classes = partition_edges(wg, cov("ab"))
        assert [EDGE_CLASSES[c] for c in classes] == ["inter"]

    def test_one_community_makes_everything_intra(self):
        wg = WeightedDigraph.from_mapping({("a", "b"): 1.0, ("b", "c"): 1.0},
                                          "t")
        classes = partition_edges(wg, cov("abc", "abc"))
        assert [EDGE_CLASSES[c] for c in classes] == ["intra", "intra"]

    def test_three_way_example(self):
        wg = WeightedDigraph.from_mapping(
            {("a", "b"): 1.0, ("a", "c"): 1.0, ("a", "d"): 1.0}, "t")
        covering = cov("abcd", "ab", "ad", "cd")
        classes = dict(zip(wg.graph.edges, (
            EDGE_CLASSES[c] for c in partition_edges(wg, covering))))
        # a is in {ab},{ad}; b in {ab} only -> mixed
        assert classes[("a", "b")] == "mixed"
        # c is in {cd} only, sharing nothing with a -> inter
        assert classes[("a", "c")] == "inter"

    def test_node_without_membership_is_an_error(self):
        wg = WeightedDigraph.from_mapping({("a", "b"): 1.0}, "t")
        for partition in (partition_edges, loop_partition_edges):
            with pytest.raises(ValueError,
                               match="'b' has no covering membership"):
                partition(wg, cov("a"))

    def test_equals_the_membership_set_oracle(self):
        # overlapping, all-singleton, and covering universes larger than
        # the graph's node set
        rng = np.random.default_rng(42)
        for _ in range(300):
            nodes = [f"n{i:02d}" for i in range(int(rng.integers(2, 12)))]
            extra = rng.choice(12, size=int(rng.integers(0, 3)), replace=False)
            universe = nodes + [f"n{i:02d}x" for i in extra]  # interleaved
            weights = {(a, b): 1.0 for a in nodes for b in nodes
                       if a != b and rng.random() < 0.4}
            wg = WeightedDigraph.from_mapping(weights, "t", nodes)
            groups = set()
            for _ in range(int(rng.integers(0, 4))):
                size = int(rng.integers(2, len(universe) + 1))
                groups.add(frozenset(universe[i] for i in rng.choice(
                    len(universe), size=size, replace=False)))
            covering = cov(universe, *sorted(groups, key=sorted))
            classes = [EDGE_CLASSES[c] for c in partition_edges(wg, covering)]
            assert classes == loop_partition_edges(wg, covering)

    def test_totality_and_exclusivity(self):
        rng = np.random.default_rng(41)
        nodes = [f"n{i:02d}" for i in range(15)]
        weights = {(a, b): float(rng.random())
                   for a in nodes for b in nodes
                   if a != b and rng.random() < 0.3}
        wg = WeightedDigraph.from_mapping(weights, "t", nodes)
        covering = cov(nodes, nodes[:6], nodes[4:9])
        classes = partition_edges(wg, covering)
        assert len(classes) == len(wg.graph.edges)
        counts = {cls: 0 for cls in EDGE_CLASSES}
        for code in classes:
            counts[EDGE_CLASSES[code]] += 1
        assert sum(counts.values()) == len(wg.graph.edges)


class TestMedian:
    def test_odd_count(self):
        assert median_low([3, 1, 2]) == 2

    def test_even_count_takes_lower_middle(self):
        assert median_low([2, 1]) == 1
        assert median_low([4, 1, 3, 2]) == 2

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            median_low([])


class TestConditionalWeights:
    def wg_and_classes(self):
        weights = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 3.0,
                   ("a", "d"): 1.0, ("d", "a"): 2.0}
        wg = WeightedDigraph.from_mapping(weights, "t")
        by_edge = {("a", "b"): "intra", ("b", "c"): "intra",
                   ("c", "a"): "intra", ("a", "d"): "inter",
                   ("d", "a"): "inter"}
        return wg, np.array([EDGE_CLASSES.index(by_edge[e])
                             for e in wg.graph.edges], dtype=np.int8)

    def test_negative_zero_weight_is_stored_as_zero(self):
        wg = WeightedDigraph.from_mapping(
            {("a", "b"): -0.0, ("b", "a"): 0.0, ("a", "c"): 1.0,
             ("c", "a"): 0.5}, "t")
        assert not np.signbit(wg.values).any()
        intra = conditional_weights(wg, np.ones(4, dtype=np.int8))[
            "classes"]["intra"]
        (lowest, share), median = intra["ccdf"][0], intra["median"]
        assert (lowest, share, median) == (0.0, 0.5, 0.0)
        assert not np.signbit([lowest, median]).any()

    def test_medians_and_counts(self):
        wg, classes = self.wg_and_classes()
        report = conditional_weights(wg, classes)["classes"]
        intra, inter, mixed = (report[name]
                               for name in ("intra", "inter", "mixed"))
        assert (intra["count"], intra["median"]) == (3, 2.0)
        assert (inter["count"], inter["median"]) == (2, 1.0)  # lower middle
        assert (mixed["count"], mixed["median"]) == (0, None)
        total = sum(report[c]["count"] for c in EDGE_CLASSES)
        assert total == len(wg.weights)

    def test_histograms_share_bin_edges(self):
        wg, classes = self.wg_and_classes()
        report = conditional_weights(wg, classes, bins=10)["classes"]
        intra = report["intra"].get("histogram")
        inter = report["inter"].get("histogram")
        assert intra is not None and inter is not None
        assert intra["bin_edges"] == inter["bin_edges"]
        assert len(intra["bin_edges"]) == 11
        assert sum(intra["counts"]) == 3

    def test_missing_class_is_an_error(self):
        wg, classes = self.wg_and_classes()
        with pytest.raises(ValueError, match="4 edge classes for 5 edges"):
            conditional_weights(wg, classes[1:])

    def test_random_classes_give_similar_medians(self):
        # null case: class labels assigned at random, medians should sit
        # within the resampling spread of the global median
        rng = np.random.default_rng(42)
        nodes = [f"n{i:02d}" for i in range(30)]
        weights = {(a, b): float(rng.lognormal(0, 1))
                   for a in nodes for b in nodes if a != b}
        wg = WeightedDigraph.from_mapping(weights, "t")
        edges = wg.graph.edges
        values = np.array([weights[e] for e in edges])
        global_median = float(np.median(values))
        spreads = []
        for rep in range(50):
            assignment = rng.integers(0, 3, size=len(edges))
            meds = [float(np.median(values[assignment == c]))
                    for c in range(3)]
            spreads.append(max(abs(m - global_median) for m in meds))
        tolerance = 3 * max(spreads)
        assignment = rng.integers(0, 3, size=len(edges))
        report = conditional_weights(wg, assignment.astype(np.int8))
        for cls in EDGE_CLASSES:
            med = report["classes"][cls]["median"]
            assert med is not None
            assert abs(med - global_median) <= tolerance

    def test_summary_roundtrips_to_json(self):
        wg, classes = self.wg_and_classes()
        report = conditional_weights(wg, classes)
        payload = json.loads(json.dumps(report))
        assert payload["classes"]["intra"]["count"] == 3
        assert payload["classes"]["mixed"]["median"] is None

    def test_equals_the_list_based_oracle(self):
        # signed zeros side by side, equal weights, an empty class, a class
        # of one edge, and graphs with no edges at all
        rng = np.random.default_rng(43)
        pool = np.array([-0.0, 0.0, 0.5, 0.5, 1.0, 2.0])
        for trial in range(200):
            m = int(rng.integers(0, 40))
            values = np.where(rng.random(m) < 0.7,
                              rng.choice(pool, size=m), rng.random(m))
            codes = rng.integers(0, 3, size=m).astype(np.int8)
            if trial % 2 and m:
                empty, single = rng.permutation(3)[:2]
                codes[(codes == empty) | (codes == single)] = 3 - empty - single
                codes[int(rng.integers(0, m))] = single
            wg = WeightedDigraph.from_mapping(
                {(f"n{i}", f"m{i}"): float(w) for i, w in enumerate(values)},
                "t")
            bins = int(rng.integers(1, 8))
            names = [EDGE_CLASSES[c] for c in codes]
            assert json.dumps(conditional_weights(wg, codes, bins),
                              sort_keys=True) == json.dumps(
                loop_conditional_weights(wg, names, bins), sort_keys=True)


def test_detected_covering_concentrates_weight_inside():
    # partitioning a weighting by the covering detected on that same
    # weighting must put at least as much median weight inside communities
    # as across them
    from qocd.communities import detect_communities
    from qocd.synth import SynthConfig, generate
    from qocd.weighting import (mention_retweet_weights,
                                mention_share_weights, retweet_share_weights)

    log, graph, _ = generate(SynthConfig(
        nodes=40, communities=4, bins=60, p_in=0.5, p_out=0.08, rho=0.1,
        epsilon=0.2, mention_events=15, retweet_events=15, seed=15))
    wg = mention_retweet_weights(mention_share_weights(graph, log),
                                 retweet_share_weights(graph, log))
    covering = detect_communities(wg)
    classes = partition_edges(wg, covering)
    grouped = {cls: [] for cls in EDGE_CLASSES}
    for code, w in zip(classes, wg.values.tolist()):
        grouped[EDGE_CLASSES[code]].append(w)
    assert grouped["intra"] and grouped["inter"]
    assert median_low(grouped["intra"]) >= median_low(grouped["inter"])


class TestWeightCcdf:
    def test_strictly_greater_fractions(self):
        points = weight_ccdf([1.0, 1.0, 2.0, 3.0])
        assert points == ((1.0, 0.5), (2.0, 0.25), (3.0, 0.0))

    def test_empty(self):
        assert weight_ccdf([]) == ()
        assert loop_weight_ccdf([]) == ()

    def test_matches_loop_reference_with_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            size = int(rng.integers(1, 60))
            # few distinct values, so most weights are tied
            values = rng.integers(0, 8, size) / 4.0
            if rng.random() < 0.5:
                values = np.concatenate([values, rng.random(size)])
            assert weight_ccdf(values.tolist()) == \
                loop_weight_ccdf(values.tolist())


class TestSizeCcdf:
    def test_small_example(self):
        c = cov("abcdefghijk", "abc", "def", "ghijk")
        assert size_ccdf(c) == [(3, 1 / 3), (5, 0.0)]

    def test_single_community_hits_zero(self):
        c = cov("abc", "abc")
        assert size_ccdf(c) == [(3, 0.0)]

    def test_no_communities(self):
        assert size_ccdf(cov("ab")) == []

    def test_longer_tail_dominates_pointwise(self):
        def ccdf_at(points, s):
            value = 1.0
            for size, frac in points:
                if size <= s:
                    value = frac
            return value

        short = cov("abcdefgh", "ab", "cd", "ef", "gh")
        lettered = "abcdefghijklmnop"
        long_tail = cov(lettered, lettered[:2], lettered[2:8], lettered[8:])
        short_pts, long_pts = size_ccdf(short), size_ccdf(long_tail)
        for s in range(1, 10):
            assert ccdf_at(long_pts, s) >= ccdf_at(short_pts, s)
