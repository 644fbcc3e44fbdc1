import io
import math

import numpy as np
import pytest

from qocd.ingest import StructuralGraph, parse_events
from qocd.weighting import (WeightedDigraph, cosine,
                            hashtag_similarity_weights, hashtag_tfidf_vectors,
                            mention_retweet_weights, mention_share_weights,
                            orphans, retweet_share_weights, structural_weights)


def log_of(*lines):
    return parse_events(io.StringIO("\n".join(lines)))


def mention(actor, target, ts=0):
    return f'{{"kind":"mention","actor":"{actor}","ts":{ts},"target":"{target}"}}'


def retweet(actor, target, ts=0):
    return f'{{"kind":"retweet","actor":"{actor}","ts":{ts},"target":"{target}"}}'


def tagged_post(actor, tags, ts=0):
    tag_json = ",".join(f'"{t}"' for t in tags)
    return f'{{"kind":"post","actor":"{actor}","ts":{ts},"hashtags":[{tag_json}]}}'


GRAPH = StructuralGraph.from_edges([("u", "f"), ("v", "f"), ("f", "u")])


def test_structural_weights_are_all_one():
    wg = structural_weights(GRAPH)
    assert set(wg.weights.values()) == {1.0}
    assert sum(wg.weights.values()) == len(GRAPH.edges)
    empty = StructuralGraph.from_edges([])
    assert structural_weights(empty).weights == {}


class TestRetweetShare:
    def test_direct_ratio(self):
        lines = [retweet("f", "u")] * 3 + [retweet("f", "v")] * 7
        wg = retweet_share_weights(GRAPH, log_of(*lines))
        assert wg.weights[("u", "f")] == pytest.approx(0.3)
        assert wg.weights[("v", "f")] == pytest.approx(0.7)

    def test_no_retweets_means_zero(self):
        wg = retweet_share_weights(GRAPH, log_of())
        assert set(wg.weights.values()) == {0.0}

    def test_exclusive_retweeter_reaches_one(self):
        wg = retweet_share_weights(GRAPH, log_of(retweet("f", "u")))
        assert wg.weights[("u", "f")] == 1.0

    def test_in_edge_shares_sum_to_at_most_one(self):
        rng = np.random.default_rng(1)
        lines = []
        for _ in range(40):
            actor = ("f", "u")[int(rng.integers(2))]
            target = ("u", "v", "f")[int(rng.integers(3))]
            if actor != target:
                lines.append(retweet(actor, target))
        wg = retweet_share_weights(GRAPH, log_of(*lines))
        for node in GRAPH.nodes:
            total = sum(w for (_, u), w in wg.weights.items() if u == node)
            assert total <= 1.0 + 1e-12


class TestMentionShare:
    def test_direct_ratio(self):
        lines = [mention("u", "f")] * 2 + [mention("v", "f")] * 6
        wg = mention_share_weights(GRAPH, log_of(*lines))
        assert wg.weights[("u", "f")] == pytest.approx(0.25)
        assert wg.weights[("v", "f")] == pytest.approx(0.75)

    def test_never_mentioned_means_zero(self):
        wg = mention_share_weights(GRAPH, log_of())
        assert set(wg.weights.values()) == {0.0}

    def test_sole_mentioner_reaches_one(self):
        wg = mention_share_weights(GRAPH, log_of(mention("u", "f")))
        assert wg.weights[("u", "f")] == 1.0


def mention_retweet(graph, log):
    return mention_retweet_weights(mention_share_weights(graph, log),
                                   retweet_share_weights(graph, log))


def test_mention_retweet_is_the_arithmetic_mean():
    log = log_of(*([mention("u", "f")] * 2 + [mention("v", "f")] * 6
                   + [retweet("f", "u")] * 3 + [retweet("f", "v")] * 7))
    wg = mention_retweet(GRAPH, log)
    assert wg.weights[("u", "f")] == pytest.approx((0.25 + 0.3) / 2)
    assert wg.weights[("f", "u")] == 0.0
    only = mention_retweet(GRAPH, log_of(mention("u", "f"), retweet("f", "u")))
    assert only.weights[("u", "f")] == 1.0


def test_mention_retweet_rejects_shares_on_different_graphs():
    log = log_of(mention("u", "f"), retweet("f", "u"))
    other = StructuralGraph.from_edges([("u", "f")])
    with pytest.raises(ValueError, match="different graphs"):
        mention_retweet_weights(mention_share_weights(GRAPH, log),
                                retweet_share_weights(other, log))


class TestHashtagVectors:
    def test_tfidf_formula(self):
        nodes = {"a", "b", "c", "d"}
        lines = [tagged_post("a", ["go"])] * 5 + [tagged_post("b", ["go"])]
        vectors = hashtag_tfidf_vectors(log_of(*lines), nodes)
        assert vectors["a"]["go"] == pytest.approx(5 * math.log(2))
        assert vectors["b"]["go"] == pytest.approx(math.log(2))

    def test_universal_tag_scores_zero(self):
        nodes = {"a", "b"}
        lines = [tagged_post("a", ["everyone"]), tagged_post("b", ["everyone"])]
        vectors = hashtag_tfidf_vectors(log_of(*lines), nodes)
        assert vectors["a"] == {}

    def test_user_without_hashtags_has_empty_vector(self):
        vectors = hashtag_tfidf_vectors(log_of(tagged_post("a", ["x"])),
                                        {"a", "b"})
        assert vectors["b"] == {}

    def test_no_users_is_an_error(self):
        with pytest.raises(ValueError):
            hashtag_tfidf_vectors(log_of(), set())

    def test_repeated_users_are_an_error(self):
        # a repeat would count toward N: idf ln 3 where ["a", "b"] gives ln 2
        with pytest.raises(ValueError, match="unique"):
            hashtag_tfidf_vectors(log_of(tagged_post("a", ["x"])),
                                  ["a", "a", "b"])


class TestCosine:
    def test_identical_vectors(self):
        v = {"x": 2.0, "y": 1.0}
        assert cosine(v, v) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        a, b = {"x": 1.0}, {"y": 1.0}
        assert cosine(a, b) == 0.0

    def test_half_overlap(self):
        a, b = {"x": 1.0, "y": 1.0}, {"x": 1.0, "z": 1.0}
        assert cosine(a, b) == pytest.approx(0.5)

    def test_zero_vector(self):
        a, b = {}, {"x": 1.0}
        assert cosine(a, b) == 0.0


def test_hashtag_weights_are_log_base_invariant():
    rng = np.random.default_rng(4)
    users = [f"h{i}" for i in range(12)]
    edges = [(a, b) for a in users for b in users
             if a != b and rng.random() < 0.3]
    graph = StructuralGraph.from_edges(edges, nodes=users)
    tags = ["alpha", "beta", "gamma", "delta"]
    lines = []
    for user in users:
        for _ in range(int(rng.integers(0, 6))):
            lines.append(tagged_post(user, [tags[int(rng.integers(len(tags)))]]))
    log = log_of(*lines)
    w_e = hashtag_similarity_weights(
        graph, hashtag_tfidf_vectors(log, graph.nodes, log_base=math.e))
    w_2 = hashtag_similarity_weights(
        graph, hashtag_tfidf_vectors(log, graph.nodes, log_base=2.0))
    for edge in graph.edges:
        assert w_e.weights[edge] == pytest.approx(w_2.weights[edge], abs=1e-12)


def test_weights_live_on_the_structural_edge_set():
    log = log_of(mention("u", "f"), retweet("f", "u"),
                 tagged_post("u", ["q"]), tagged_post("f", ["q"]))
    for wg in (structural_weights(GRAPH),
               mention_share_weights(GRAPH, log),
               retweet_share_weights(GRAPH, log),
               mention_retweet(GRAPH, log),
               hashtag_similarity_weights(
                   GRAPH, hashtag_tfidf_vectors(log, GRAPH.nodes))):
        assert wg.graph.edges == GRAPH.edges
        assert all(0.0 <= w <= 1.0 for w in wg.weights.values())


class TestOrphans:
    def test_all_zero_incident_weights(self):
        wg = WeightedDigraph.from_mapping({("a", "b"): 0.0, ("b", "c"): 0.5},
                                          scheme="t")
        assert orphans(wg) == frozenset({"a"})

    def test_one_positive_edge_saves_both_endpoints(self):
        wg = WeightedDigraph.from_mapping({("a", "b"): 0.1}, scheme="t")
        assert orphans(wg) == frozenset()

    def test_structural_weighting_has_no_orphans(self):
        assert orphans(structural_weights(GRAPH)) == frozenset()


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        WeightedDigraph.from_mapping({("a", "b"): -0.1}, scheme="bad")


def test_one_weight_per_edge():
    with pytest.raises(ValueError, match="2 weights for 1 edges"):
        WeightedDigraph(StructuralGraph.from_edges([("a", "b")]), [1.0, 2.0],
                        "bad")


def test_complex_weights_rejected():
    # numpy would drop a zero imaginary part with a warning, or raise
    # TypeError on a Python complex
    with pytest.raises(ValueError, match="complex"):
        WeightedDigraph.from_mapping({("a", "b"): 1 + 0j}, scheme="bad")
    with pytest.raises(ValueError, match="complex"):
        WeightedDigraph(StructuralGraph.from_edges([("a", "b")]),
                        np.array([1 + 0j]), "bad")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_weights_rejected(bad):
    # an infinite weight made every fitness it touched NaN in detection
    with pytest.raises(ValueError, match="finite non-negative"):
        WeightedDigraph.from_mapping({("a", "b"): bad, ("b", "a"): 1.0},
                                     scheme="bad")
