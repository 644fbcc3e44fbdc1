import io
import json

import numpy as np
import pytest

from qocd.ingest import (StructuralGraph, combine_reports,
                         count_information_events, filter_active, giant_scc,
                         parse_events, read_follow_edges, write_follow_edges)

from oracles import brute_force_sccs


def parse(*lines):
    return parse_events(io.StringIO("\n".join(lines)))


def test_parse_single_mention():
    log = parse('{"kind":"mention","actor":"a","ts":10,"target":"b"}')
    assert log.skipped == 0
    assert list(log.rows()) == [("mention", "a", 10, "b", ())]
    assert log.ids == ("a", "b")
    assert (log.kind.tolist(), log.actor.tolist(), log.target.tolist(),
            log.ts.tolist()) == ([1], [0], [1], [10])


def test_parse_empty_input():
    log = parse()
    assert len(log) == 0 and log.skipped == 0
    assert log.ids == () and log.tag_ptr.tolist() == [0]


def test_mention_without_target_is_skipped():
    log = parse('{"kind":"mention","actor":"a","ts":10}')
    assert len(log) == 0 and log.skipped == 1


def test_post_with_target_is_skipped():
    log = parse('{"kind":"post","actor":"a","ts":1,"target":"b"}')
    assert log.skipped == 1


def test_hashtags_normalized_and_validated():
    log = parse('{"kind":"post","actor":"a","ts":1,"hashtags":["#Green","ECO"]}')
    assert next(log.rows())[4] == ("green", "eco")
    assert log.tags == ("eco", "green") and log.tag_ids.tolist() == [1, 0]
    bad = parse('{"kind":"post","actor":"a","ts":1,"hashtags":["two words"]}')
    assert bad.skipped == 1


def test_parse_rejects_bad_ts_and_kind():
    log = parse(
        '{"kind":"post","actor":"a","ts":-1}',
        '{"kind":"unknown","actor":"a","ts":1}',
        'not json at all',
        '{"kind":"post","actor":"a","ts":true}',
        '{"kind":"post","actor":"a","ts":1.5}',
        '{"kind":"post","actor":"a","ts":9223372036854775808}',
        '{"kind":"post","actor":"","ts":1}',
        '{"kind":"post","actor":"a","ts":1,"hashtags":"green"}',
        '{"kind":"post","actor":"a","ts":1,"hashtags":["#"]}',
        '["kind","post"]',
        '{"kind":"post","actor":"a","ts":3}',
    )
    assert log.skipped == 10
    assert len(log) == 1


def graph_of(*edges, extra_nodes=()):
    return StructuralGraph.from_edges(edges, nodes=extra_nodes)


def test_structural_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        StructuralGraph.from_edges([("a", "a")])


@pytest.mark.parametrize("src", [
    np.array([2**32]),  # numpy would wrap it to node 0
    [2**32],
    [0.5],              # a fractional code
])
def test_structural_graph_rejects_codes_a_cast_would_change(src):
    with pytest.raises(ValueError):
        StructuralGraph(("a", "b"), src, [1])


class TestInformationEvents:
    graph = graph_of(("a", "b"), ("b", "a"))

    def test_single_mention(self):
        log = parse('{"kind":"mention","actor":"a","ts":0,"target":"b"}')
        counts = count_information_events(log, self.graph)
        assert counts.for_user("a") == (1, 0)
        assert counts.for_user("b") == (0, 1)

    def test_retweet_credits_original_author(self):
        # b retweets a's post: information flowed out of a, into b
        log = parse('{"kind":"retweet","actor":"b","ts":0,"target":"a"}')
        counts = count_information_events(log, self.graph)
        assert counts.for_user("a") == (1, 0)
        assert counts.for_user("b") == (0, 1)

    def test_out_of_network_events_ignored(self):
        log = parse('{"kind":"mention","actor":"a","ts":0,"target":"zz"}',
                    '{"kind":"retweet","actor":"zz","ts":0,"target":"a"}')
        counts = count_information_events(log, self.graph)
        assert counts.for_user("a") == (0, 0)
        assert counts.for_user("zz") == (0, 0)

    def test_posts_never_count(self):
        log = parse('{"kind":"post","actor":"a","ts":0}')
        counts = count_information_events(log, self.graph)
        assert counts.outgoing == {} and counts.incoming == {}


def counts_for(mapping):
    from qocd.ingest import InfoEventCounts
    return InfoEventCounts(outgoing={u: o for u, (o, _) in mapping.items()},
                           incoming={u: i for u, (_, i) in mapping.items()})


class TestFilterActive:
    def test_boundary_kept_and_removed(self):
        graph = graph_of(("a", "b"), ("b", "a"))
        counts = counts_for({"a": (9, 9), "b": (9, 8)})
        kept, report = filter_active(graph, counts, threshold=9)
        assert kept.nodes == ("a",)
        assert report.removed_inactive == frozenset({"b"})
        assert report.kept | report.removed_inactive == frozenset(graph.nodes)

    def test_threshold_zero_keeps_everything(self):
        graph = graph_of(("a", "b"), ("c", "d"))
        kept, report = filter_active(graph, counts_for({}), threshold=0)
        assert (kept.nodes, kept.edges) == (graph.nodes, graph.edges)
        assert report.removed_inactive == frozenset()

    def test_idempotent_at_fixed_counts(self):
        graph = graph_of(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"))
        counts = counts_for({"a": (10, 10), "b": (12, 12), "c": (1, 50)})
        once, _ = filter_active(graph, counts, 9)
        twice, _ = filter_active(once, counts, 9)
        assert (once.nodes, once.edges) == (twice.nodes, twice.edges)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_active(graph_of(("a", "b")), counts_for({}), -1)


class TestGiantScc:
    def test_cycle_plus_stray_edge(self):
        graph = graph_of(("a", "b"), ("b", "a"), ("c", "d"))
        kept, report = giant_scc(graph)
        assert kept.nodes == ("a", "b")
        assert report.removed_not_in_gscc == frozenset({"c", "d"})

    def test_fully_cyclic_graph_unchanged(self):
        graph = graph_of(("a", "b"), ("b", "c"), ("c", "a"))
        kept, _ = giant_scc(graph)
        assert (kept.nodes, kept.edges) == (graph.nodes, graph.edges)

    def test_tie_breaks_to_smallest_member(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        graph = graph_of(*edges)
        # oracle: enumerate the components by mutual reachability
        comps = brute_force_sccs(graph.nodes, edges)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]
        kept, _ = giant_scc(graph)
        assert kept.nodes == ("a", "b")

    def test_output_is_strongly_connected(self):
        import numpy as np
        rng = np.random.default_rng(3)
        nodes = [f"n{i}" for i in range(12)]
        edges = [(nodes[i], nodes[j])
                 for i in range(12) for j in range(12)
                 if i != j and rng.random() < 0.2]
        kept, _ = giant_scc(graph_of(*edges, extra_nodes=nodes))
        comps = brute_force_sccs(kept.nodes, kept.edges)
        assert len(comps) == 1 and comps[0] == frozenset(kept.nodes)

    def test_empty_graph_is_an_error(self):
        empty = StructuralGraph.from_edges([])
        with pytest.raises(ValueError, match="empty graph"):
            giant_scc(empty)


def test_combined_report_partitions_input_nodes():
    graph = graph_of(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("d", "e"))
    counts = counts_for({"a": (9, 9), "b": (9, 9), "c": (9, 9), "d": (0, 0)})
    active, rep1 = filter_active(graph, counts, 9)
    final, rep2 = giant_scc(active)
    merged = combine_reports(rep1, rep2)
    parts = [merged.kept, merged.removed_inactive, merged.removed_not_in_gscc]
    assert frozenset().union(*parts) == frozenset(graph.nodes)
    assert sum(len(p) for p in parts) == len(graph.nodes)
    payload = json.loads(merged.to_json())
    assert set(payload) == {"kept", "removed_inactive", "removed_not_in_gscc",
                            "thresholds"}


def test_kept_users_meet_thresholds_measured_prefilter():
    from qocd.synth import SynthConfig, generate

    log, graph, _ = generate(SynthConfig(
        nodes=40, communities=4, bins=60, p_in=0.5, p_out=0.05, rho=0.1,
        epsilon=0.2, mention_events=10, retweet_events=10, seed=14))
    counts = count_information_events(log, graph)
    active, _ = filter_active(graph, counts, 9)
    final, _ = giant_scc(active)
    for user in final.nodes:
        out_n, in_n = counts.for_user(user)
        assert out_n >= 9 and in_n >= 9


def test_follow_edges_roundtrip(tmp_path):
    graph = graph_of(("a", "b"), ("b", "c"), ("c", "a"))
    path = tmp_path / "follows.csv"
    write_follow_edges(graph, path)
    back = read_follow_edges(path)
    assert (back.nodes, back.edges) == (graph.nodes, graph.edges)
    # duplicate and self-loop rows are dropped quietly
    path.write_text("followee,follower\na,b\na,b\nc,c\n")
    assert read_follow_edges(path).edges == (("a", "b"),)
