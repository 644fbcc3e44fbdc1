import io
import json

import numpy as np
import pytest

from qocd.cli import main
from qocd.ingest import (MENTION, RETWEET, StructuralGraph,
                         count_information_events, filter_active, giant_scc,
                         information_flow, parse_events, read_follow_edges,
                         write_follow_edges)
from qocd.ingest import _exact_cast

from oracles import brute_force_sccs, event_rows


def parse(*lines):
    return parse_events(io.StringIO("\n".join(lines)))


def test_parse_single_mention():
    log = parse('{"kind":"mention","actor":"a","ts":10,"target":"b"}')
    assert log.skipped == 0
    assert event_rows(log) == [("mention", "a", 10, "b", ())]
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
    assert event_rows(log)[0][4] == ("green", "eco")
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


@pytest.mark.parametrize("column", [
    np.array([1, 2], dtype=np.int32),  # the dtype, writable: copied
    np.array([1.0, 2.0]),              # another dtype: cast
    [1, 2],                            # a list: cast
])
def test_exact_cast_returns_a_read_only_copy(column):
    cast = _exact_cast(column, np.int32)
    assert cast.dtype == np.int32 and cast.tolist() == [1, 2]
    assert not cast.flags.writeable
    assert not np.shares_memory(cast, column)


def test_read_only_view_of_a_writable_array_is_copied():
    src = np.array([0], dtype=np.int32)
    view = src.view()
    view.flags.writeable = False
    g = StructuralGraph(("a", "b"), view, [1])
    chained = StructuralGraph(("a", "b"), view[:], [1])  # two read-only links
    src[0] = 1
    assert g.edges == chained.edges == (("a", "b"),)


def test_read_only_arrays_that_view_no_writable_array_are_kept():
    owned = np.array([0], dtype=np.int32)
    owned.flags.writeable = False
    assert _exact_cast(owned, np.int32) is owned
    log = parse('{"kind":"post","actor":"a","ts":1}')  # _frozen's buffers
    assert not isinstance(log.ts.base, np.ndarray)
    assert _exact_cast(log.ts, np.int64) is log.ts


@pytest.mark.parametrize("src", [
    np.array([2**32]),  # numpy would wrap it to node 0
    [2**32],
    [0.5],              # a fractional code
    np.array([0j]),     # numpy would warn and drop the imaginary part
])
def test_structural_graph_rejects_codes_a_cast_would_change(src):
    with pytest.raises(ValueError):
        StructuralGraph(("a", "b"), src, [1])


@pytest.mark.parametrize("nodes, src, dst, message", [
    (("b", "a"), [], [], "sorted and unique"),
    (("a", "b"), [0, 1], [1], "equal length"),
    (("a", "b"), [0], [2], "outside the node set"),
    (("a", "b", "c"), [1, 0], [2, 1], "sorted by"),
    (("a", "b"), [0, 0], [1, 1], "without duplicates"),
], ids=["unsorted-nodes", "ragged", "endpoint-out-of-range", "unsorted-edges",
        "repeated-edge"])
def test_structural_graph_rejects_bad_arrays(nodes, src, dst, message):
    with pytest.raises(ValueError, match=message):
        StructuralGraph(nodes, src, dst)


@pytest.mark.parametrize("keep", [
    ["a", "b"],                      # names, not a mask
    np.array([True, False]),         # one entry short
    np.array([1, 0, 1]),             # codes, not bools
], ids=["names", "short-mask", "int-mask"])
def test_subgraph_takes_only_a_bool_mask_over_the_nodes(keep):
    graph = graph_of(("a", "b"), ("b", "c"))
    with pytest.raises(ValueError, match="bool mask of 3 nodes"):
        graph.subgraph(keep)


@pytest.mark.parametrize("blank", ["", "   ", "\t \r"])
def test_blank_lines_are_neither_parsed_nor_counted(blank):
    log = parse(blank, '{"kind":"post","actor":"a","ts":3}', blank)
    assert len(log) == 1 and log.skipped == 0


class TestInformationEvents:
    graph = graph_of(("a", "b"), ("b", "a"))

    def counts(self, log):
        """user -> (outgoing, incoming), read from the two count arrays."""
        outgoing, incoming = count_information_events(log, self.graph)
        assert outgoing.dtype == incoming.dtype == np.int64
        return dict(zip(self.graph.nodes,
                        zip(outgoing.tolist(), incoming.tolist())))

    def test_single_mention(self):
        log = parse('{"kind":"mention","actor":"a","ts":0,"target":"b"}')
        counts = self.counts(log)
        assert counts["a"] == (1, 0)
        assert counts["b"] == (0, 1)

    def test_retweet_credits_original_author(self):
        # b retweets a's post: information flowed out of a, into b
        log = parse('{"kind":"retweet","actor":"b","ts":0,"target":"a"}')
        counts = self.counts(log)
        assert counts["a"] == (1, 0)
        assert counts["b"] == (0, 1)

    def test_out_of_network_events_ignored(self):
        log = parse('{"kind":"mention","actor":"a","ts":0,"target":"zz"}',
                    '{"kind":"retweet","actor":"zz","ts":0,"target":"a"}')
        # zz is no graph node, so it gets no count at all
        assert self.counts(log) == {"a": (0, 0), "b": (0, 0)}

    def test_posts_never_count(self):
        log = parse('{"kind":"post","actor":"a","ts":0}')
        counts = self.counts(log)
        assert counts == {"a": (0, 0), "b": (0, 0)}


def test_information_flow_runs_from_source_to_receiver():
    # a mentions b; c retweets b's post, so b's post flows to c; the post
    # and the mention of x, no node, carry nothing between nodes
    log = parse('{"kind":"post","actor":"b","ts":0}',
                '{"kind":"mention","actor":"a","ts":1,"target":"b"}',
                '{"kind":"mention","actor":"a","ts":2,"target":"x"}',
                '{"kind":"retweet","actor":"c","ts":3,"target":"b"}')
    kind, source, receiver = information_flow(log, ("c", "b", "a"))
    assert kind.tolist() == [MENTION, RETWEET]
    assert source.tolist() == [2, 1]  # positions in the nodes given: a, b
    assert receiver.tolist() == [1, 0]  # b, c


def counts_for(graph, mapping):
    """(outgoing, incoming) arrays in ``graph.nodes`` order from a
    user -> (outgoing, incoming) mapping; users not in it count 0."""
    pairs = np.array([mapping.get(node, (0, 0)) for node in graph.nodes],
                     dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


class TestFilterActive:
    def test_boundary_kept_and_removed(self):
        graph = graph_of(("a", "b"), ("b", "a"))
        counts = counts_for(graph, {"a": (9, 9), "b": (9, 8)})
        kept = filter_active(graph, counts, threshold=9)
        assert kept.nodes == ("a",)
        assert frozenset(graph.nodes) - frozenset(kept.nodes) == frozenset({"b"})
        assert frozenset(kept.nodes) <= frozenset(graph.nodes)

    def test_threshold_zero_keeps_everything(self):
        graph = graph_of(("a", "b"), ("c", "d"))
        kept = filter_active(graph, counts_for(graph, {}), threshold=0)
        assert (kept.nodes, kept.edges) == (graph.nodes, graph.edges)
        assert frozenset(graph.nodes) - frozenset(kept.nodes) == frozenset()

    def test_idempotent_at_fixed_counts(self):
        graph = graph_of(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"))
        mapping = {"a": (10, 10), "b": (12, 12), "c": (1, 50)}
        once = filter_active(graph, counts_for(graph, mapping), 9)
        twice = filter_active(once, counts_for(once, mapping), 9)
        assert (once.nodes, once.edges) == (twice.nodes, twice.edges)

    def test_negative_threshold_rejected(self):
        graph = graph_of(("a", "b"))
        with pytest.raises(ValueError):
            filter_active(graph, counts_for(graph, {}), -1)


class TestGiantScc:
    def test_cycle_plus_stray_edge(self):
        graph = graph_of(("a", "b"), ("b", "a"), ("c", "d"))
        kept = giant_scc(graph)
        assert kept.nodes == ("a", "b")
        assert frozenset(graph.nodes) - frozenset(kept.nodes) == frozenset(
            {"c", "d"})

    def test_fully_cyclic_graph_unchanged(self):
        graph = graph_of(("a", "b"), ("b", "c"), ("c", "a"))
        kept = giant_scc(graph)
        assert (kept.nodes, kept.edges) == (graph.nodes, graph.edges)

    def test_tie_breaks_to_smallest_member(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        graph = graph_of(*edges)
        # oracle: enumerate the components by mutual reachability
        comps = brute_force_sccs(graph.nodes, edges)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]
        kept = giant_scc(graph)
        assert kept.nodes == ("a", "b")

    def test_output_is_strongly_connected(self):
        import numpy as np
        rng = np.random.default_rng(3)
        nodes = [f"n{i}" for i in range(12)]
        edges = [(nodes[i], nodes[j])
                 for i in range(12) for j in range(12)
                 if i != j and rng.random() < 0.2]
        kept = giant_scc(graph_of(*edges, extra_nodes=nodes))
        comps = brute_force_sccs(kept.nodes, kept.edges)
        assert len(comps) == 1 and comps[0] == frozenset(kept.nodes)

    def test_empty_graph_is_an_error(self):
        empty = StructuralGraph.from_edges([])
        with pytest.raises(ValueError, match="empty graph"):
            giant_scc(empty)


def test_combined_report_partitions_input_nodes(tmp_path):
    # the ingest command's filter_report.json over this follow graph
    graph = graph_of(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("d", "e"))
    write_follow_edges(graph, tmp_path / "follows.csv")
    # a, b and c each make and receive 9 mentions; d and e none
    (tmp_path / "events.jsonl").write_text("".join(
        json.dumps({"kind": "mention", "actor": a, "ts": ts, "target": b})
        + "\n" for a, b in (("a", "b"), ("b", "c"), ("c", "a"))
        for ts in range(9)))
    assert main(["ingest", "-i", str(tmp_path), "-o", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "filter_report.json").read_text())
    parts = [frozenset(payload[name]) for name in
             ("kept", "removed_inactive", "removed_not_in_gscc")]
    assert frozenset().union(*parts) == frozenset(graph.nodes)
    assert sum(len(p) for p in parts) == len(graph.nodes)
    assert set(payload) == {"kept", "removed_inactive", "removed_not_in_gscc",
                            "thresholds"}


def test_kept_users_meet_thresholds_measured_prefilter():
    from qocd.synth import SynthConfig, generate

    log, graph, _ = generate(SynthConfig(
        nodes=40, communities=4, bins=60, p_in=0.5, p_out=0.05, rho=0.1,
        epsilon=0.2, mention_events=10, retweet_events=10, seed=14))
    counts = count_information_events(log, graph)
    active = filter_active(graph, counts, 9)
    final = giant_scc(active)
    measured = dict(zip(graph.nodes, zip(*(c.tolist() for c in counts))))
    for user in final.nodes:
        out_n, in_n = measured[user]
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
