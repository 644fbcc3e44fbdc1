"""The columnar event log: its invariants, its size, and every consumer
against the record-by-record loops in ``oracles``."""

import io
import json

import numpy as np
import pytest

from qocd.activity import batch_coarsen
from qocd.ingest import (EventLog, StructuralGraph, count_information_events,
                         parse_events)
from qocd.synth import SynthConfig, generate
from qocd.weighting import (hashtag_tfidf_vectors, mention_share_weights,
                            retweet_share_weights)

from oracles import (loop_coarsen, loop_information_counts, loop_share,
                     loop_tfidf)

INSIDE = ["a", "b", "c", "d", "e", "f"]
OUTSIDE = ["x", "zz"]  # in the log, never in the graph
TAGS = ["Go", "#go", "eco", "#ECO", "x1"]


def random_case(rng):
    """(records, graph): a seeded random log of valid records over graph
    nodes and outsiders, and a follow graph on the inside ids."""
    edges = [(v, u) for v in INSIDE for u in INSIDE
             if v != u and rng.random() < 0.3]
    graph = StructuralGraph.from_edges(edges, nodes=INSIDE)
    people = INSIDE + OUTSIDE
    posters = INSIDE[:4] + OUTSIDE  # so some users never post
    records = []
    for _ in range(int(rng.integers(0, 40))):
        kind = ("post", "mention", "retweet")[int(rng.integers(3))]
        actors = posters if kind == "post" else people
        rec = {"kind": kind, "ts": int(rng.integers(0, 5000)),
               "actor": actors[int(rng.integers(len(actors)))]}
        if kind == "post":
            # tags drawn with repeats, so one post may repeat a tag
            rec["hashtags"] = [TAGS[int(t)] for t in
                               rng.integers(0, len(TAGS), rng.integers(0, 4))]
        else:
            rec["target"] = people[int(rng.integers(len(people)))]
        records.append(rec)
    return records, graph


def parsed(records) -> EventLog:
    log = parse_events(io.StringIO(
        "\n".join(json.dumps(rec) for rec in records)))
    assert log.skipped == 0 and len(log) == len(records)
    return log


def test_consumers_equal_the_record_loops():
    rng = np.random.default_rng(2024)
    empty_logs = 0
    for _ in range(200):
        records, graph = random_case(rng)
        log = parsed(records)
        empty_logs += not records
        nodes = graph.nodes

        counts = count_information_events(log, graph)
        assert (counts.outgoing, counts.incoming) == \
            loop_information_counts(records, nodes)

        for kind, build in (("mention", mention_share_weights),
                            ("retweet", retweet_share_weights)):
            assert build(graph, log).values.tolist() == \
                loop_share(records, nodes, graph.edges, kind)

        # two posters alone often share a tag, which then scores zero
        for users in (nodes, INSIDE[:2]):
            vectors = hashtag_tfidf_vectors(log, users)
            expected = loop_tfidf(records, users)
            assert list(vectors) == list(expected)
            for user, vector in vectors.items():
                # insertion order too: cosine sums in it
                assert list(vector.values.items()) == \
                    list(expected[user].items())

        width = int(rng.choice([1, 7, 600]))
        retweets = bool(rng.integers(2))
        window = None
        if not records or rng.random() < 0.5:
            start = int(rng.integers(0, 3000))
            window = (start, start + int(rng.integers(0, 2500)))
        activity = batch_coarsen(log, graph, width, window,
                                 retweets_count_as_activity=retweets)
        origin, rows = loop_coarsen(records, nodes, width, window, retweets)
        assert activity.origin == origin
        assert activity.bits.tolist() == rows
    assert empty_logs  # the empty log was among the cases


def test_post_tags_are_normalized_and_repeats_kept():
    log = parsed([{"kind": "post", "actor": "a", "ts": 0,
                   "hashtags": ["#Go", "go", "ECO"]}])
    assert log.tags == ("eco", "go")
    assert log.tag_ids.tolist() == [1, 1, 0]
    assert hashtag_tfidf_vectors(log, ["a", "b"])["a"].values == \
        pytest.approx({"go": 2 * np.log(2), "eco": np.log(2)})


def test_positions_map_log_ids_onto_nodes():
    log = parsed([{"kind": "mention", "actor": "x", "ts": 0, "target": "b"},
                  {"kind": "post", "actor": "b", "ts": 1}])
    actor, target = log.positions(("a", "b"))
    assert actor.tolist() == [-1, 1]  # x is not a node
    assert target.tolist() == [1, -1]  # a post has no target


def test_columns_are_typed_and_read_only():
    log = parsed([{"kind": "retweet", "actor": "b", "ts": 7, "target": "a"}])
    expected = {"kind": np.uint8, "actor": np.int32, "target": np.int32,
                "ts": np.int64, "tag_ptr": np.int64, "tag_ids": np.int32}
    for name, dtype in expected.items():
        column = getattr(log, name)
        assert column.dtype == dtype
        with pytest.raises(ValueError):
            column[:1] = 0
    assert list(log.rows()) == [("retweet", "b", 7, "a", ())]


def columns(**changes):
    """Columns of a valid two-event log (a post tagged 'go', a mention),
    with some replaced."""
    base = dict(ids=("a", "b"), kind=[0, 1], actor=[0, 1], target=[-1, 0],
                ts=[5, 6], tags=("go",), tag_ptr=[0, 1, 1], tag_ids=[0])
    return dict(base, **changes)


def test_valid_columns_build_a_log():
    log = EventLog(**columns())
    assert list(log.rows()) == [("post", "a", 5, None, ("go",)),
                                ("mention", "b", 6, "a", ())]


@pytest.mark.parametrize("changes", [
    {"ids": ("b", "a")},                     # ids not sorted
    {"tags": ("go", "go")},                  # tags not unique
    {"ts": [5]},                             # a short column
    {"tag_ptr": [0, 1]},                     # tag_ptr not one longer
    {"kind": [0, 3]},                        # an unknown kind code
    {"actor": [0, 2]},                       # an actor outside ids
    {"ts": [-1, 6]},                         # a negative timestamp
    {"target": [1, 0]},                      # a post with a target
    {"target": [-1, -1]},                    # a mention without one
    {"tag_ptr": [0, 0, 1]},                  # a tag on the mention
    {"tag_ids": [1]},                        # a tag outside tags
    {"tag_ptr": [1, 1, 1]},                  # tag_ptr not from 0
    {"kind": np.array([256, 1])},            # a kind numpy would wrap to 0
    {"actor": np.array([2**32, 1])},         # an actor numpy would wrap to 0
    {"kind": [256, 1]},                      # the same kind as a list
    {"actor": [0.5, 1]},                     # a fractional code
])
def test_malformed_columns_are_rejected(changes):
    with pytest.raises(ValueError):
        EventLog(**columns(**changes))


def test_log_arrays_stay_within_forty_bytes_per_event():
    log, _, _ = generate(SynthConfig(nodes=40, communities=4, bins=400,
                                     p_in=0.5, p_out=0.05, rho=0.1,
                                     epsilon=0.3, seed=3))
    arrays = (log.kind, log.actor, log.target, log.ts, log.tag_ptr,
              log.tag_ids)
    assert len(log) > 1000
    assert sum(a.nbytes for a in arrays) <= 40 * len(log)
