"""The columnar event log: its invariants, its size, and every consumer
against the record-by-record loops in ``oracles``."""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qocd import ingest
from qocd.activity import batch_coarsen
from qocd.ingest import (EventLog, StructuralGraph, count_information_events,
                         parse_events, read_events, write_events_jsonl)
from qocd.synth import SynthConfig, generate
from qocd.weighting import (hashtag_tfidf_vectors, mention_share_weights,
                            retweet_share_weights)

from oracles import (loop_coarsen, loop_information_counts, loop_parse_events,
                     loop_share, loop_tfidf)

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
        assert tuple({node: c for node, c in zip(nodes, column.tolist()) if c}
                     for column in counts) == \
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
                assert list(vector.items()) == \
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
    assert hashtag_tfidf_vectors(log, ["a", "b"])["a"] == \
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


def test_log_does_not_share_a_callers_writable_column():
    kind = np.array([0, 1], dtype=np.uint8)
    actor = np.array([0, 1], dtype=np.int32)
    log = EventLog(**columns(kind=kind, actor=actor))
    kind[:], actor[:] = 1, 0  # the caller writes to its arrays afterwards
    assert log.kind.tolist() == [0, 1] and log.actor.tolist() == [0, 1]
    assert kind.flags.writeable and actor.flags.writeable


def test_log_keeps_a_read_only_column_of_its_dtype():
    ts = np.array([5, 6], dtype=np.int64)
    ts.flags.writeable = False
    assert EventLog(**columns(ts=ts)).ts is ts


LOG_FIELDS = ("ids", "kind", "actor", "target", "ts", "tags", "tag_ptr",
              "tag_ids", "skipped")


def assert_same_log(log, expected):
    for name in LOG_FIELDS:
        got, want = getattr(log, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
        else:
            assert got == want, name


# event lines as write_events_jsonl writes them, and as json.dumps
# writes the same record with non-ASCII text unescaped
plain_ids = st.text(st.sampled_from("abc"), min_size=1, max_size=2)
event_ids = st.one_of(plain_ids, plain_ids, plain_ids,
                      st.text(st.sampled_from('a"\\é\t'), max_size=2))
event_tags = st.one_of(plain_ids, plain_ids,
                       st.text(st.sampled_from("aB# é"), max_size=3))
# a ts of 2**63 or more does not fit in int64
stamps = st.one_of(st.integers(0, 30), st.integers(0, 10 ** 20),
                   st.sampled_from([2 ** 63 - 1, 2 ** 63, 10 ** 19 - 1]))
records = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("post"), "actor": event_ids, "ts": stamps},
        optional={"hashtags": st.lists(event_tags, min_size=1, max_size=2)}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["mention", "retweet"]), "actor": event_ids,
         "ts": stamps, "target": event_ids}))
canonical = st.builds(lambda rec, ascii: json.dumps(rec, sort_keys=True,
                                                    ensure_ascii=ascii),
                      records, st.booleans())
# lines json.loads reads but the canonical form does not, or the other way
# round, and lines it skips
mutated = st.sampled_from([
    '{"actor": "a\\u0062", "kind": "post", "ts": 1}',
    '{"actor": "a\\"b", "kind": "post", "ts": 1}',
    '{"kind": "post", "actor": "a", "ts": 1}',
    '{"actor":"a","kind":"post","ts":1}',
    '{"actor": "a", "actor": "b", "kind": "post", "ts": 1}',
    '{"actor": "a", "kind": "post", "kind": "mention", "ts": 1}',
    '{"actor": "a", "kind": "post", "ts": 1, "zz": [1]}',
    '{"actor": "a", "extra": null, "kind": "post", "ts": 1}',
    '{"actor": "a", "kind": "post", "ts": 1.0}',
    '{"actor": "a", "kind": "post", "ts": true}',
    '{"actor": "a", "kind": "post", "ts": -0}',
    '{"actor": "a", "kind": "post", "ts": 007}',
    '{"actor": "a", "kind": "post", "ts": 9223372036854775808}',
    '{"actor": "a", "kind": "post", "ts": 9223372036854775807}',
    '{"actor": "a", "kind": "post", "ts": 99999999999999999999}',
    '{"actor": "a", "kind": "post", "target": "b", "ts": 1}',
    '{"actor": "a", "kind": "mention", "ts": 1}',
    '{"actor": "a", "hashtags": ["x", 1], "kind": "mention", '
    '"target": "b", "ts": 1}',
    '{"actor": "a", "hashtags": ["A b"], "kind": "retweet", '
    '"target": "b", "ts": 1}',
    '{"actor": "a", "hashtags": null, "kind": "post", "ts": 1}',
    '{"actor": "a", "hashtags": [1], "kind": "post", "ts": 1}',
    '{"actor": "a", "hashtags": ["#"], "kind": "post", "ts": 1}',
    '{"actor": "a", "hashtags": ["a b"], "kind": "post", "ts": 1}',
    '{"actor": "a", "hashtags": ["a]b"], "kind": "post", "ts": 1}',
    '{"actor": "a", "hashtags": [], "kind": "post", "ts": 1}',
    '{"actor": "", "kind": "post", "ts": 1}',
    '{"actor": "a", "kind": "mention", "target": "", "ts": 1}',
    '{"actor": "a", "kind": "like", "ts": 1}',
    '{"actor": "a", "kind": "post", "ts": 1}{"actor": "b", "kind": "post", '
    '"ts": 2}',
    '["actor", "a"]',
    '{"actor": "a", "kind": "post", "ts": 1',
    "",
    " \t",
    "\x0c",
])
padded = st.builds(lambda line, pad: pad + line + pad, canonical,
                   st.sampled_from([" ", "\t", "\x0b", "\u2028"]))
lines = st.lists(st.tuples(
    st.one_of(canonical, canonical, canonical, canonical, mutated, padded),
    st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])), max_size=12)


@settings(max_examples=150, deadline=None)
@given(lines, st.booleans(), st.integers(1, 200))
@example([('{"actor": "a\\u0062", "kind": "post", "ts": 1}', "\r"),
          ('{"actor": "a\\u0062", "kind": "post", "ts": 1}', "\n")],
         True, 200)
@example([('{"actor": "a", "kind": "post", "ts": 1}', "\n"),
          ('{"actor": "b", "kind": "post", "ts": 2}', "\n")], False, 200)
def test_block_parse_equals_the_line_loop(ended_lines, final_newline, block):
    text = "".join(line + end for line, end in ended_lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest, "_BLOCK", block):
        path = Path(tmp) / "events.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        with open(path, encoding="utf-8") as fh:
            expected = loop_parse_events(fh)
        assert_same_log(read_events(path), expected)
        # streams that split lines their own way: at \n alone (no
        # translation), at any end once translated, at any end untranslated
        # (a lone \r too), at \r\n alone, and a file split at \r alone
        for newline in ("\n", None, "", "\r\n"):
            assert_same_log(parse_events(io.StringIO(text, newline=newline)),
                            loop_parse_events(io.StringIO(text,
                                                          newline=newline)))
        with open(path, encoding="utf-8", newline="\r") as fh, \
                open(path, encoding="utf-8", newline="\r") as oracle_fh:
            assert_same_log(parse_events(fh), loop_parse_events(oracle_fh))


def test_synth_log_takes_the_block_path_whole(tmp_path):
    log, _, _ = generate(SynthConfig(nodes=20, communities=2, bins=300,
                                     seed=5))
    write_events_jsonl(log, tmp_path / "events.jsonl")
    with mock.patch.object(ingest, "_BLOCK", 4096), \
            mock.patch.object(ingest._Columns, "add_lines",
                              side_effect=AssertionError("line by line")):
        back = read_events(tmp_path / "events.jsonl")
    with open(tmp_path / "events.jsonl", encoding="utf-8") as fh:
        assert_same_log(back, loop_parse_events(fh))
    assert len(back) == len(log) > 1000 and back.tags
