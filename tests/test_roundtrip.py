"""Every file qocd writes reads back identically for each id ingest accepts.

The ids mix commas, quotes and non-ASCII characters with arbitrary text;
the only ids left out are those ``check_ids`` rejects, except in the event
log, which takes any non-empty id.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qocd.activity import ActivityMatrix, write_series_csv
from qocd.cli import (_write_nmi_csv, _write_report, read_weight_table,
                      write_weight_table)
from qocd.communities import (Covering, covering_stats, read_covering,
                              write_covering)
from qocd.ingest import (_WRITE_LINES, StructuralGraph, check_ids,
                         parse_events, read_events, read_follow_edges,
                         write_events_jsonl, write_follow_edges)
from qocd.synth import SynthConfig, generate
from qocd.weighting import WeightedDigraph

from oracles import event_rows, json_dumps_events_jsonl

ROUND_TRIPS = settings(max_examples=100, deadline=None)


def accepted(node: str) -> bool:
    try:
        check_ids([node])
    except ValueError:
        return False
    return True


ids = st.text(st.one_of(st.sampled_from(',"\'#é名'),
                        st.characters(codec="utf-8")),
              min_size=1, max_size=6).filter(accepted)
edges = st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
# weights of at most 12 significant digits; test_weight_table_keeps_every_bit
# draws every finite non-negative double
weights = st.floats(0, 1e6).map(lambda w: float(format(w, ".12g")))


def same_graph(a: StructuralGraph, b: StructuralGraph) -> bool:
    return (a.nodes == b.nodes and np.array_equal(a.src, b.src)
            and np.array_equal(a.dst, b.dst))


@ROUND_TRIPS
@given(st.lists(edges, min_size=1, max_size=12))
def test_follow_csv_round_trip(pairs):
    graph = StructuralGraph.from_edges(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "follows.csv"
        write_follow_edges(graph, path)
        assert same_graph(read_follow_edges(path), graph)


@ROUND_TRIPS
@given(st.dictionaries(edges, weights, min_size=1, max_size=12))
def test_weight_table_round_trip(table):
    wg = WeightedDigraph.from_mapping(table, "t")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights_t.csv"
        write_weight_table(wg, path, {})
        back = read_weight_table(path)
    assert same_graph(back.graph, wg.graph)
    assert back.values.tolist() == wg.values.tolist()
    assert back.scheme == wg.scheme


@ROUND_TRIPS
@given(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                min_size=1, max_size=12))
@example([0.0, -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308, 1.0])
def test_weight_table_keeps_every_bit(values):
    table = {("a", f"b{i}"): w for i, w in enumerate(values)}
    wg = WeightedDigraph.from_mapping(table, "t")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights_t.csv"
        write_weight_table(wg, path, {})
        back = read_weight_table(path)
    # -0.0 reads back as 0.0, as WeightedDigraph stores it
    want = np.array([table[e] for e in back.graph.edges]) + 0.0
    assert back.values.tobytes() == want.tobytes()


@ROUND_TRIPS
@given(st.data())
def test_covering_file_round_trip(data):
    universe = sorted(data.draw(st.sets(ids, min_size=2, max_size=12)))
    community = st.sets(st.sampled_from(universe), min_size=2).map(frozenset)
    groups = data.draw(st.lists(community, max_size=4, unique=True))
    covering = Covering(universe=universe, communities=tuple(groups))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "covering.txt"
        write_covering(covering, path)
        back = read_covering(path, universe)
    assert back == covering
    for name in ("sizes", "indptr", "rows"):
        assert np.array_equal(getattr(back, name), getattr(covering, name))


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@ROUND_TRIPS
@given(st.sets(ids, min_size=1, max_size=8), st.data())
def test_activity_series_round_trip(nodes, data):
    nodes = sorted(nodes)
    length = data.draw(st.integers(1, 5))
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=length,
                                       max_size=length),
                              min_size=len(nodes), max_size=len(nodes)))
    activity = ActivityMatrix(nodes, np.array(bits), 600, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "activity_series.csv"
        write_series_csv(activity, path)
        rows = read_csv(path)
    assert rows == [[node, *map(str, row)] for node, row in zip(nodes, bits)]


@ROUND_TRIPS
@given(st.lists(ids, min_size=1, max_size=4, unique=True), st.data())
def test_nmi_matrix_round_trip(labels, data):
    labels = sorted(labels)
    size = len(labels)
    matrix = np.array(data.draw(st.lists(weights, min_size=size * size,
                                         max_size=size * size)))
    matrix = matrix.reshape(size, size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nmi_matrix.csv"
        _write_nmi_csv(labels, matrix, path)
        rows = read_csv(path)
    assert rows[0] == ["covering", *labels]
    assert [row[0] for row in rows[1:]] == labels
    assert [[float(v) for v in row[1:]] for row in rows[1:]] == matrix.tolist()


# a label also names a size_ccdf_<label>.csv file
file_labels = ids.filter(lambda label: "/" not in label and "\0" not in label)


@ROUND_TRIPS
@given(st.lists(file_labels, min_size=1, max_size=4, unique=True))
def test_covering_stats_round_trip(labels):
    universe = [f"u{i}" for i in range(8)]
    coverings = {label: Covering(universe=universe, communities=tuple(
        frozenset(universe[j:j + 2]) for j in range(0, 2 * i, 2)))
        for i, label in enumerate(labels)}
    with tempfile.TemporaryDirectory() as tmp:
        _write_report(coverings, [], Path(tmp))
        rows = read_csv(Path(tmp) / "covering_stats.csv")
    stats = {label: covering_stats(c) for label, c in coverings.items()}
    assert rows == [["covering", "communities", "singletons"]] + [
        [label, str(stats[label]["communities"]),
         str(stats[label]["singletons"])] for label in sorted(labels)]


LOG_COLUMNS = ("ids", "kind", "actor", "target", "ts", "tags", "tag_ptr",
               "tag_ids", "skipped")


def same_log(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               if isinstance(getattr(a, name), np.ndarray)
               else getattr(a, name) == getattr(b, name)
               for name in LOG_COLUMNS)


# any non-empty id parses; a tag must already be in the form ingest stores
log_ids = st.text(st.one_of(st.sampled_from(',"\'# é名'),
                            st.characters(codec="utf-8")), min_size=1,
                  max_size=6)
log_tags = log_ids.filter(lambda t: t.lower().lstrip("#") == t
                          and t.split() == [t])
stamps = st.integers(0, 2 ** 63 - 1)
posts = st.fixed_dictionaries(
    {"kind": st.just("post"), "actor": log_ids, "ts": stamps},
    optional={"hashtags": st.lists(log_tags, max_size=3)})
interactions = st.fixed_dictionaries(
    {"kind": st.sampled_from(["mention", "retweet"]), "actor": log_ids,
     "ts": stamps, "target": log_ids})


@ROUND_TRIPS
@given(st.lists(st.one_of(posts, interactions), max_size=12))
def test_event_log_round_trip(records):
    log = parse_events(io.StringIO(
        "".join(json.dumps(rec) + "\n" for rec in records)))
    assert log.skipped == 0 and len(log) == len(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        write_events_jsonl(log, path)
        back = read_events(path)
    assert back.skipped == 0
    assert same_log(back, log)


# characters json.dumps escapes or passes through: a quote, a backslash,
# control characters, a space, non-ASCII, one outside the BMP and a lone
# surrogate; a tag may not hold whitespace, so it draws on the rest
odd_ids = st.lists(st.sampled_from(['"', "\\", "\x00", "\x1f", " ", "é", "名",
                                    "𝄞", "\ud800"]),
                   min_size=1, max_size=4).map("".join)
odd_tags = odd_ids.filter(lambda t: t.lower().lstrip("#") == t
                          and t.split() == [t])
odd_posts = st.fixed_dictionaries(
    {"kind": st.just("post"), "actor": odd_ids, "ts": stamps},
    optional={"hashtags": st.lists(odd_tags, max_size=4)})
odd_interactions = st.fixed_dictionaries(
    {"kind": st.sampled_from(["mention", "retweet"]), "actor": odd_ids,
     "ts": stamps, "target": odd_ids})


def written(log, writer) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        writer(log, path)
        return path.read_bytes()


@ROUND_TRIPS
@given(st.lists(st.one_of(odd_posts, odd_interactions), max_size=12))
@example([])
@example([{"kind": "post", "actor": "é", "ts": 0,
           "hashtags": ["名", "\ud800", "𝄞\\", '"']},
          {"kind": "retweet", "actor": "\x00", "ts": 2 ** 63 - 1,
           "target": "\x1f "},
          {"kind": "post", "actor": "\ud800", "ts": 2 ** 63 - 1,
           "hashtags": ["a"]}])
def test_writer_equals_json_dumps_of_each_record(records):
    log = parse_events(io.StringIO(
        "".join(json.dumps(rec) + "\n" for rec in records)))
    assert len(log) == len(records)
    assert (written(log, write_events_jsonl)
            == written(log, json_dumps_events_jsonl))


def test_writer_equals_json_dumps_across_chunks():
    log, _, _ = generate(SynthConfig(nodes=30, communities=3, bins=200,
                                     rho=0.2, seed=4))
    assert len(log) > 2 * _WRITE_LINES
    assert (written(log, write_events_jsonl)
            == written(log, json_dumps_events_jsonl))


def test_generated_log_reads_back_equal(tmp_path):
    log, _, _ = generate(SynthConfig(nodes=20, communities=2, bins=200,
                                     rho=0.1, epsilon=0.2, seed=5))
    write_events_jsonl(log, tmp_path / "events.jsonl")
    back = read_events(tmp_path / "events.jsonl")
    assert event_rows(back) == event_rows(log)
    assert same_log(back, log)
