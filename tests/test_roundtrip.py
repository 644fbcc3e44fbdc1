"""Every file qocd writes reads back identically for each id ingest accepts.

The ids mix commas, quotes and non-ASCII characters with arbitrary text;
the only ids left out are those ``check_ids`` rejects.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from qocd.cli import read_weight_table, write_weight_table
from qocd.communities import Covering, read_covering, write_covering
from qocd.ingest import (StructuralGraph, check_ids, read_follow_edges,
                         write_follow_edges)
from qocd.weighting import WeightedDigraph

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
# weight tables hold 12 significant digits, so draw weights that fit in them
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
