import io

import numpy as np
import pytest

from qocd.activity import (ActivityMatrix, batch_coarsen, series_length,
                           write_series_csv)
from qocd.ingest import StructuralGraph, parse_events


def log_of(*lines):
    return parse_events(io.StringIO("\n".join(lines)))


def coarsen(log, user, bin_width=600, window=None, **kwargs):
    """The activity matrix of a graph holding ``user`` alone."""
    graph = StructuralGraph.from_edges([], nodes=[user])
    return batch_coarsen(log, graph, bin_width, window, **kwargs)


def post(actor, ts):
    return f'{{"kind":"post","actor":"{actor}","ts":{ts}}}'


def test_basic_binning():
    log = log_of(post("a", 0), post("a", 650))
    s = coarsen(log, "a", bin_width=600, window=(0, 1199))
    assert s.bits[0].tolist() == [1, 1]


def test_absent_user_gets_zeros():
    log = log_of(post("a", 0))
    s = coarsen(log, "ghost", bin_width=600, window=(0, 1199))
    assert s.bits[0].tolist() == [0, 0]


def test_nine_weeks_of_ten_minute_bins():
    assert series_length(0, 9 * 7 * 24 * 3600 - 1, 600) == 9072


def test_multiple_posts_in_bin_equal_single_post():
    one = coarsen(log_of(post("a", 10)), "a", 600, (0, 599))
    many = coarsen(log_of(post("a", 10), post("a", 20), post("a", 599)),
                   "a", 600, (0, 599))
    assert one.bits[0].tolist() == many.bits[0].tolist()


def test_shift_invariance():
    log = log_of(post("a", 100), post("a", 1300))
    base = coarsen(log, "a", 600, (0, 1799))
    shifted_log = log_of(post("a", 100 + 1234), post("a", 1300 + 1234))
    shifted = coarsen(shifted_log, "a", 600, (1234, 1799 + 1234))
    assert base.bits[0].tolist() == shifted.bits[0].tolist()


def test_sum_of_bins_bounded_by_posts():
    rng = np.random.default_rng(0)
    ts = sorted(int(t) for t in rng.integers(0, 5000, 40))
    log = log_of(*[post("a", t) for t in ts])
    s = coarsen(log, "a", 600, (0, 4999))
    assert s.bits.sum() <= 40


def test_events_outside_window_ignored():
    log = log_of(post("a", 10), post("a", 5000))
    s = coarsen(log, "a", 600, (0, 1199))
    assert s.bits[0].tolist() == [1, 0]


def test_retweet_activity_flag():
    log = log_of('{"kind":"retweet","actor":"a","ts":10,"target":"b"}')
    with_rt = coarsen(log, "a", 600, (0, 599))
    without = coarsen(log, "a", 600, (0, 599),
                      retweets_count_as_activity=False)
    assert with_rt.bits[0].tolist() == [1]
    assert without.bits[0].tolist() == [0]


def test_mentions_are_not_activity():
    log = log_of('{"kind":"mention","actor":"a","ts":10,"target":"b"}',
                 post("a", 9999))
    s = coarsen(log, "a", 600, (0, 599))
    assert s.bits[0].tolist() == [0]


def test_default_window_floors_origin_to_bin_width():
    log = log_of(post("a", 1450), post("a", 2500))
    s = coarsen(log, "a", 600)
    assert s.origin == 1200
    assert s.bits.shape == (1, series_length(1200, 2500, 600))
    assert s.bits[0, 0] == 1


def test_bad_arguments():
    log = log_of(post("a", 0))
    with pytest.raises(ValueError):
        coarsen(log, "a", 0, (0, 10))
    with pytest.raises(ValueError):
        coarsen(log, "a", 600, (10, 0))


class TestBatchCoarsen:
    graph = StructuralGraph.from_edges([("a", "b")], nodes=["a", "b", "c"])

    def test_shared_origin_and_length(self):
        log = log_of(post("a", 700), post("b", 4000))
        activity = batch_coarsen(log, self.graph, 600)
        assert activity.nodes == ("a", "b", "c")
        assert activity.origin == 600
        assert activity.bits.shape == (3, series_length(600, 4000, 600))

    def test_empty_graph_gives_empty_map(self):
        empty = StructuralGraph.from_edges([])
        activity = batch_coarsen(log_of(post("a", 0)), empty, 600)
        assert activity.nodes == () and activity.bits.shape == (0, 0)

    def test_bin_width_below_one_is_rejected_before_the_window(self):
        # the default window divides by the bin width, so the check must
        # come first: a ValueError, not a ZeroDivisionError
        for width in (0, -600):
            with pytest.raises(ValueError, match="bin_width"):
                batch_coarsen(log_of(post("a", 700)), self.graph, width)

    def test_matrix_above_the_cell_bound_is_rejected_before_allocation(self):
        # the check runs before np.zeros, which would raise MemoryError
        from qocd.activity import MAX_CELLS

        log = log_of(post("a", 0), post("b", 10**15))
        with pytest.raises(ValueError, match=(
                "3 nodes x 1666666666667 bins of width 600 exceed "
                f"{MAX_CELLS} activity cells")):
            batch_coarsen(log, self.graph, 600)

    def test_only_active_user_has_ones(self):
        log = log_of(post("a", 0))
        activity = batch_coarsen(log, self.graph, 600, (0, 599))
        assert activity.nodes == ("a", "b", "c")
        assert activity.bits.sum(axis=1).tolist() == [1, 0, 0]


class TestActivityMatrix:
    def test_rejects_a_malformed_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            ActivityMatrix(("a",), np.array([0, 1]), 600, 0)
        with pytest.raises(ValueError, match="0 or 1"):
            ActivityMatrix(("a",), np.array([[0, 2]]), 600, 0)
        with pytest.raises(ValueError, match="0 or 1"):
            ActivityMatrix(("a",), np.array([[1 + 0j, 0]]), 600, 0)
        with pytest.raises(ValueError, match="2 rows for 1 nodes"):
            ActivityMatrix(("a",), np.zeros((2, 3)), 600, 0)

    def test_nodes_must_be_sorted_and_unique(self):
        for nodes in (("b", "a"), ("a", "a")):
            with pytest.raises(ValueError, match="sorted and unique"):
                ActivityMatrix(nodes, np.zeros((2, 3)), 600, 0)

    def test_bits_are_a_read_only_copy(self):
        source = np.array([[0, 1, 1], [1, 0, 0]])
        activity = ActivityMatrix(("a", "b"), source, 600, 0)
        source[0, 0] = 1
        assert activity.bits.dtype == np.uint8
        assert activity.bits[0].tolist() == [0, 1, 1]
        with pytest.raises(ValueError):
            activity.bits[0, 0] = 1

    def test_keeps_a_read_only_uint8_matrix(self):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        bits.flags.writeable = False
        assert ActivityMatrix(("a", "b"), bits, 600, 0).bits is bits


def test_series_csv_dump(tmp_path):
    import json

    log = log_of(post("a", 0), post("b", 650))
    graph = StructuralGraph.from_edges([("a", "b")])
    activity = batch_coarsen(log, graph, 600, (0, 1199))
    header = write_series_csv(activity, tmp_path / "series.csv")
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines == ["a,1,0", "b,0,1"]
    assert header == {"bin_width": 600, "origin": 0, "length": 2}
    sidecar = json.loads((tmp_path / "series.json").read_text())
    assert sidecar == header


def test_series_csv_dump_of_an_empty_matrix(tmp_path):
    empty = ActivityMatrix((), np.zeros((0, 0), dtype=np.uint8), 600, 0)
    header = write_series_csv(empty, tmp_path / "series.csv")
    assert header == {"bin_width": None, "origin": None, "length": 0}
    assert (tmp_path / "series.csv").read_text() == ""
