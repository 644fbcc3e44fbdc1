import math
import tracemalloc

import numpy as np
import pytest

from qocd import infotheory
from qocd.activity import ActivityMatrix
from qocd.infotheory import (MAX_LAG, pairwise_transfer_entropy,
                             plugin_entropy, transfer_entropy)
from qocd.ingest import StructuralGraph

from oracles import (brute_force_te, compensated_sum,
                     two_matrix_pairwise_te)


class TestPluginEntropy:
    def test_fair_binary(self):
        est = plugin_entropy([0, 0, 1, 1])
        assert est.plugin == 1.0
        assert est.miller_madow == 1.0 + (2 - 1) / (2 * 4)
        assert (est.observed_alphabet, est.samples) == (2, 4)

    def test_degenerate_alphabet(self):
        est = plugin_entropy([0, 0, 0, 0])
        assert est.plugin == 0.0 and est.miller_madow == 0.0

    def test_uniform_four_symbols(self):
        est = plugin_entropy([0, 1, 2, 3])
        assert est.plugin == 2.0
        assert est.miller_madow == 2.0 + 3 / 8

    def test_adjustment_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = rng.integers(0, 5, size=int(rng.integers(1, 60)))
            est = plugin_entropy(data.tolist())
            expected = est.plugin + (est.observed_alphabet - 1) / (2 * est.samples)
            assert est.miller_madow == pytest.approx(expected, abs=1e-15)
            assert plugin_entropy(data) == est  # a 1-D array counts the same

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError, match="no samples"):
            plugin_entropy([])


@pytest.mark.parametrize("n", [1, 2, 999, 9066])
def test_entropy_table_equals_the_term_of_each_count_alone(n):
    # TE and the cover NMI gather every term from the table: each entry
    # must equal the term computed on its count alone, bit for bit
    table = infotheory.entropy_table(n)
    assert table.shape == (n + 1,) and table[0] == 0.0
    alone = [infotheory.entropy_terms(np.array([c]), n)[0]
             for c in range(1, n + 1)]
    assert table[1:].tobytes() == np.array(alone).tobytes()


def test_fold_adds_left_to_right_from_zero():
    # the detector and the cosine sum by fold: one rounding per term, in
    # order, where math.fsum and 3.12's compensated sum keep the lost 1.0
    assert infotheory.fold([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    empty = infotheory.fold([])
    assert type(empty) is float and empty == 0.0
    assert math.copysign(1.0, infotheory.fold([-0.0])) == 1.0
    rng = np.random.default_rng(11)
    differs = 0
    for _ in range(500):
        values = (rng.standard_normal(int(rng.integers(1, 200)))
                  * 10.0 ** rng.integers(-3, 4)).tolist()
        total = 0.0
        for v in values:
            total = total + v
        assert infotheory.fold(values) == total
        assert infotheory.fold(iter(values)) == total
        differs += compensated_sum(values) != total
    assert differs > 250  # most lists tell the two orders apart


class TestTransferEntropy:
    def test_constant_source_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 300)
        y = np.zeros(300, dtype=int)
        for k in (1, 2, 3):
            assert transfer_entropy(x, y, k) == 0.0
            assert transfer_entropy(x, y, k, truncate=False) == 0.0

    def test_copy_process_is_one_bit(self):
        rng = np.random.default_rng(42)
        t_len = 10_000
        y = rng.integers(0, 2, t_len)
        x = np.concatenate(([0], y[:-1]))
        te = transfer_entropy(x, y, 1)
        assert abs(te - 1.0) < 0.01
        assert te == pytest.approx(brute_force_te(x, y, 1), abs=1e-10)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(123)
        x = rng.integers(0, 2, 10_000)
        y = rng.integers(0, 2, 10_000)
        assert transfer_entropy(x, y, 1) <= 0.005

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        for case in range(66):
            t_len = int(rng.integers(20, 200))
            # the last cases run at the bound with y's oldest past bit set,
            # so a joint code reaches bit 2k = 24 of its int32
            k = int(rng.integers(1, 4)) if case < 60 else MAX_LAG
            p = rng.uniform(0.1, 0.9)
            x = (rng.random(t_len) < p).astype(int)
            y = (rng.random(t_len) < p).astype(int)
            if k == MAX_LAG:
                y[0] = 1
            raw = transfer_entropy(x, y, k, truncate=False)
            assert raw == pytest.approx(brute_force_te(x, y, k), abs=1e-10)

    def test_truncation_floors_at_zero(self):
        rng = np.random.default_rng(7)
        found_negative = False
        for _ in range(200):
            x = rng.integers(0, 2, 30)
            y = rng.integers(0, 2, 30)
            raw = transfer_entropy(x, y, 2, truncate=False)
            clipped = transfer_entropy(x, y, 2)
            assert clipped >= 0.0
            assert clipped == (raw if raw > 0 else 0.0)
            found_negative |= raw < 0
        assert found_negative  # short noisy series do go negative pre-truncation

    def test_relabel_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, 400)
        y = rng.integers(0, 2, 400)
        for k in (1, 3):
            a = transfer_entropy(x, y, k, truncate=False)
            b = transfer_entropy(1 - x, 1 - y, k, truncate=False)
            assert a == pytest.approx(b, abs=1e-12)

    def test_accepts_activity_series(self):
        a, b = activity_of({"a": [0, 1, 0, 1, 1], "b": [1, 0, 1, 0, 0]}).bits
        te = transfer_entropy(a, b, 1)
        assert te >= 0.0
        assert te == transfer_entropy([0, 1, 0, 1, 1], [1, 0, 1, 0, 0], 1)

    def test_rejects_non_binary_and_two_dimensional_input(self):
        with pytest.raises(ValueError, match="0 or 1"):
            transfer_entropy([0, 2, 1], [0, 1, 1], 1)
        with pytest.raises(ValueError, match="one-dimensional"):
            transfer_entropy(np.zeros((2, 5), dtype=int), np.zeros(5, dtype=int), 1)

    def test_rejects_series_of_different_lengths(self):
        with pytest.raises(ValueError, match="series lengths differ: 3 vs 2"):
            transfer_entropy([0, 1, 0], [0, 1], 1)

    def test_lag_above_the_bound_is_rejected(self):
        # at lag 40 a joint-term table could need 2^81 counters; constant
        # series keep every code 0, so a missed check costs no memory
        x = [0] * 100
        with pytest.raises(ValueError, match=f"k <= {MAX_LAG}"):
            transfer_entropy(x, x, 40)
        with pytest.raises(ValueError, match="lag"):
            transfer_entropy(x, x, MAX_LAG + 1)

    def test_convergence_to_analytic_value(self):
        # x copies y through a binary symmetric channel with flip rate q;
        # the true lag-1 value is 1 - H(q).
        q = 0.1
        analytic = 1.0 - (-q * math.log2(q) - (1 - q) * math.log2(1 - q))
        rng = np.random.default_rng(2024)
        errors = []
        for t_len in (1_000, 10_000, 100_000):
            y = rng.integers(0, 2, t_len)
            flips = rng.random(t_len) < q
            x = np.concatenate(([0], np.where(flips[1:], 1 - y[:-1], y[:-1])))
            errors.append(abs(transfer_entropy(x, y, 1) - analytic))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.005


def activity_of(arrays):
    names = sorted(arrays)
    return ActivityMatrix(tuple(names), np.array([arrays[n] for n in names]),
                          600, 0)


class TestPairwise:
    def test_copying_follower(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 10_000)
        x = np.concatenate(([0], y[:-1]))
        graph = StructuralGraph.from_edges([("u", "f")])
        table = pairwise_transfer_entropy(graph, activity_of({"u": y, "f": x}), 1)
        assert abs(table[0] - 1.0) < 0.01

    def test_silent_followee(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, 500)
        graph = StructuralGraph.from_edges([("u", "f")])
        table = pairwise_transfer_entropy(
            graph, activity_of({"u": np.zeros(500, dtype=int), "f": x}), 1)
        assert table.tolist() == [0.0]

    def test_empty_graph_gives_an_empty_table(self):
        graph = StructuralGraph((), [], [])
        activity = ActivityMatrix((), np.zeros((0, 0), dtype=np.uint8), 600, 0)
        assert pairwise_transfer_entropy(graph, activity, 1).shape == (0,)

    def test_missing_series_names_the_node(self):
        graph = StructuralGraph.from_edges([("u", "f")])
        with pytest.raises(ValueError, match="'f'"):
            pairwise_transfer_entropy(graph, activity_of({"u": [0, 1, 0]}), 1)

    def test_lag_out_of_range_is_rejected(self):
        graph = StructuralGraph.from_edges([("u", "f")])
        activity = activity_of({"u": [0, 1, 0], "f": [1, 0, 1]})
        for k in (0, 3):
            with pytest.raises(ValueError, match="lag"):
                pairwise_transfer_entropy(graph, activity, k)

    def test_lag_above_the_bound_is_rejected(self):
        graph = StructuralGraph.from_edges([("u", "f")])
        activity = activity_of({"u": [0] * 60, "f": [0] * 60})
        with pytest.raises(ValueError, match=f"k <= {MAX_LAG}"):
            pairwise_transfer_entropy(graph, activity, MAX_LAG + 1)

    def test_equals_the_single_pair_estimator_bit_for_bit(self):
        # the table shares each follower's own terms across its in-edges;
        # every value must still equal the one-pair call exactly
        rng = np.random.default_rng(11)
        nodes = [f"n{i}" for i in range(8)]
        edges = [(a, b) for a in nodes for b in nodes if a != b]
        graph = StructuralGraph.from_edges(edges)
        bits = {n: (rng.random(300) < rng.uniform(0.05, 0.6)).astype(int)
                for n in nodes}
        activity = activity_of(bits)
        for k in (1, 2, 5):
            for truncate in (True, False):
                table = pairwise_transfer_entropy(graph, activity, k,
                                                  truncate=truncate)
                assert table.tolist() == [
                    transfer_entropy(bits[u], bits[v], k, truncate)
                    for v, u in graph.edges]

    def test_equals_the_two_matrix_kernel_bit_for_bit(self):
        # rows: all zero, all one, and random rates in (0.05, 0.95); every
        # ordered pair below lag 9, three edges from there to the bound,
        # where each joint count table is up to 2^25 wide
        rng = np.random.default_rng(12)
        rates = rng.uniform(0.05, 0.95, 4)
        bits = {f"n{i}": (rng.random(400) < r).astype(np.uint8)
                for i, r in enumerate(rates)}
        bits.update(zeros=np.zeros(400, np.uint8), ones=np.ones(400, np.uint8))
        activity = activity_of(bits)
        nodes = activity.nodes
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for k in range(1, MAX_LAG + 1):
            graph = StructuralGraph.from_edges(
                pairs if k < 9 else [("n0", "n1"), ("n1", "ones"),
                                     ("zeros", "n2")], nodes=nodes)
            for truncate in (True, False):
                want = two_matrix_pairwise_te(
                    graph.src.tolist(), graph.dst.tolist(), activity.bits, k,
                    truncate)
                got = pairwise_transfer_entropy(graph, activity, k, truncate)
                assert got.tobytes() == want.tobytes(), (k, truncate)

    def test_equals_the_two_matrix_kernel_across_chunks(self):
        # at T = 10,000 a chunk holds 3 rows: the 7 edges fill three chunks
        # and n1's in-edges sit in all three, as the 5 targets fill two;
        # lags to 6 count with bincount, the rest sort; T = k + 1 has n = 1
        rng = np.random.default_rng(14)
        edges = [("n0", "n1"), ("n0", "ones"), ("n1", "n2"), ("n2", "n1"),
                 ("n3", "zeros"), ("ones", "n3"), ("zeros", "n1")]
        graph = StructuralGraph.from_edges(edges)
        for t_len in (10_000, None):
            for k in range(1, MAX_LAG + 1):
                bins = t_len or k + 1
                step = infotheory._CHUNK // (bins - k)
                if t_len:
                    assert 3 == step < len(edges), step
                    assert (2 << 2 * k <= bins - k) == (k <= 6)
                rates = rng.uniform(0.05, 0.95, 4)
                bits = {f"n{i}": (rng.random(bins) < r).astype(np.uint8)
                        for i, r in enumerate(rates)}
                bits.update(zeros=np.zeros(bins, np.uint8),
                            ones=np.ones(bins, np.uint8))
                activity = activity_of(bits)
                for truncate in (True, False):
                    want = two_matrix_pairwise_te(
                        graph.src.tolist(), graph.dst.tolist(), activity.bits,
                        k, truncate)
                    got = pairwise_transfer_entropy(graph, activity, k,
                                                    truncate)
                    assert got.tobytes() == want.tobytes(), (bins, k, truncate)

    def test_window_codes_take_four_bytes_per_node_bin(self):
        rng = np.random.default_rng(13)
        nodes, bins = 200, 2_000
        activity = ActivityMatrix(
            tuple(f"n{i:03d}" for i in range(nodes)),
            rng.random((nodes, bins)) < rng.uniform(0.05, 0.5, (nodes, 1)),
            600, 0)
        names = activity.nodes
        graph = StructuralGraph.from_edges(
            [(names[i], names[(i + d) % nodes])
             for i in range(nodes) for d in (1, 7)])
        tracemalloc.start()
        try:
            pairwise_transfer_entropy(graph, activity, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * nodes * bins

    def test_counting_at_the_lag_bound_stays_within_the_same_bytes(self):
        # at MAX_LAG a joint code is 25 bits wide: counting must not need 2^25
        rng = np.random.default_rng(15)
        nodes, bins = 200, 2_000
        activity = ActivityMatrix(
            tuple(f"n{i:03d}" for i in range(nodes)),
            rng.random((nodes, bins)) < rng.uniform(0.05, 0.5, (nodes, 1)),
            600, 0)
        names = activity.nodes
        graph = StructuralGraph.from_edges(
            [(names[i], names[(i + d) % nodes])
             for i in range(nodes) for d in (1, 7)])
        tracemalloc.start()
        try:
            pairwise_transfer_entropy(graph, activity, MAX_LAG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * nodes * bins
