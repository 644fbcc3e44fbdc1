"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qocd.activity import batch_coarsen
from qocd.cli import main
from qocd.communities import detect_communities
from qocd.compare import nmi
from qocd.edgestats import EDGE_CLASSES, partition_edges
from qocd.infotheory import plugin_entropy, transfer_entropy
from qocd.synth import SynthConfig, generate
from qocd.weighting import (hashtag_similarity_weights, hashtag_tfidf_vectors,
                            mention_retweet_weights, mention_share_weights,
                            retweet_share_weights, transfer_entropy_weights)

from oracles import brute_force_te, median_low
from test_compare import random_covering
from test_edgestats import classify_edge


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({title}): PASS")


def mention_retweet(graph, log):
    return mention_retweet_weights(mention_share_weights(graph, log),
                                   retweet_share_weights(graph, log))


def planted_window(cfg):
    return (0, cfg.bins * cfg.bin_width - 1)


def test_criterion_1_te_oracle_equivalence():
    with criterion(1, "TE oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            t_len = int(rng.integers(20, 201))
            k = int(rng.integers(1, 4))
            p = float(rng.uniform(0.05, 0.95))
            x = (rng.random(t_len) < p).astype(int)
            y = (rng.random(t_len) < float(rng.uniform(0.05, 0.95))).astype(int)
            raw = transfer_entropy(x, y, k, truncate=False)
            assert raw == pytest.approx(brute_force_te(x, y, k), abs=1e-10)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_te_calibration():
    with criterion(2, "TE calibration"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        t_len = 10_000
        y = rng.integers(0, 2, t_len)
        x = np.concatenate(([0], y[:-1]))
        copy_te = transfer_entropy(x, y, 1)
        assert 0.99 <= copy_te <= 1.01
        x_i = rng.integers(0, 2, t_len)
        y_i = rng.integers(0, 2, t_len)
        assert transfer_entropy(x_i, y_i, 1) <= 0.005
        assert transfer_entropy(x_i, np.zeros(t_len, dtype=int), 1) == 0.0
        assert time.perf_counter() - start < 1.0


def test_criterion_3_miller_madow_values():
    with criterion(3, "Miller-Madow formula"):
        assert plugin_entropy([0, 0, 1, 1]).miller_madow == 1.125
        assert plugin_entropy([0, 1, 2, 3]).miller_madow == 2.375


def test_criterion_4_nmi_properties():
    from qocd.communities import Covering

    with criterion(4, "NMI properties"):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        for _ in range(50):
            c = random_covering(rng, int(rng.integers(4, 50)))
            assert nmi(c, c) == 1.0
        for _ in range(500):
            n = int(rng.integers(2, 51))
            a = random_covering(rng, n)
            b = random_covering(rng, n)
            ab, ba = nmi(a, b), nmi(b, a)
            assert abs(ab - ba) <= 1e-12
            assert 0.0 <= ab <= 1.0
        quad = frozenset("1234")
        first = Covering(universe=quad,
                         communities=(frozenset("12"), frozenset("34")))
        second = Covering(universe=quad,
                          communities=(frozenset("13"), frozenset("24")))
        assert nmi(first, second) == 0.0
        assert time.perf_counter() - start < 30.0


def test_criterion_5_hashtag_log_base_invariance():
    with criterion(5, "hashtag weight log-base invariance"):
        cfg = SynthConfig(nodes=100, communities=5, bins=300, p_in=0.4,
                          p_out=0.05, rho=0.1, epsilon=0.2, hashtag_rate=0.7,
                          seed=105)
        log, graph, _ = generate(cfg)
        natural = hashtag_similarity_weights(
            graph, hashtag_tfidf_vectors(log, graph.nodes, log_base=math.e))
        base2 = hashtag_similarity_weights(
            graph, hashtag_tfidf_vectors(log, graph.nodes, log_base=2.0))
        assert set(natural.weights) == set(base2.weights)
        assert any(w > 0 for w in natural.weights.values())
        for edge, w in natural.weights.items():
            assert w == pytest.approx(base2.weights[edge], abs=1e-12)


def test_criterion_6_edge_partition_totality():
    with criterion(6, "edge partition totality"):
        assert classify_edge(frozenset("A"), frozenset("A")) == "intra"
        assert classify_edge(frozenset("A"), frozenset("B")) == "inter"
        assert classify_edge(frozenset("AB"), frozenset("A")) == "mixed"
        for seed in (61, 62):
            cfg = SynthConfig(nodes=36, communities=3, bins=200, p_in=0.5,
                              p_out=0.08, rho=0.1, epsilon=0.2,
                              overlap_fraction=0.2, seed=seed)
            log, graph, truth = generate(cfg)
            wg = mention_retweet(graph, log)
            for covering in (truth.covering, detect_communities(wg)):
                classes = partition_edges(wg, covering)
                counts = {cls: 0 for cls in EDGE_CLASSES}
                for code in classes:
                    counts[EDGE_CLASSES[code]] += 1
                assert sum(counts.values()) == len(wg.graph.edges)


def test_criterion_7_planted_recovery():
    with criterion(7, "planted community recovery"):
        start = time.perf_counter()
        cfg = SynthConfig(nodes=200, communities=8, p_in=0.3, p_out=0.02,
                          epsilon=0.4, rho=0.05, bins=9072,
                          interaction_intra_bias=0.9, seed=7)
        log, graph, truth = generate(cfg)
        activity = batch_coarsen(log, graph, bin_width=cfg.bin_width,
                                 window=planted_window(cfg))
        te_cov = detect_communities(
            transfer_entropy_weights(graph, activity, 1))
        te_nmi = nmi(te_cov, truth.covering)
        mr_cov = detect_communities(mention_retweet(graph, log))
        mr_nmi = nmi(mr_cov, truth.covering)
        elapsed = time.perf_counter() - start
        print(f"  TE lag-1 NMI {te_nmi:.3f}, mention-retweet NMI {mr_nmi:.3f},"
              f" {elapsed:.1f}s")
        assert te_nmi >= 0.7
        assert mr_nmi >= 0.7
        assert elapsed < 120.0


def test_criterion_8_cross_boundary_information_flow():
    with criterion(8, "cross-boundary flow and covering family structure"):
        cfg = SynthConfig(nodes=120, communities=6, p_in=0.3, p_out=0.0,
                          epsilon=0.05, rho=0.05, bins=6000, seed=11,
                          cross_influencers=5, cross_span=3,
                          cross_epsilon=0.45)
        log, graph, truth = generate(cfg)
        activity = batch_coarsen(log, graph, bin_width=cfg.bin_width,
                                 window=planted_window(cfg))
        te1 = transfer_entropy_weights(graph, activity, 1)
        classes = partition_edges(te1, truth.covering)
        grouped = {cls: [] for cls in EDGE_CLASSES}
        for code, w in zip(classes, te1.values.tolist()):
            grouped[EDGE_CLASSES[code]].append(w)
        crossing = grouped["inter"] + grouped["mixed"]
        assert crossing and grouped["intra"]
        assert median_low(crossing) > median_low(grouped["intra"])

        te2 = transfer_entropy_weights(graph, activity, 2)
        cov1 = detect_communities(te1)
        cov2 = detect_communities(te2)
        cov_mr = detect_communities(mention_retweet(graph, log))
        adjacent = nmi(cov1, cov2)
        across = nmi(cov1, cov_mr)
        print(f"  NMI adjacent TE lags {adjacent:.3f} vs TE/MR {across:.3f}")
        assert across < adjacent


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism"):
        data = tmp_path / "data"
        synth_args = ["synth", "-o", str(data), "--seed", "9", "--nodes", "36",
                      "--communities", "3", "--bins", "600", "--p-in", "0.5",
                      "--p-out", "0.05", "--rho", "0.1", "--epsilon", "0.3"]
        assert main(synth_args) == 0
        runs = {}
        for name, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / name
            assert main(["pipeline", "-i", str(data), "-o", str(out),
                         "--threshold", "2", "--threads", str(threads)]) == 0
            runs[name] = _tree_bytes(out)
        assert runs["a"] == runs["b"]
        assert runs["a"] == runs["c"]
        assert any(name.startswith("weights/weights_te_lag4") for name in runs["a"])
