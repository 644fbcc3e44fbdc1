import random
import tracemalloc

import numpy as np
import pytest

from qocd import synth
from qocd.activity import batch_coarsen
from qocd.communities import detect_communities
from qocd.compare import nmi
from qocd.synth import SynthConfig, generate
from qocd.weighting import structural_weights, transfer_entropy_weights

from oracles import brute_force_te, event_rows, loop_generate


def memberships(c) -> dict[str, set[int]]:
    """Node -> the rows of covering ``c`` it lies in, from the incidence."""
    return {node: set(c.rows[c.indptr[v]:c.indptr[v + 1]].tolist())
            for v, node in enumerate(c.universe)}


SMALL = dict(nodes=40, communities=4, bins=400, p_in=0.5, p_out=0.05,
             rho=0.1, epsilon=0.3, mention_events=6, retweet_events=6)


def test_determinism_under_fixed_seed():
    a = generate(SynthConfig(seed=5, **SMALL))
    b = generate(SynthConfig(seed=5, **SMALL))
    assert event_rows(a[0]) == event_rows(b[0])
    assert (a[1].nodes, a[1].edges) == (b[1].nodes, b[1].edges)
    assert a[2].covering == b[2].covering
    assert a[2].influence_edges == b[2].influence_edges
    c = generate(SynthConfig(seed=6, **SMALL))
    assert event_rows(c[0]) != event_rows(a[0])


def test_planted_covering_is_valid_and_sized():
    _, graph, truth = generate(SynthConfig(seed=1, **SMALL))
    assert truth.covering.universe == graph.nodes
    assert len(truth.covering.communities) == 4
    assert sum(len(c) for c in truth.covering.communities) == 40


def test_overlap_fraction_creates_shared_members():
    cfg = SynthConfig(seed=2, overlap_fraction=0.2, **SMALL)
    _, _, truth = generate(cfg)
    doubly = [n for n, m in memberships(truth.covering).items() if len(m) > 1]
    assert doubly  # some nodes carry two memberships
    disjoint = generate(SynthConfig(seed=2, **SMALL))[2]
    assert all(len(m) == 1 for m in memberships(disjoint.covering).values())


def test_influence_edges_are_structural_edges():
    _, graph, truth = generate(SynthConfig(seed=3, **SMALL))
    assert truth.influence_edges <= frozenset(graph.edges)


def test_events_respect_schema():
    log, graph, _ = generate(SynthConfig(seed=4, **SMALL))
    assert log.ids == graph.nodes
    for kind, actor, _, target, hashtags in event_rows(log):
        assert actor in graph.nodes
        if kind == "post":
            assert target is None
        else:
            assert target in graph.nodes and target != actor
            assert hashtags == ()


def test_no_coupling_means_no_information_flow():
    cfg = SynthConfig(seed=8, nodes=30, communities=3, bins=3000,
                      p_in=0.5, p_out=0.05, rho=0.15, epsilon=0.0,
                      mention_events=0, retweet_events=0)
    log, graph, truth = generate(cfg)
    activity = batch_coarsen(log, graph, bin_width=cfg.bin_width,
                             window=(0, cfg.bins * cfg.bin_width - 1))
    wg = transfer_entropy_weights(graph, activity, 1)
    on_influence = [wg.weights[e] for e in truth.influence_edges]
    elsewhere = [w for e, w in wg.weights.items()
                 if e not in truth.influence_edges]
    # with zero coupling the "influence" edges look like everything else
    assert abs(np.mean(on_influence) - np.mean(elsewhere)) < 3 * (
        np.std(elsewhere) / np.sqrt(len(on_influence)) + 1e-9) + 1e-3


def test_coupled_influence_edges_stand_out():
    cfg = SynthConfig(seed=9, nodes=60, communities=4, bins=4000,
                      p_in=0.4, p_out=0.02, rho=0.05, epsilon=0.4,
                      influence_in_degree=2,
                      mention_events=0, retweet_events=0)
    log, graph, truth = generate(cfg)
    activity = batch_coarsen(log, graph, bin_width=cfg.bin_width,
                             window=(0, cfg.bins * cfg.bin_width - 1))
    wg = transfer_entropy_weights(graph, activity, 1)
    on_influence = [wg.weights[e] for e in truth.influence_edges]
    elsewhere = [w for e, w in wg.weights.items()
                 if e not in truth.influence_edges]
    assert (np.mean(on_influence) - np.mean(elsewhere)
            >= 5 * np.std(elsewhere))
    # spot-check a handful of edges against the reference estimator
    for edge in sorted(truth.influence_edges)[:3]:
        followee, follower = edge
        x, y = graph.nodes.index(follower), graph.nodes.index(followee)
        expected = brute_force_te(activity.bits[x], activity.bits[y], 1)
        assert wg.weights[edge] == pytest.approx(max(expected, 0.0), abs=1e-10)


def test_recoverability_rises_with_density_contrast():
    scores = []
    for p_in, p_out in ((0.15, 0.12), (0.3, 0.06), (0.6, 0.01)):
        cfg = SynthConfig(seed=10, nodes=48, communities=4, bins=30,
                          p_in=p_in, p_out=p_out, rho=0.1, epsilon=0.0,
                          mention_events=0, retweet_events=0)
        _, graph, truth = generate(cfg)
        covering = detect_communities(structural_weights(graph))
        scores.append(nmi(covering, truth.covering))
    assert scores[0] < scores[1] < scores[2]


def test_cross_influencers_follow_other_communities():
    cfg = SynthConfig(seed=11, nodes=60, communities=6, bins=200,
                      p_in=0.4, p_out=0.01, rho=0.05, epsilon=0.1,
                      cross_influencers=3, cross_span=2, cross_epsilon=0.5)
    _, graph, truth = generate(cfg)
    member_sets = memberships(truth.covering)
    cross = [(s, t) for s, t in truth.influence_edges
             if not member_sets[s] & member_sets[t]]
    assert cross
    assert {s for s, _ in cross} <= set(graph.nodes)


def test_infeasible_configs_are_rejected():
    with pytest.raises(ValueError):
        SynthConfig(nodes=10, communities=8).validate()
    with pytest.raises(ValueError):
        SynthConfig(p_in=0.1, p_out=0.3).validate()
    with pytest.raises(ValueError):
        SynthConfig(rho=0.8, epsilon=0.4).validate()
    with pytest.raises(ValueError):
        SynthConfig(overlap_fraction=1.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(cross_influencers=2, cross_span=8, communities=8).validate()
    with pytest.raises(ValueError, match="inside the bin range"):
        SynthConfig(influence_lag=9072).validate()
    with pytest.raises(ValueError, match="one cross influencer per community"):
        SynthConfig(cross_influencers=9).validate()


@pytest.mark.parametrize("field, params", [
    ("influence_in_degree", dict(influence_in_degree=2.5)),
    ("nodes", dict(nodes=40.0)),
    ("cross_span", dict(cross_span=1.5)),
    ("seed", dict(seed=1.5)),
    ("influence_lag", dict(influence_lag=True)),
    ("seed", dict(seed=-1)),
    ("bin_width", dict(bins=100, bin_width=10**17)),
    ("nodes", dict(nodes=20, bins=10**8)),
    ("rho", dict(nodes=10_000, bins=100_000, rho=0.9, epsilon=0.1)),
    ("mention_events", dict(nodes=100, mention_events=1e9)),
    ("retweet_events", dict(nodes=10_000, retweet_events=1e4)),
    ("hashtag_pool", dict(hashtag_pool=2**32)),
    ("shared_pool", dict(shared_pool=np.uint64(2**32))),
])
def test_validate_rejects_what_generate_cannot_use(field, params):
    # each once passed validate and failed in generate with a TypeError or
    # a numpy error naming no field, drew a matrix of nodes x bins cells, or
    # expected more events than memory holds
    with pytest.raises(ValueError, match=field):
        SynthConfig(**params).validate()


def test_validate_accepts_the_defaults_at_paper_scale():
    SynthConfig(nodes=10_000, bins=9072).validate()


def test_generate_holds_under_four_bytes_per_node_pair():
    # the follow draw once held float64 thresholds and numbers for every
    # node pair at once: 16 B per pair
    cfg = SynthConfig(nodes=2000, communities=80, bins=20)
    tracemalloc.start()
    try:
        generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cfg.nodes ** 2


def test_validate_accepts_numpy_integer_counts():
    SynthConfig(nodes=np.int64(40), bins=np.int32(300), seed=np.uint8(3),
                bin_width=np.int64(2**40)).validate()


def test_boost_counts_every_active_influencer():
    # rho + epsilon == 1: a node with an active influencer at t - 1 is
    # active at t; about 258 of each node's 299 influencers are active
    cfg = SynthConfig(seed=3, nodes=600, communities=2, p_in=1.0, p_out=0.0,
                      influence_in_degree=299, rho=0.86, epsilon=0.14, bins=3,
                      mention_events=0, retweet_events=0)
    log, graph, truth = generate(cfg)
    bits = batch_coarsen(log, graph, bin_width=cfg.bin_width,
                         window=(0, cfg.bins * cfg.bin_width - 1)).bits
    pos = {node: i for i, node in enumerate(graph.nodes)}
    src, dst = np.array([[pos[v] for v in edge]
                         for edge in truth.influence_edges]).T
    active = np.array([np.bincount(dst, bits[src, t], minlength=cfg.nodes)
                       for t in range(cfg.bins - 1)])
    assert (active == 256).any()  # where a uint8 count wraps to 0
    assert bits[:, 1:].T[active > 0].all()


ORACLE_CONFIGS = [
    dict(nodes=40, communities=4, bins=200),
    dict(nodes=60, communities=5, bins=120, overlap_fraction=0.3),
    dict(nodes=60, communities=5, bins=100, overlap_fraction=0.25,
         cross_influencers=3, cross_span=2),
    dict(nodes=80, communities=6, bins=160, overlap_fraction=0.5,
         cross_influencers=4, cross_span=5, cross_epsilon=0.5, epsilon=0.2,
         cross_follow_prob=0.6),
    dict(nodes=30, communities=3, bins=200, influence_in_degree=0,
         influence_lag=3, cross_influencers=2, cross_span=1,
         cross_epsilon=0.1),
    dict(nodes=48, communities=4, bins=250, influence_lag=3, hashtag_pool=0,
         mention_events=0, retweet_events=0),
    dict(nodes=20, communities=1, bins=120, p_in=0.4, p_out=0.0,
         shared_pool=0, overlap_fraction=0.5),
    dict(nodes=50, communities=5, bins=100, p_out=0.0, shared_pool=0,
         influence_in_degree=9, rho=0.3, epsilon=0.7, cross_influencers=5,
         cross_span=3, cross_epsilon=0.2),
    # several follow-draw chunks of synth._SLICE // 600 rows, the last short
    dict(nodes=600, communities=6, bins=30),
]


@pytest.mark.parametrize("params", ORACLE_CONFIGS)
def test_generate_matches_the_loop_oracle(params):
    for seed in range(5):
        cfg = SynthConfig(seed=seed, **params)
        log, graph, truth = generate(cfg)
        ref_log, ref_graph, ref_truth = loop_generate(cfg)
        for name in ("ids", "kind", "actor", "target", "ts", "tags",
                     "tag_ptr", "tag_ids", "skipped"):
            got, want = getattr(log, name), getattr(ref_log, name)
            assert np.asarray(got).dtype == np.asarray(want).dtype, name
            assert np.array_equal(got, want), (name, seed)
        assert graph.nodes == ref_graph.nodes
        assert np.array_equal(graph.src, ref_graph.src)
        assert np.array_equal(graph.dst, ref_graph.dst)
        assert truth.covering == ref_truth.covering
        assert truth.influence_edges == ref_truth.influence_edges


@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("m", [2, 3, 6, 2**31 + 1, 3 * 10**9, 2**32 - 1])
def test_raw_replay_equals_the_scalar_calls(m, buffered, monkeypatch):
    # at m = 2**31 + 1 and 3e9 about half and 30% of the draws are rejected
    monkeypatch.setattr(synth, "_RAW_CHUNK", 5)  # many refills
    scalar, replayed = np.random.default_rng(29), np.random.default_rng(29)
    if buffered:  # a 32-bit draw leaves the word's high half buffered
        assert scalar.integers(7) == replayed.integers(7)
        assert replayed.bit_generator.state["has_uint32"] == 1
    calls = random.Random(m).choices(["random", "bounded", "one"], k=600)
    want = [scalar.random() if call == "random" else
            int(scalar.integers(m if call == "bounded" else 1))
            for call in calls]
    word, integers, settle = synth._raw_replay(replayed)
    got = [(word() >> 11) * 2.0**-53 if call == "random" else
           integers(m if call == "bounded" else 1) for call in calls]
    settle()
    assert got == want
    assert replayed.bit_generator.state == scalar.bit_generator.state
    assert replayed.random() == scalar.random()
    assert replayed.integers(m) == scalar.integers(m)


@pytest.mark.parametrize("params", [ORACLE_CONFIGS[i] for i in (0, 1, 5, 6)])
def test_generate_matches_the_loop_oracle_across_raw_chunks(params,
                                                            monkeypatch):
    # chunks of 3 words end inside posts and inside buffered half-words;
    # the configs: plain, own pools of length 2, hashtag_pool=0, shared_pool=0
    monkeypatch.setattr(synth, "_RAW_CHUNK", 3)
    for seed in range(3):
        cfg = SynthConfig(seed=seed, **params)
        log, ref_log = generate(cfg)[0], loop_generate(cfg)[0]
        for name in ("tags", "kind", "actor", "target", "ts", "tag_ptr",
                     "tag_ids"):
            assert np.array_equal(getattr(log, name),
                                  getattr(ref_log, name)), (name, seed)


def test_tag_pools_take_memory_by_the_tags_drawn():
    # every name of every pool was once built before the first draw: the
    # peak was 130 MB here, though only two tags are drawn
    cfg = SynthConfig(nodes=4, communities=2, bins=10, hashtag_pool=10**6)
    tracemalloc.start()
    try:
        log = generate(cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.tags) < 10
    assert peak < 4 * 2**20
