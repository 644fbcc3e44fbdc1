"""Synthetic event-log generator with planted ground truth.

Produces a follow graph with planted (optionally overlapping) communities, a
post history in which chosen followee->follower pairs carry real lagged
influence, community-correlated hashtags, and community-biased mentions and
retweets. Everything is drawn from one seeded generator in a fixed order, so
a config reproduces its dataset exactly. The event log and follow graph it
returns are the ingest module's, which writes and reads them, so the full
pipeline runs end to end on known ground truth.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .activity import MAX_CELLS
from .communities import Covering
from .ingest import (EVENT_KINDS, MENTION, POST, RETWEET, EventLog,
                     StructuralGraph, _interned, write_csv)


# the paper's scale: the follow and shares matrices take 1 B per node pair each
MAX_NODES = 10_000
# expected events; synth peaks at about 53 B each (traced allocations, 828k
# events), so 2^26 take about 3.6 GB, and the defaults at 10^4 nodes and
# T = 9072 expect 4.1e7
MAX_EVENTS = 2**26
_SLICE = 1 << 16  # node pairs per follow-draw chunk, posts per tag-draw slice
COUNTS = ("nodes", "communities", "bins", "bin_width", "influence_in_degree",
          "influence_lag", "cross_influencers", "cross_span", "hashtag_pool",
          "shared_pool", "seed")
PROBS = ("overlap_fraction", "p_in", "p_out", "rho", "cross_follow_prob",
         "hashtag_rate", "own_pool_bias", "interaction_intra_bias")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic dataset; see ``validate`` for constraints."""

    nodes: int = 200
    communities: int = 8
    overlap_fraction: float = 0.0
    p_in: float = 0.3
    p_out: float = 0.02
    epsilon: float = 0.4
    rho: float = 0.05
    bins: int = 9072
    bin_width: int = 600
    influence_in_degree: int = 4
    influence_lag: int = 1
    cross_influencers: int = 0
    cross_span: int = 3
    cross_epsilon: float | None = None
    cross_follow_prob: float = 0.3
    hashtag_pool: int = 6
    shared_pool: int = 4
    hashtag_rate: float = 0.6
    own_pool_bias: float = 0.85
    mention_events: float = 12.0
    retweet_events: float = 12.0
    interaction_intra_bias: float = 0.9
    seed: int = 0

    def validate(self) -> None:
        for name in COUNTS:
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in PROBS:
            if not 0.0 <= (p := getattr(self, name)) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_in <= self.p_out:
            raise ValueError("planted structure needs p_in > p_out")
        cross_eps = self.epsilon if self.cross_epsilon is None else self.cross_epsilon
        amounts = {name: getattr(self, name) for name in (
            "epsilon", "mention_events", "retweet_events", "influence_in_degree",
            "cross_influencers", "cross_span", "hashtag_pool", "shared_pool",
            "seed")}
        for name, value in dict(amounts, cross_epsilon=cross_eps).items():
            if not 0 <= value < np.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.rho + max(self.epsilon, cross_eps) > 1.0:
            raise ValueError("rho plus the largest coupling must not exceed 1")
        if self.communities < 1 or self.nodes < 2 * self.communities:
            raise ValueError("need at least two nodes per community")
        if self.nodes > MAX_NODES:
            raise ValueError(f"nodes must be <= {MAX_NODES}, got {self.nodes}")
        if self.bins < 2 or self.bin_width < 1:
            raise ValueError("need at least two bins of positive width")
        if int(self.bins) * int(self.bin_width) >= 2**63:  # no numpy wrap
            raise ValueError("bins * bin_width must be < 2**63, got "
                             f"{self.bins} * {self.bin_width}")
        if int(self.nodes) * int(self.bins) > MAX_CELLS:
            raise ValueError(f"nodes * bins must be <= {MAX_CELLS}, got "
                             f"{self.nodes} * {self.bins}")
        posts = (self.rho + max(self.epsilon, cross_eps)) * self.bins
        events = self.nodes * (posts + self.mention_events + self.retweet_events)
        if events > MAX_EVENTS:
            raise ValueError("nodes * ((rho + max(epsilon, cross_epsilon)) * "
                             "bins + mention_events + retweet_events) must be "
                             f"<= {MAX_EVENTS} events, got {events:.4g}")
        if not 1 <= self.influence_lag < self.bins:
            raise ValueError("influence lag must fall inside the bin range")
        if self.cross_influencers > self.communities:
            raise ValueError("at most one cross influencer per community")
        if self.cross_span >= self.communities and self.cross_influencers:
            raise ValueError("cross influencers must leave some community untouched")


@dataclass(frozen=True)
class PlantedTruth:
    """What the generator hid in the data."""

    covering: Covering
    influence_edges: frozenset[tuple[str, str]]


def _node_ids(count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"u{i:0{width}d}" for i in range(count)]


def _stack(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=np.intp), *chunks])


def _plant_communities(cfg: SynthConfig) -> np.ndarray:
    """The (communities, nodes) membership matrix: contiguous blocks, each
    sharing its first ``overlap_fraction`` slice with the next block."""
    member = np.zeros((cfg.communities, cfg.nodes), dtype=bool)
    blocks = np.array_split(np.arange(cfg.nodes), cfg.communities)
    for c, block in enumerate(blocks):
        member[c, block] = True
        extra = int(round(cfg.overlap_fraction * len(block)))
        member[(c + 1) % cfg.communities, block[:extra]] = True
    return member


def generate(cfg: SynthConfig) -> tuple[EventLog, StructuralGraph, PlantedTruth]:
    """Draw one dataset: events, follow graph, and the planted truth."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    ids = _node_ids(cfg.nodes)
    member = _plant_communities(cfg)
    n = cfg.nodes
    shares = np.zeros((n, n), dtype=bool)  # do nodes i and j share one?
    for block in map(np.flatnonzero, member):
        shares[np.ix_(block, block)] = True

    # row chunks: random() fills row-major, so they draw one (n, n) draw
    follow = np.empty((n, n), dtype=bool)  # follow[v, u]: u follows v
    for lo in range(0, n, step := max(1, _SLICE // n)):
        thresholds = np.where(shares[lo:lo + step], cfg.p_in, cfg.p_out)
        np.fill_diagonal(thresholds[:, lo:], 0.0)
        follow[lo:lo + step] = rng.random(thresholds.shape) < thresholds

    # influence as (targets, sources) index arrays
    cross_t, cross_s = [], []
    for c in range(cfg.cross_influencers):
        src = np.flatnonzero(member[c])[-1]
        for off in range(1, cfg.cross_span + 1):
            tc = (c + off) % cfg.communities
            if member[tc, src]:
                continue
            targets = np.flatnonzero(member[tc])
            targets = targets[rng.random(len(targets)) < cfg.cross_follow_prob]
            follow[src, targets] = True
            cross_t.append(targets)
            cross_s.append(np.full(len(targets), src))
    cross = _stack(cross_t), _stack(cross_s)

    intra_t, intra_s = [], []
    for j in range(n):
        eligible = follow[:, j] & shares[:, j]
        eligible[cross[1][cross[0] == j]] = False  # already a cross source
        candidates = np.flatnonzero(eligible)
        if len(candidates) and cfg.influence_in_degree >= 1:
            take = min(cfg.influence_in_degree, len(candidates))
            chosen = rng.choice(len(candidates), size=take, replace=False)
            intra_t.append(np.full(take, j))
            intra_s.append(candidates[chosen])
    intra = _stack(intra_t), _stack(intra_s)

    cross_eps = cfg.epsilon if cfg.cross_epsilon is None else cfg.cross_epsilon
    # node by node, bins rising
    post_actor, post_bin = np.nonzero(_draw_activity(cfg, rng, sorted(
        [(cfg.epsilon, intra), (cross_eps, cross)], key=lambda p: p[0])))
    codes, post_tag, (kinds, actors, stamps, targets) = _draw_events(
        cfg, rng, member, follow, shares, post_actor)
    del shares
    # ids sort like their indices, and nonzero walks rows in order
    graph = StructuralGraph(tuple(ids), *np.nonzero(follow))
    del follow

    m, (tags, tag_rank) = len(post_actor), _interned(codes)  # posts first
    kind = np.concatenate([np.full(m, POST, dtype=np.uint8), kinds])
    actor = np.concatenate([post_actor.astype(np.int32), actors])
    ts = np.concatenate([post_bin * int(cfg.bin_width), stamps])
    target = np.concatenate([np.full(m, -1, dtype=np.int32), targets])
    tag = tag_rank[post_tag + array("i", [-1]) * len(kinds)]  # -1: no tag
    del post_actor, post_bin, post_tag, kinds, actors, stamps, targets
    name_rank = np.argsort(np.argsort(EVENT_KINDS)).astype(np.uint8)  # by name
    order = np.lexsort((target, actor, name_rank[kind], ts))
    kind, actor, target, ts, tag = (a[order] for a in (kind, actor, target,
                                                       ts, tag))
    del order
    tag_ptr, tag_ids = np.concatenate([[0], np.cumsum(tag >= 0)]), tag[tag >= 0]
    for column in (kind, actor, target, ts, tag_ptr, tag_ids):
        column.flags.writeable = False  # so EventLog keeps it, not a copy
    log = EventLog(tuple(ids), kind, actor, target, ts, tags, tag_ptr, tag_ids)

    influenced, sources = (np.concatenate(pair) for pair in zip(intra, cross))
    truth = PlantedTruth(
        covering=Covering(universe=ids, communities=tuple(
            frozenset(compress(ids, row)) for row in member)),
        influence_edges=frozenset((ids[s], ids[t])
                                  for t, s in zip(influenced, sources)))
    return log, graph, truth


def _draw_events(cfg: SynthConfig, rng, member, follow, shares, post_actor):
    """The draws after the activity: each post's tag code (or -1) and the tag
    table in order of first draw, then the mention and retweet columns."""
    tag_pools = [[f"c{c}tag{t}" for t in range(cfg.hashtag_pool)]
                 for c in range(cfg.communities)]
    shared_tags = [f"sharedtag{t}" for t in range(cfg.shared_pool)]
    own_pools = [np.flatnonzero(col).tolist() for col in member.T]
    codes: dict[str, int] = {}
    post_tag = array("i")
    for lo in range(0, len(post_actor), _SLICE):
        for i in post_actor[lo:lo + _SLICE].tolist():
            tag, own = -1, own_pools[i]
            if rng.random() < cfg.hashtag_rate:
                if own and rng.random() < cfg.own_pool_bias:
                    pool = tag_pools[own[int(rng.integers(len(own)))]]
                else:
                    pool = shared_tags
                if pool:
                    tag = codes.setdefault(
                        pool[int(rng.integers(len(pool)))], len(codes))
            post_tag.append(tag)

    horizon = cfg.bins * cfg.bin_width
    drawn = kinds, actors, stamps, targets = tuple(map(array, "Biqi"))
    # a mention goes to a follower, a retweet to a followee
    for kind, pools, rate in ((MENTION, follow, cfg.mention_events),
                              (RETWEET, follow.T, cfg.retweet_events)):
        for i in range(cfg.nodes):
            near = np.flatnonzero(pools[i] & shares[i]).tolist()  # symmetric
            every = np.flatnonzero(pools[i]).tolist()
            for _ in range(int(rng.poisson(rate))):
                stamp = int(rng.integers(horizon))
                use_near = rng.random() < cfg.interaction_intra_bias
                pool = near if (use_near and near) else every
                if pool:
                    kinds.append(kind)
                    actors.append(i)
                    stamps.append(stamp)
                    targets.append(pool[int(rng.integers(len(pool)))])
    return codes, post_tag, drawn


def _draw_activity(cfg: SynthConfig, rng, influence) -> np.ndarray:
    """Sequential per-bin draws; activity[i, t] is node i's bit at bin t.

    ``influence`` lists (coupling, (targets, sources)) in rising coupling
    order. A node's rate is ``rho`` plus the largest coupling with a source
    active ``influence_lag`` bins earlier, so later writes win."""
    n, lag = cfg.nodes, cfg.influence_lag
    activity = np.zeros((cfg.bins, n), dtype=bool)
    for t in range(cfg.bins):
        boost = np.zeros(n)
        if t >= lag:
            for coupling, (targets, sources) in influence:
                boost[targets[activity[t - lag, sources]]] = coupling
        activity[t] = rng.random(n) < cfg.rho + boost
    return activity.T


def write_influence_edges(truth: PlantedTruth, path) -> None:
    write_csv(path, ["source", "target"], sorted(truth.influence_edges))
