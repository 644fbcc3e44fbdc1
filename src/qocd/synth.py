"""Synthetic event-log generator with planted ground truth.

Produces a follow graph with planted (optionally overlapping) communities, a
post history in which chosen followee->follower pairs carry real lagged
influence, community-correlated hashtags, and community-biased mentions and
retweets. Everything is drawn from one seeded generator in a fixed order, so
a config reproduces its dataset exactly. The emitted event log and follow
edges use the same formats the ingest module reads, which lets the full
pipeline run end to end on known ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .communities import Covering
from .ingest import (EVENT_KINDS, MENTION, POST, RETWEET, EventLog,
                     StructuralGraph, open_output, write_csv)


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
        probs = {
            "overlap_fraction": self.overlap_fraction, "p_in": self.p_in,
            "p_out": self.p_out, "rho": self.rho,
            "cross_follow_prob": self.cross_follow_prob,
            "hashtag_rate": self.hashtag_rate,
            "own_pool_bias": self.own_pool_bias,
            "interaction_intra_bias": self.interaction_intra_bias,
        }
        for name, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_in <= self.p_out:
            raise ValueError("planted structure needs p_in > p_out")
        cross_eps = self.epsilon if self.cross_epsilon is None else self.cross_epsilon
        amounts = {name: getattr(self, name) for name in (
            "epsilon", "mention_events", "retweet_events", "influence_in_degree",
            "cross_influencers", "cross_span", "hashtag_pool", "shared_pool")}
        for name, value in dict(amounts, cross_epsilon=cross_eps).items():
            if not 0 <= value < np.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.rho + max(self.epsilon, cross_eps) > 1.0:
            raise ValueError("rho plus the largest coupling must not exceed 1")
        if self.communities < 1 or self.nodes < 2 * self.communities:
            raise ValueError("need at least two nodes per community")
        if self.bins < 2 or self.bin_width < 1:
            raise ValueError("need at least two bins of positive width")
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


def _plant_communities(cfg: SynthConfig, ids: list[str],
                       ) -> tuple[list[frozenset[str]], list[set[int]]]:
    """Contiguous blocks plus an overlap slice shared with the next block."""
    blocks = np.array_split(np.arange(cfg.nodes), cfg.communities)
    member_of: list[set[int]] = [set() for _ in range(cfg.nodes)]
    groups: list[set[int]] = [set(b.tolist()) for b in blocks]
    for c, block in enumerate(blocks):
        for i in block:
            member_of[i].add(c)
    if cfg.communities > 1 and cfg.overlap_fraction > 0:
        for c, block in enumerate(blocks):
            extra = int(round(cfg.overlap_fraction * len(block)))
            nxt = (c + 1) % cfg.communities
            for i in block[:extra]:
                groups[nxt].add(int(i))
                member_of[i].add(nxt)
    communities = [frozenset(ids[i] for i in g) for g in groups]
    return communities, member_of


def generate(cfg: SynthConfig) -> tuple[EventLog, StructuralGraph, PlantedTruth]:
    """Draw one dataset: events, follow graph, and the planted truth."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    ids = _node_ids(cfg.nodes)
    communities, member_of = _plant_communities(cfg, ids)
    n = cfg.nodes

    comm_mask = np.zeros((cfg.communities, n), dtype=bool)
    for i, member in enumerate(member_of):
        comm_mask[sorted(member), i] = True
    shares = (comm_mask.T.astype(np.int8) @ comm_mask.astype(np.int8)) > 0

    thresholds = np.where(shares, cfg.p_in, cfg.p_out)
    np.fill_diagonal(thresholds, 0.0)
    follow = rng.random((n, n)) < thresholds  # follow[v, u]: u follows v

    cross_eps = cfg.epsilon if cfg.cross_epsilon is None else cfg.cross_epsilon
    influence_intra = np.zeros((n, n), dtype=bool)  # [target, source]
    influence_cross = np.zeros((n, n), dtype=bool)

    for c in range(cfg.cross_influencers):
        src = max(i for i in range(n) if c in member_of[i])
        targets = [(c + off) % cfg.communities for off in range(1, cfg.cross_span + 1)]
        for tc in targets:
            for j in sorted(i for i in range(n) if tc in member_of[i]):
                if j == src or tc in member_of[src]:
                    continue
                if rng.random() < cfg.cross_follow_prob:
                    follow[src, j] = True
                    influence_cross[j, src] = True

    for j in range(n):
        candidates = [i for i in range(n)
                      if follow[i, j] and shares[i, j] and i != j
                      and not influence_cross[j, i]]
        if not candidates or cfg.influence_in_degree < 1:
            continue
        take = min(cfg.influence_in_degree, len(candidates))
        chosen = rng.choice(len(candidates), size=take, replace=False)
        for idx in sorted(chosen.tolist()):
            influence_intra[j, candidates[idx]] = True

    activity = _draw_activity(cfg, rng, influence_intra, influence_cross, cross_eps)

    tag_pools = [[f"c{c}tag{t}" for t in range(cfg.hashtag_pool)]
                 for c in range(cfg.communities)]
    shared_tags = [f"sharedtag{t}" for t in range(cfg.shared_pool)]
    own_pools = [sorted(m) for m in member_of]
    post_actor, post_bin = np.nonzero(activity)  # node by node, bins rising
    post_tags = []  # "" for a post without one
    for i in post_actor.tolist():
        tag, own = "", own_pools[i]
        if rng.random() < cfg.hashtag_rate:
            if own and rng.random() < cfg.own_pool_bias:
                pool = tag_pools[own[int(rng.integers(len(own)))]]
            else:
                pool = shared_tags
            if pool:
                tag = pool[int(rng.integers(len(pool)))]
        post_tags.append(tag)

    horizon = cfg.bins * cfg.bin_width
    drawn = []  # (kind, actor, ts, target) of every mention and retweet
    # a mention goes to a follower, a retweet to a followee
    for kind, pools, rate in ((MENTION, follow, cfg.mention_events),
                              (RETWEET, follow.T, cfg.retweet_events)):
        for i in range(n):
            pool = np.flatnonzero(pools[i]).tolist()
            intra = [j for j in pool if shares[i, j]]  # shares is symmetric
            drawn += _interaction_events(
                rng, kind, i, intra, pool, rate=rate,
                bias=cfg.interaction_intra_bias, horizon=horizon)

    posts = (np.full(len(post_actor), POST), post_actor,
             post_bin * cfg.bin_width, np.full(len(post_actor), -1))
    kind, actor, ts, target = (np.concatenate(pair) for pair in zip(
        posts, np.array(drawn, dtype=np.int64).reshape(-1, 4).T))
    tags, tag = np.unique([""] + post_tags + [""] * len(drawn),
                          return_inverse=True)  # "" first: code -1, no tag
    name_rank = np.argsort(np.argsort(EVENT_KINDS))  # mention < post < retweet
    order = np.lexsort((target, actor, name_rank[kind], ts))
    tag = tag[1:][order] - 1
    log = EventLog(tuple(ids), kind[order], actor[order], target[order],
                   ts[order], tuple(tags[1:].tolist()),
                   np.concatenate([[0], np.cumsum(tag >= 0)]), tag[tag >= 0])

    # ids sort like their indices, and nonzero walks rows in order
    graph = StructuralGraph(tuple(ids), *np.nonzero(follow))

    targets, sources = np.nonzero(influence_intra | influence_cross)
    truth = PlantedTruth(
        covering=Covering(universe=ids, communities=tuple(communities)),
        influence_edges=frozenset((ids[s], ids[t])
                                  for t, s in zip(targets, sources)))
    return log, graph, truth


def _draw_activity(cfg: SynthConfig, rng, influence_intra, influence_cross,
                   cross_eps: float) -> np.ndarray:
    """Sequential per-bin draws; activity[i, t] is node i's bit at bin t."""
    n, t_len, lag = cfg.nodes, cfg.bins, cfg.influence_lag
    a_intra = influence_intra.astype(np.uint8)
    a_cross = influence_cross.astype(np.uint8)
    activity = np.zeros((n, t_len), dtype=np.uint8)
    for t in range(t_len):
        if t < lag:
            rate = np.full(n, cfg.rho)
        else:
            prev = activity[:, t - lag]
            boost = np.where(a_intra @ prev > 0, cfg.epsilon, 0.0)
            boost = np.maximum(boost, np.where(a_cross @ prev > 0, cross_eps, 0.0))
            rate = cfg.rho + boost
        activity[:, t] = rng.random(n) < rate
    return activity


def _interaction_events(rng, kind: int, actor: int, pool_intra: list[int],
                        pool_all: list[int], rate: float, bias: float,
                        horizon: int) -> list[tuple[int, int, int, int]]:
    """(kind, actor, ts, target) of each event one actor draws."""
    out = []
    for _ in range(int(rng.poisson(rate))):
        ts = int(rng.integers(horizon))
        use_intra = rng.random() < bias
        pool = pool_intra if (use_intra and pool_intra) else pool_all
        if not pool:
            continue
        out.append((kind, actor, ts, pool[int(rng.integers(len(pool)))]))
    return out


def write_events_jsonl(log: EventLog, path) -> None:
    with open_output(path) as fh:
        for kind, actor, ts, target, hashtags in log.rows():
            rec: dict = {"kind": kind, "actor": actor, "ts": ts}
            if target is not None:
                rec["target"] = target
            if hashtags:
                rec["hashtags"] = list(hashtags)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_influence_edges(truth: PlantedTruth, path) -> None:
    write_csv(path, ["source", "target"], sorted(truth.influence_edges))
