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
from dataclasses import asdict, dataclass

import numpy as np

from .communities import Covering
from .ingest import Event, EventLog, StructuralGraph


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
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        cross_eps = self.epsilon if self.cross_epsilon is None else self.cross_epsilon
        if cross_eps < 0:
            raise ValueError("cross_epsilon must be non-negative")
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
    for c in range(cfg.communities):
        for i in range(n):
            if c in member_of[i]:
                comm_mask[c, i] = True
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

    events: list[Event] = []
    tag_pools = {
        c: [f"c{c}tag{t}" for t in range(cfg.hashtag_pool)]
        for c in range(cfg.communities)
    }
    shared_tags = [f"sharedtag{t}" for t in range(cfg.shared_pool)]
    for i in range(n):
        own = sorted(member_of[i])
        for t in np.flatnonzero(activity[i]).tolist():
            hashtags = ()
            if rng.random() < cfg.hashtag_rate:
                if own and rng.random() < cfg.own_pool_bias:
                    pool = tag_pools[own[int(rng.integers(len(own)))]]
                else:
                    pool = shared_tags
                if pool:
                    hashtags = (pool[int(rng.integers(len(pool)))],)
            events.append(Event(kind="post", actor=ids[i],
                                ts=t * cfg.bin_width, hashtags=hashtags))

    horizon = cfg.bins * cfg.bin_width
    for i in range(n):
        followers = sorted(np.flatnonzero(follow[i]).tolist())
        intra = [j for j in followers if shares[i, j]]
        events.extend(_interaction_events(
            rng, "mention", actor=ids[i], pool_intra=[ids[j] for j in intra],
            pool_all=[ids[j] for j in followers], rate=cfg.mention_events,
            bias=cfg.interaction_intra_bias, horizon=horizon))
    for j in range(n):
        followees = sorted(np.flatnonzero(follow[:, j]).tolist())
        intra = [i for i in followees if shares[i, j]]
        events.extend(_interaction_events(
            rng, "retweet", actor=ids[j], pool_intra=[ids[i] for i in intra],
            pool_all=[ids[i] for i in followees], rate=cfg.retweet_events,
            bias=cfg.interaction_intra_bias, horizon=horizon))

    events.sort(key=lambda e: (e.ts, e.kind, e.actor, e.target or ""))
    log = EventLog(events=tuple(events))

    # ids sort like their indices, and nonzero walks rows in order
    graph = StructuralGraph(tuple(ids), *np.nonzero(follow))

    influence_edges = {
        (ids[s], ids[t])
        for t, s in zip(*np.nonzero(influence_intra | influence_cross))
    }
    truth = PlantedTruth(
        covering=Covering(universe=ids, communities=tuple(communities)),
        influence_edges=frozenset(influence_edges),
    )
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


def _interaction_events(rng, kind: str, actor: str, pool_intra: list[str],
                        pool_all: list[str], rate: float, bias: float,
                        horizon: int) -> list[Event]:
    out = []
    for _ in range(int(rng.poisson(rate))):
        ts = int(rng.integers(horizon))
        use_intra = rng.random() < bias
        pool = pool_intra if (use_intra and pool_intra) else pool_all
        if not pool:
            continue
        target = pool[int(rng.integers(len(pool)))]
        out.append(Event(kind=kind, actor=actor, ts=ts, target=target))
    return out


def write_events_jsonl(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in log.events:
            rec: dict = {"kind": ev.kind, "actor": ev.actor, "ts": ev.ts}
            if ev.target is not None:
                rec["target"] = ev.target
            if ev.hashtags:
                rec["hashtags"] = list(ev.hashtags)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_influence_edges(truth: PlantedTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source,target\n")
        for src, tgt in sorted(truth.influence_edges):
            fh.write(f"{src},{tgt}\n")


def config_to_json(cfg: SynthConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"
