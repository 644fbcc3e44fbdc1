"""Edge weightings over the follow graph.

Every scheme assigns a non-negative weight to each structural edge
(followee -> follower); the edge set itself never changes, only the weights:

* structural: constant 1.
* transfer entropy: see :mod:`qocd.infotheory`.
* retweet share: fraction of the follower's retweets that rebroadcast the
  followee.
* mention share: the followee's share of all mentions the follower receives.
* mention-retweet: arithmetic mean of the two shares.
* hashtag similarity: cosine similarity of tf-idf hashtag vectors.

Ratios with a zero denominator define weight 0, which is what strands the
"orphan" nodes whose incident weights all vanish.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .activity import ActivityMatrix
from .infotheory import pairwise_transfer_entropy
from .ingest import EventLog, StructuralGraph


@dataclass(frozen=True)
class WeightedDigraph:
    """A structural graph plus one weight per edge under a named scheme."""

    nodes: frozenset[str]
    weights: Mapping[tuple[str, str], float]
    scheme: str

    def __post_init__(self):
        for (v, u), w in self.weights.items():
            if v not in self.nodes or u not in self.nodes:
                raise ValueError(f"weighted edge ({v!r}, {u!r}) outside node set")
            if w < 0:
                raise ValueError(f"negative weight on edge ({v!r}, {u!r})")

    @property
    def edges(self):
        return self.weights.keys()


@dataclass(frozen=True)
class HashtagVector:
    """Sparse tf-idf profile of one user's hashtag usage."""

    user: str
    values: Mapping[str, float]

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values.values()))


def _from_weights(graph: StructuralGraph, weights, scheme: str) -> WeightedDigraph:
    return WeightedDigraph(nodes=graph.nodes, weights=dict(weights), scheme=scheme)


def structural_weights(graph: StructuralGraph) -> WeightedDigraph:
    """Weight 1 on every follow edge."""
    return _from_weights(graph, {e: 1.0 for e in graph.edges}, "structural")


def transfer_entropy_weights(graph: StructuralGraph, activity: ActivityMatrix,
                             k: int, truncate: bool = True) -> WeightedDigraph:
    """Lag-k transfer entropy of the followee's series on the follower's."""
    table = pairwise_transfer_entropy(graph, activity, k, truncate=truncate)
    return _from_weights(graph, table, f"te_lag{k}")


def retweet_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = retweets of u by f / all retweets f made (in-network)."""
    nodes = graph.nodes
    pair = Counter()
    total_by = Counter()
    for ev in log.events:
        if ev.kind != "retweet" or ev.actor not in nodes or ev.target not in nodes:
            continue
        pair[(ev.target, ev.actor)] += 1  # edge followee -> follower
        total_by[ev.actor] += 1
    weights = {}
    for v, u in graph.edges:
        denom = total_by.get(u, 0)
        weights[(v, u)] = pair.get((v, u), 0) / denom if denom else 0.0
    return _from_weights(graph, weights, "retweet")


def mention_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = mentions of f by u / all mentions of f (in-network)."""
    nodes = graph.nodes
    pair = Counter()
    total_of = Counter()
    for ev in log.events:
        if ev.kind != "mention" or ev.actor not in nodes or ev.target not in nodes:
            continue
        pair[(ev.actor, ev.target)] += 1  # edge followee -> follower
        total_of[ev.target] += 1
    weights = {}
    for v, u in graph.edges:
        denom = total_of.get(u, 0)
        weights[(v, u)] = pair.get((v, u), 0) / denom if denom else 0.0
    return _from_weights(graph, weights, "mention")


def mention_retweet_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """Arithmetic mean of the mention and retweet shares."""
    m = mention_share_weights(graph, log)
    r = retweet_share_weights(graph, log)
    weights = {e: (m.weights[e] + r.weights[e]) / 2 for e in graph.edges}
    return _from_weights(graph, weights, "mention_retweet")


def hashtag_tfidf_vectors(log: EventLog, nodes: frozenset[str] | set[str],
                          log_base: float = math.e) -> dict[str, HashtagVector]:
    """tf-idf hashtag vector per user: count(tag) * log(N / users_using_tag).

    Tags used by every user score zero and are dropped from the vectors, as
    is any tag a user never used. The log base only rescales the vectors, so
    downstream cosine weights are base-independent.
    """
    if not nodes:
        raise ValueError("need at least one user for tf-idf")
    n_users = len(nodes)
    tag_counts: dict[str, Counter] = {u: Counter() for u in nodes}
    for ev in log.events:
        if ev.kind != "post" or ev.actor not in tag_counts:
            continue
        for tag in ev.hashtags:
            tag_counts[ev.actor][tag.lower()] += 1
    users_using = Counter()
    for counts in tag_counts.values():
        for tag in counts:
            users_using[tag] += 1
    scale = math.log(log_base)
    vectors = {}
    for user in nodes:
        values = {}
        for tag, count in tag_counts[user].items():
            idf = math.log(n_users / users_using[tag]) / scale
            if idf > 0:
                values[tag] = count * idf
        vectors[user] = HashtagVector(user=user, values=values)
    return vectors


def cosine(a: HashtagVector, b: HashtagVector) -> float:
    """Cosine similarity of two sparse vectors; 0 if either is all-zero."""
    if len(a.values) > len(b.values):
        a, b = b, a
    dot = sum(v * b.values.get(tag, 0.0) for tag, v in a.values.items())
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.norm() * b.norm()))


def hashtag_similarity_weights(graph: StructuralGraph,
                               vectors: dict[str, HashtagVector],
                               ) -> WeightedDigraph:
    """Cosine similarity of the endpoint users' hashtag vectors."""
    weights = {}
    for v, u in graph.edges:
        weights[(v, u)] = cosine(vectors[v], vectors[u])
    return _from_weights(graph, weights, "hashtag")


def orphans(wg: WeightedDigraph) -> frozenset[str]:
    """Nodes whose every incident edge carries zero weight."""
    alive = set()
    for (v, u), w in wg.weights.items():
        if w > 0:
            alive.add(v)
            alive.add(u)
    return frozenset(wg.nodes - alive)
