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
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

from .activity import ActivityMatrix
from .infotheory import pairwise_transfer_entropy
from .ingest import EventLog, StructuralGraph


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """A structural graph plus one weight per edge under a named scheme.

    ``values[i]`` is the weight of edge i of ``graph``: a read-only float64
    array in the graph's edge order.
    """

    graph: StructuralGraph
    values: np.ndarray
    scheme: str

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.shape != self.graph.src.shape:
            raise ValueError(f"{values.size} weights for "
                             f"{len(self.graph.src)} edges")
        if not (values >= 0).all():
            raise ValueError("weights must be non-negative numbers")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, weights: Mapping[tuple[str, str], float], scheme: str,
                     nodes: Iterable[str] = ()) -> "WeightedDigraph":
        """The graph on the edges of ``weights``, plus any extra nodes, with
        those weights."""
        graph = StructuralGraph.from_edges(weights, nodes)
        return cls(graph, [weights[e] for e in graph.edges], scheme)

    @cached_property
    def weights(self) -> Mapping[tuple[str, str], float]:
        """Read-only (followee, follower) -> weight view, in edge order."""
        return MappingProxyType(dict(zip(self.graph.edges,
                                         self.values.tolist())))


@dataclass(frozen=True)
class HashtagVector:
    """Sparse tf-idf profile of one user's hashtag usage."""

    user: str
    values: Mapping[str, float]

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values.values()))


def structural_weights(graph: StructuralGraph) -> WeightedDigraph:
    """Weight 1 on every follow edge."""
    return WeightedDigraph(graph, np.ones(len(graph.src)), "structural")


def transfer_entropy_weights(graph: StructuralGraph, activity: ActivityMatrix,
                             k: int, truncate: bool = True) -> WeightedDigraph:
    """Lag-k transfer entropy of the followee's series on the follower's."""
    table = pairwise_transfer_entropy(graph, activity, k, truncate=truncate)
    return WeightedDigraph(graph, table, f"te_lag{k}")


def _interactions(graph: StructuralGraph, log: EventLog,
                  kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Node indices of the actor and the target of every ``kind`` event
    between two graph nodes."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    pairs = [(index[ev.actor], index[ev.target]) for ev in log.events
             if ev.kind == kind and ev.actor in index and ev.target in index]
    codes = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return codes[:, 0], codes[:, 1]


def _share(graph: StructuralGraph, followee: np.ndarray,
           follower: np.ndarray) -> np.ndarray:
    """Per edge (v, u): the share of u's events that pair u with v, where
    event i pairs ``follower[i]`` with ``followee[i]``; 0 if u has none."""
    pairs = Counter(zip(followee.tolist(), follower.tolist()))
    count = [pairs[e] for e in zip(graph.src.tolist(), graph.dst.tolist())]
    total = np.bincount(follower, minlength=len(graph.nodes))[graph.dst]
    return np.divide(count, total, out=np.zeros(len(total)), where=total > 0)


def retweet_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = retweets of u by f / all retweets f made (in-network)."""
    actor, target = _interactions(graph, log, "retweet")
    return WeightedDigraph(graph, _share(graph, target, actor), "retweet")


def mention_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = mentions of f by u / all mentions of f (in-network)."""
    actor, target = _interactions(graph, log, "mention")
    return WeightedDigraph(graph, _share(graph, actor, target), "mention")


def mention_retweet_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """Arithmetic mean of the mention and retweet shares."""
    m = mention_share_weights(graph, log)
    r = retweet_share_weights(graph, log)
    return WeightedDigraph(graph, (m.values + r.values) / 2, "mention_retweet")


def hashtag_tfidf_vectors(log: EventLog, nodes: Collection[str],
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
    rows = [vectors[node] for node in graph.nodes]
    values = [cosine(rows[v], rows[u])
              for v, u in zip(graph.src.tolist(), graph.dst.tolist())]
    return WeightedDigraph(graph, values, "hashtag")


def orphans(wg: WeightedDigraph) -> frozenset[str]:
    """Nodes whose every incident edge carries zero weight."""
    positive = wg.values > 0
    alive = np.zeros(len(wg.graph.nodes), dtype=bool)
    alive[wg.graph.src[positive]] = True
    alive[wg.graph.dst[positive]] = True
    return frozenset(node for node, live in zip(wg.graph.nodes, alive.tolist())
                     if not live)
