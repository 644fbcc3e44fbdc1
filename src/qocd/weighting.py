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
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

from .activity import ActivityMatrix
from .infotheory import fold, pairwise_transfer_entropy
from .ingest import (MENTION, RETWEET, EventLog, StructuralGraph, _exact_cast,
                     information_flow)


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """A structural graph plus one weight per edge under a named scheme.

    ``values[i]`` is the weight of edge i of ``graph``: a read-only float64
    array in the graph's edge order, cast as ``EventLog`` columns are, with
    0.0 for each -0.0, so that equal weights have equal bits.
    """

    graph: StructuralGraph
    values: np.ndarray
    scheme: str

    def __post_init__(self):
        values = _exact_cast(self.values, np.float64)
        if values.shape != self.graph.src.shape:
            raise ValueError(f"{values.size} weights for "
                             f"{len(self.graph.src)} edges")
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("weights must be finite non-negative numbers")
        if np.signbit(values).any():  # a -0.0, the one signed value left
            values = _exact_cast(values + 0.0, np.float64)
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


def structural_weights(graph: StructuralGraph) -> WeightedDigraph:
    """Weight 1 on every follow edge."""
    return WeightedDigraph(graph, np.ones(len(graph.src)), "structural")


def transfer_entropy_weights(graph: StructuralGraph, activity: ActivityMatrix,
                             k: int) -> WeightedDigraph:
    """Lag-k transfer entropy of the followee's series on the follower's,
    truncated at zero."""
    table = pairwise_transfer_entropy(graph, activity, k)
    return WeightedDigraph(graph, table, f"te_lag{k}")


def _share(graph: StructuralGraph, log: EventLog, kind: int) -> np.ndarray:
    """Per edge (v, u): the share of the events of kind code ``kind`` that u
    receives from graph nodes, by :func:`information_flow`, whose source is
    v; 0 if u receives none."""
    kinds, source, receiver = information_flow(log, graph.nodes)
    followee, follower = source[kinds == kind], receiver[kinds == kind]
    n = len(graph.nodes)
    keys = graph.src.astype(np.int64) * n + graph.dst  # sorted: edge order
    pairs = followee.astype(np.int64) * n + follower
    on_edge = pairs[np.isin(pairs, keys)]
    count = np.bincount(np.searchsorted(keys, on_edge), minlength=len(keys))
    total = np.bincount(follower, minlength=n)[graph.dst]
    return np.divide(count, total, out=np.zeros(len(total)), where=total > 0)


def retweet_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = retweets of u by f / all retweets f made (in-network)."""
    return WeightedDigraph(graph, _share(graph, log, RETWEET), "retweet")


def mention_share_weights(graph: StructuralGraph, log: EventLog) -> WeightedDigraph:
    """w(u -> f) = mentions of f by u / all mentions of f (in-network)."""
    return WeightedDigraph(graph, _share(graph, log, MENTION), "mention")


def mention_retweet_weights(mention: WeightedDigraph,
                            retweet: WeightedDigraph) -> WeightedDigraph:
    """Arithmetic mean of a mention and a retweet share table on one graph
    (the same ``StructuralGraph`` object)."""
    if mention.graph != retweet.graph:
        raise ValueError("the shares lie on different graphs")
    return WeightedDigraph(mention.graph, (mention.values + retweet.values) / 2,
                           "mention_retweet")


def hashtag_tfidf_vectors(log: EventLog, nodes: Collection[str],
                          log_base: float = math.e,
                          ) -> dict[str, dict[str, float]]:
    """tf-idf hashtag vector per user: count(tag) * log(N / users_using_tag).

    Tags used by every user score zero and are dropped from the vectors, as
    is any tag a user never used. The log base only rescales the vectors:
    cosines of two bases agree mathematically, not bit for bit. Each vector
    is a plain ``{tag: value}`` dict in the order the user first used them.
    """
    users = list(nodes)
    if not users:
        raise ValueError("need at least one user for tf-idf")
    if len(set(users)) != len(users):  # N would count a user twice
        raise ValueError("tf-idf users must be unique")
    poster = np.repeat(log.positions(users)[0], np.diff(log.tag_ptr))
    used = poster >= 0
    width = max(len(log.tags), 1)
    pairs = poster[used].astype(np.int64) * width + log.tag_ids[used]
    keys, first, counts = np.unique(pairs, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)  # the (user, tag) pairs by first use
    who, tag = np.divmod(keys[order], width)
    scale = math.log(log_base)
    idf = [math.log(len(users) / using) / scale if using else 0.0
           for using in np.bincount(tag, minlength=len(log.tags)).tolist()]
    vectors: list[dict[str, float]] = [{} for _ in users]
    for u, t, count in zip(who.tolist(), tag.tolist(), counts[order].tolist()):
        if idf[t] > 0:
            vectors[u][log.tags[t]] = count * idf[t]
    return dict(zip(users, vectors))


def cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse ``{tag: value}`` vectors, summed by
    ``fold``; 0 if either is all-zero. The dot product scans the shorter."""
    if len(a) > len(b):
        a, b = b, a
    dot = fold(v * b.get(tag, 0.0) for tag, v in a.items())
    if dot == 0.0:
        return 0.0
    norm_a, norm_b = (math.sqrt(fold(v * v for v in vec.values()))
                      for vec in (a, b))
    return min(1.0, dot / (norm_a * norm_b))


def hashtag_similarity_weights(graph: StructuralGraph,
                               vectors: Mapping[str, Mapping[str, float]],
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
