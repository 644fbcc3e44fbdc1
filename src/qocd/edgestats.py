"""Edge partitioning by covering and conditional weight statistics.

Given a covering, every directed edge falls in exactly one class: inter
(endpoints share no community), intra (identical membership sets), or mixed
(some but not all shared). Singleton memberships participate like any other,
so two distinct singletons always make an inter-edge. Weight distributions
conditioned on the class are summarized by counts, medians, fixed-width
histograms, and raw CCDF points so plots need not depend on binning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .communities import Covering
from .weighting import WeightedDigraph


class EdgeClass(enum.Enum):
    INTER = "inter"
    INTRA = "intra"
    MIXED = "mixed"


def classify_edge(mu: frozenset, mf: frozenset) -> EdgeClass:
    """Classify an edge from its endpoints' membership-row sets."""
    if not mu or not mf:
        raise ValueError("membership sets must be non-empty")
    if not mu & mf:
        return EdgeClass.INTER
    if mu == mf:
        return EdgeClass.INTRA
    return EdgeClass.MIXED


def partition_edges(wg: WeightedDigraph, covering: Covering,
                    ) -> tuple[EdgeClass, ...]:
    """Class of every edge of the graph under the covering, in edge order."""
    graph = wg.graph
    index = {node: v for v, node in enumerate(covering.universe)}
    missing = [node for node in graph.nodes if node not in index]
    if missing:
        raise ValueError(f"node {missing[0]!r} has no covering membership")
    indptr, rows = covering.indptr.tolist(), covering.rows.tolist()
    memberships = [frozenset(rows[indptr[v]:indptr[v + 1]])
                   for v in map(index.__getitem__, graph.nodes)]
    return tuple(classify_edge(memberships[v], memberships[u])
                 for v, u in zip(graph.src.tolist(), graph.dst.tolist()))


@dataclass(frozen=True)
class ClassStats:
    """Summary of the weights of one edge class."""

    count: int
    median: float | None
    histogram: tuple[np.ndarray, np.ndarray] | None  # (bin_edges, counts)
    ccdf: tuple[tuple[float, float], ...]  # (w, fraction strictly above w)


@dataclass(frozen=True)
class ConditionalWeightReport:
    scheme: str
    per_class: dict[EdgeClass, ClassStats]

    def to_summary(self) -> dict:
        out = {"scheme": self.scheme, "classes": {}}
        for cls in EdgeClass:
            stats = self.per_class[cls]
            entry = {"count": stats.count, "median": stats.median}
            if stats.histogram is not None:
                edges, counts = stats.histogram
                entry["histogram"] = {
                    "bin_edges": [float(e) for e in edges],
                    "counts": [int(c) for c in counts],
                }
            entry["ccdf"] = [[w, p] for w, p in stats.ccdf]
            out["classes"][cls.value] = entry
        return out


def median_low(values) -> float:
    """Median taking the lower of the two middle values for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return ordered[(len(ordered) - 1) // 2]


def weight_ccdf(values) -> tuple[tuple[float, float], ...]:
    """(w, fraction of values strictly greater than w) per distinct value."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    n = len(arr)
    if n == 0:
        return ()
    distinct = np.unique(arr)
    above = n - np.searchsorted(arr, distinct, side="right")
    return tuple((w, count / n)
                 for w, count in zip(distinct.tolist(), above.tolist()))


def conditional_weights(wg: WeightedDigraph, classes: Sequence[EdgeClass],
                        bins: int = 50) -> ConditionalWeightReport:
    """Count, median, histogram, and CCDF of weights per edge class.

    ``classes`` holds one class per edge, in edge order. Histograms share
    bin edges across classes (equal-width over the full observed weight
    range) so the three distributions are comparable.
    """
    if len(classes) != len(wg.values):
        raise ValueError(f"{len(classes)} edge classes for "
                         f"{len(wg.values)} edges")
    grouped: dict[EdgeClass, list[float]] = {cls: [] for cls in EdgeClass}
    for cls, w in zip(classes, wg.values.tolist()):
        grouped[cls].append(w)
    edges = None  # equal-width bins over the full weight range
    if len(wg.values):
        lo, hi = float(wg.values.min()), float(wg.values.max())
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
    per_class = {cls: ClassStats(
        count=len(ws), median=median_low(ws) if ws else None,
        histogram=(edges, np.histogram(ws, bins=edges)[0]) if ws else None,
        ccdf=weight_ccdf(ws)) for cls, ws in grouped.items()}
    return ConditionalWeightReport(scheme=wg.scheme, per_class=per_class)


def size_ccdf(covering: Covering) -> list[tuple[int, float]]:
    """(s, fraction of non-singleton communities larger than s) per size."""
    sizes = covering.sizes[:len(covering.communities)]
    return [(int(s), p) for s, p in weight_ccdf(sizes)]
