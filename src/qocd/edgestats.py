"""Edge partitioning by covering and conditional weight statistics.

Given a covering, every directed edge falls in exactly one class: inter
(endpoints share no membership row), intra (identical row sets), or mixed
(some but not all shared). Singleton rows take part like any other, so two
distinct singletons always make an inter-edge. A partition is one int8 array
of codes into ``EDGE_CLASSES``, in edge order. Weight distributions
conditioned on the class are summarized in one JSON-ready document: counts,
medians, fixed-width histograms, and raw CCDF points so plots need not
depend on binning.
"""

from __future__ import annotations

import numpy as np

from .communities import Covering, membership_rows
from .weighting import WeightedDigraph

EDGE_CLASSES = ("inter", "intra", "mixed")


def partition_edges(wg: WeightedDigraph, covering: Covering) -> np.ndarray:
    """Code into ``EDGE_CLASSES`` of every edge under the covering, as an
    int8 array in edge order."""
    graph = wg.graph
    index = {node: v for v, node in enumerate(covering.universe)}
    missing = [node for node in graph.nodes if node not in index]
    if missing:
        raise ValueError(f"node {missing[0]!r} has no covering membership")
    code = np.array([index[node] for node in graph.nodes], dtype=np.int64)
    m = len(graph.src)
    ends = code[np.concatenate([graph.src, graph.dst])]  # sources, then targets
    at, row = membership_rows(covering, ends)
    # a node's rows are distinct, so an (edge, row) key occurs twice exactly
    # when both endpoints hold the row
    keys = np.sort(at % m * len(covering.sizes) + row)
    shared = np.bincount(keys[1:][keys[1:] == keys[:-1]] // len(covering.sizes),
                         minlength=m)
    degree = np.diff(covering.indptr)[ends]
    same = (shared == degree[:m]) & (shared == degree[m:])
    return np.where(shared == 0, 0, np.where(same, 1, 2)).astype(np.int8)


def weight_ccdf(values) -> tuple[tuple[float, float], ...]:
    """(w, fraction of values strictly greater than w) per distinct value."""
    arr = np.asarray(values, dtype=np.float64)
    n = len(arr)
    distinct, counts = np.unique(arr, return_counts=True)
    above = n - np.cumsum(counts)
    return tuple((w, count / n)
                 for w, count in zip(distinct.tolist(), above.tolist()))


def conditional_weights(wg: WeightedDigraph, classes: np.ndarray,
                        bins: int = 50) -> dict:
    """Count, median, histogram, and CCDF of weights per edge class.

    ``classes`` holds one code into ``EDGE_CLASSES`` per edge, in edge
    order. The result is ``{"scheme", "classes": {name: {"count", "median",
    "histogram", "ccdf"}}}``, with no histogram for an empty class. The
    median is the lower middle value. Histograms share bin edges across
    classes (equal-width over the full observed weight range) so the three
    distributions are comparable.
    """
    classes = np.asarray(classes)
    if len(classes) != len(wg.values):
        raise ValueError(f"{len(classes)} edge classes for "
                         f"{len(wg.values)} edges")
    if len(wg.values):  # equal-width bins over the full weight range
        lo, hi = float(wg.values.min()), float(wg.values.max())
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
    summary = {"scheme": wg.scheme, "classes": {}}
    for code, name in enumerate(EDGE_CLASSES):
        ws = wg.values[classes == code]
        ordered = np.sort(ws)
        entry = {"count": len(ws), "median": ordered[(len(ws) - 1) // 2].item()
                 if len(ws) else None}
        if len(ws):
            entry["histogram"] = {
                "bin_edges": edges.tolist(),
                "counts": np.histogram(ws, bins=edges)[0].tolist()}
        entry["ccdf"] = [[w, p] for w, p in weight_ccdf(ws)]
        summary["classes"][name] = entry
    return summary


def size_ccdf(covering: Covering) -> list[tuple[int, float]]:
    """(s, fraction of non-singleton communities larger than s) per size."""
    sizes = covering.sizes[:len(covering.communities)]
    return [(int(s), p) for s, p in weight_ccdf(sizes)]
