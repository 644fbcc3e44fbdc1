"""Entropy and transfer-entropy estimation on binary activity series.

Entropies are plug-in estimates in bits with the Miller-Madow bias
adjustment: H_adj = H_plugin + (observed_alphabet - 1) / (2n). Transfer
entropy from a source series y to a target series x at lag k is computed via
the joint-entropy decomposition

    TE = H[x_t, x_past] - H[x_past] - H[x_t, x_past, y_past] + H[x_past, y_past]

with each term adjusted using its own observed-alphabet count and the common
sample count n = T - k. A negative adjusted estimate is truncated to zero by
default; the raw value stays available via ``truncate=False``.

The first two terms depend on the target alone, so a pairwise table computes
them once per node and only the two joint terms once per edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activity import ActivityMatrix
from .ingest import StructuralGraph


@dataclass(frozen=True)
class EntropyEstimate:
    """Plug-in and Miller-Madow entropy of one empirical distribution."""

    plugin: float
    miller_madow: float
    observed_alphabet: int
    samples: int


def plugin_entropy(symbols: Sequence | np.ndarray) -> EntropyEstimate:
    """Plug-in entropy (bits) of a discrete sample, with bias adjustment.

    Symbols may be anything hashable; frequencies are empirical.
    """
    counts = Counter(_iter_symbols(symbols))
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no samples")
    probs = np.array(sorted(counts.values()), dtype=np.float64) / n
    plugin = float(-(probs * np.log2(probs)).sum())
    alphabet = len(counts)
    return EntropyEstimate(
        plugin=plugin,
        miller_madow=plugin + (alphabet - 1) / (2 * n),
        observed_alphabet=alphabet,
        samples=n,
    )


def _iter_symbols(symbols):
    if isinstance(symbols, np.ndarray):
        return (tuple(s) if isinstance(s, np.ndarray) else s.item()
                for s in symbols)
    return iter(symbols)


def as_bits(series: Sequence[int] | np.ndarray) -> np.ndarray:
    """Coerce a 0/1 sequence to a uint8 array."""
    arr = np.asarray(series)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("series values must be 0 or 1")
    return arr.astype(np.uint8)


MAX_LAG = 12  # a joint term counts 2^(2k+1) codes in int64: 256 MiB at 12


def _check_lag(k: int, t_len: int) -> None:
    if not 1 <= k <= MAX_LAG or k >= t_len:
        raise ValueError(f"lag k={k} must satisfy 1 <= k <= {MAX_LAG}, k < T={t_len}")


def _past_codes(bits: np.ndarray, k: int) -> np.ndarray:
    """Pack each k-bit past window along the last axis into an integer, one
    per sample: (..., T) bits give (..., T - k) codes."""
    t_len = bits.shape[-1]
    codes = np.zeros(bits.shape[:-1] + (t_len - k,), dtype=np.int64)
    for j in range(k, 0, -1):  # in place: bit t - j ends up at 1 << (j - 1)
        codes <<= 1
        codes |= bits[..., k - j:t_len - j]
    return codes


def _future_codes(bits: np.ndarray, past: np.ndarray, k: int) -> np.ndarray:
    """x_t + 2 x_past: each next bit joined to the code of its past."""
    codes = past << 1
    codes |= bits[..., k:]
    return codes


def _entropy_from_codes(codes: np.ndarray, n: int) -> tuple[float, int]:
    """Plug-in entropy (bits) and observed-alphabet size of packed codes."""
    counts = np.bincount(codes)
    nz = counts[counts > 0]
    probs = nz / n
    return float(-(probs * np.log2(probs)).sum()), len(nz)


def _node_terms(x_future: np.ndarray, x_past: np.ndarray, n: int):
    """The target-only terms: H[x_t, x_past] and H[x_past], each with its
    observed-alphabet size. ``x_future`` holds the codes x_t + 2 x_past."""
    return _entropy_from_codes(x_future, n), _entropy_from_codes(x_past, n)


def _edge_terms(x_future: np.ndarray, x_past: np.ndarray, y_past: np.ndarray,
                k: int, n: int):
    """The joint terms H[x_t, x_past, y_past] and H[x_past, y_past]."""
    return (_entropy_from_codes(x_future + (y_past << (k + 1)), n),
            _entropy_from_codes(x_past + (y_past << k), n))


def _te_from_terms(node_terms, edge_terms, n: int, truncate: bool) -> float:
    (h_xfp, a_xfp), (h_xp, a_xp) = node_terms
    (h_xfyp, a_xfyp), (h_xyp, a_xyp) = edge_terms
    raw = (h_xfp - h_xp - h_xfyp + h_xyp
           + (a_xfp - a_xp - a_xfyp + a_xyp) / (2 * n))
    if truncate and raw < 0.0:
        return 0.0
    return raw


def transfer_entropy(x, y, k: int, truncate: bool = True) -> float:
    """Adjusted lag-k transfer entropy from source y to target x, in bits.

    x is the target (follower) series and y the source (followee) series.
    With ``truncate`` the estimate is floored at zero; otherwise the raw,
    possibly negative adjusted value is returned.
    """
    xb, yb = as_bits(x), as_bits(y)
    if len(xb) != len(yb):
        raise ValueError(f"series lengths differ: {len(xb)} vs {len(yb)}")
    _check_lag(k, len(xb))
    n = len(xb) - k
    x_past, y_past = _past_codes(np.stack([xb, yb]), k)
    x_future = _future_codes(xb, x_past, k)
    return _te_from_terms(_node_terms(x_future, x_past, n),
                          _edge_terms(x_future, x_past, y_past, k, n),
                          n, truncate)


def pairwise_transfer_entropy(graph: StructuralGraph, activity: ActivityMatrix,
                              k: int, truncate: bool = True) -> np.ndarray:
    """Transfer entropy along every follow edge, in the graph's edge order.

    The followee is the source and the follower the target, matching the
    direction information flows. ``activity`` has one row per graph node,
    in the graph's node order.
    """
    if activity.nodes != graph.nodes:
        stray = sorted(set(activity.nodes).symmetric_difference(graph.nodes))
        raise ValueError(
            f"activity rows differ from the graph nodes at {stray[0]!r}")
    if not graph.nodes:
        return np.zeros(0)
    _check_lag(k, activity.bits.shape[1])
    n = activity.bits.shape[1] - k
    past = _past_codes(activity.bits, k)
    future = _future_codes(activity.bits, past, k)
    node_terms = {}
    table = np.empty(len(graph.src))
    for i, (y, x) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        if x not in node_terms:
            node_terms[x] = _node_terms(future[x], past[x], n)
        table[i] = _te_from_terms(
            node_terms[x], _edge_terms(future[x], past[x], past[y], k, n),
            n, truncate)
    return table
