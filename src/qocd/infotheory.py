"""Entropy and transfer-entropy estimation on binary activity series.

Entropies are plug-in estimates in bits with the Miller-Madow bias
adjustment: H_adj = H_plugin + (observed_alphabet - 1) / (2n). Transfer
entropy from a source series y to a target series x at lag k is computed via
the joint-entropy decomposition

    TE = H[x_t, x_past] - H[x_past] - H[x_t, x_past, y_past] + H[x_past, y_past]

with each term adjusted using its own observed-alphabet count and the common
sample count n = T - k. A negative adjusted estimate is truncated to zero by
default; the raw value stays available via ``truncate=False``.

Each series is packed into int32 codes of its (k+1)-bit windows, x_t at bit
0 above its k-bit past, and every pair of terms comes from one code array:
H[x_t, x_past] and H[x_past] from the target's windows, and the joint terms
from a code that puts the source's past above them. The first pair depends
on the target alone, so a pairwise table computes it once per node and only
the joint pair once per edge.
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
    counts = Counter(symbols)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no samples")
    plugin, alphabet = _entropy(np.array(sorted(counts.values())), n)
    return EntropyEstimate(
        plugin=plugin,
        miller_madow=plugin + (alphabet - 1) / (2 * n),
        observed_alphabet=alphabet,
        samples=n,
    )


MAX_LAG = 12  # a joint code has 2k+1 <= 25 bits; its bincount is 256 MiB at 12


def _window_codes(bits: np.ndarray, k: int) -> np.ndarray:
    """Pack each (k+1)-bit window along the last axis into an int32, one per
    sample: x_t at bit 0 and x_{t-j} at bit j, so ``w >> 1`` is the k-bit
    past. (..., T) bits give (..., T - k) codes."""
    t_len = bits.shape[-1]
    codes = np.zeros(bits.shape[:-1] + (t_len - k,), dtype=np.int32)
    for j in range(k, -1, -1):  # in place: bit t - j ends up at 1 << j
        codes <<= 1
        codes |= bits[..., k - j:t_len - j]
    return codes


def entropy_terms(counts: np.ndarray, n: int) -> np.ndarray:
    """-p log2 p for p = counts / n, elementwise, counts > 0: the one
    entropy term, shared by the TE estimates and the covering NMI."""
    p = counts / n
    return -p * np.log2(p)


def _entropy(counts: np.ndarray, n: int) -> tuple[float, int]:
    """Plug-in entropy (bits) and observed-alphabet size of symbol counts."""
    seen = counts[counts > 0]
    return float(entropy_terms(seen, n).sum()), len(seen)


def _entropies(codes: np.ndarray, n: int):
    """The entropy terms of a code array with and without its bit 0."""
    return _entropy(np.bincount(codes), n), _entropy(np.bincount(codes >> 1), n)


PAIR = StructuralGraph(("x", "y"), [1], [0])  # y -> x: y is the source


def transfer_entropy(x, y, k: int, truncate: bool = True) -> float:
    """Adjusted lag-k transfer entropy from source y to target x, in bits.

    x is the target (follower) series and y the source (followee) series.
    With ``truncate`` the estimate is floored at zero; otherwise the raw,
    possibly negative adjusted value is returned. The pair must be 0/1
    series of one length, as ``ActivityMatrix`` rows are. This is the
    one-edge case of ``pairwise_transfer_entropy`` on ``PAIR``: one kernel.
    """
    xa, ya = np.asarray(x), np.asarray(y)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if len(xa) != len(ya):
        raise ValueError(f"series lengths differ: {len(xa)} vs {len(ya)}")
    pair = ActivityMatrix(PAIR.nodes, np.stack([xa, ya]), 1, 0)
    return float(pairwise_transfer_entropy(PAIR, pair, k, truncate)[0])


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
    t_len = activity.bits.shape[1]
    if not 1 <= k <= MAX_LAG or k >= t_len:
        raise ValueError(f"lag k={k} must satisfy 1 <= k <= {MAX_LAG}, k < T={t_len}")
    n = t_len - k
    windows = _window_codes(activity.bits, k)
    target_terms = {}
    table = np.empty(len(graph.src))
    for i, (y, x) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        if x not in target_terms:
            target_terms[x] = _entropies(windows[x], n)
        (h_xfp, a_xfp), (h_xp, a_xp) = target_terms[x]
        # y_past above x's window: H[x_t, x_past, y_past], H[x_past, y_past]
        (h_xfyp, a_xfyp), (h_xyp, a_xyp) = _entropies(
            ((windows[y] >> 1) << (k + 1)) + windows[x], n)
        table[i] = (h_xfp - h_xp - h_xfyp + h_xyp
                    + (a_xfp - a_xp - a_xfyp + a_xyp) / (2 * n))
    if truncate:
        table[table < 0.0] = 0.0
    return table
