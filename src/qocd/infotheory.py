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
0 above its k-bit past. H[x_t, x_past] and H[x_past] come from a target's
windows, once per target; the joint terms from a code that puts the
source's past above them, once per edge. Rows go in chunks of about
``_CHUNK`` samples, counted by one ``bincount`` while a row's code width is
at most n, else by a row-wise sort that no width slows; both give each
row's codes seen with their counts, and one tail folds the ``>> 1`` counts
out of these runs. Each -p log2 p is read from ``entropy_table(n)``, and
each row's terms are summed alone in code order, as one ``.sum()`` would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    n = counts.total()
    if n == 0:
        raise ValueError("no samples")
    alphabet = len(counts)
    plugin = float(entropy_terms(np.array(sorted(counts.values())), n).sum())
    return EntropyEstimate(
        plugin=plugin,
        miller_madow=plugin + (alphabet - 1) / (2 * n),
        observed_alphabet=alphabet,
        samples=n,
    )


MAX_LAG = 12  # a joint code's 2k+1 bits fit int32; counting any width is O(n)


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


def fold(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as 3.11's builtin ``sum`` (not
    3.12's, which compensates): the one order of the output's float sums."""
    total = 0.0
    for v in values:
        total += v
    return total


def entropy_table(n: int) -> np.ndarray:
    """``entropy_terms`` of each count 0..n of n, indexed by count; 0 at 0."""
    return np.concatenate(([0.0], entropy_terms(np.arange(1, n + 1), n)))


_CHUNK = 1 << 15  # samples per chunk of rows; bounds the counting state


def _row_entropies(codes: np.ndarray, width: int, terms: np.ndarray) -> list:
    """H and observed alphabet of each row of ``codes`` (all below
    ``width``), then of its ``codes >> 1``: four sequences, one value per
    row. ``terms[c]`` is the entropy term of a count c. Consumes ``codes``."""
    rows, n = codes.shape
    # either path gives each row's codes seen in code order, counts, heads
    if width <= n:  # one bincount, each row's codes offset by its width
        codes += np.arange(0, rows * width, width, dtype=codes.dtype)[:, None]
        joint = np.bincount(codes.reshape(-1), minlength=rows * width)
        seen = np.flatnonzero(joint)
        counts = joint[seen]
        heads = np.searchsorted(seen, np.arange(0, rows * width, width))
    else:  # sort each row: one run per code, so the width costs nothing
        codes.sort(axis=1)
        flat = codes.reshape(-1)
        starts = _run_starts(flat, np.arange(0, flat.size, n))
        heads = np.searchsorted(starts, np.arange(0, flat.size, n))
        seen = flat[starts]
        counts = flat[:starts.size]  # the codes are read: their buffer holds these
        np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="same_kind")
        counts[-1] = flat.size - starts[-1]
        del starts  # each array goes once read, to keep the chunk state small
    found = _row_sums(terms, counts, heads)
    seen >>= 1  # the runs of one code >> 1 are adjacent
    starts = _run_starts(seen, heads)
    del seen
    counts = np.add.reduceat(counts, starts, dtype=counts.dtype)
    heads = np.searchsorted(starts, heads)
    del starts
    return found + _row_sums(terms, counts, heads)


def _run_starts(values: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Indices where ``values`` changes or a row starts (at ``heads``)."""
    first = np.concatenate(([True], values[1:] != values[:-1]))
    first[heads] = True
    return np.flatnonzero(first)


def _row_sums(terms: np.ndarray, counts: np.ndarray, heads: np.ndarray) -> list:
    """Entropy and observed alphabet of each row of nonzero ``counts``, row r
    from ``heads[r]``: one ``.sum()`` of its own terms, in code order."""
    gathered = terms[counts]
    bounds = heads.tolist() + [counts.size]
    return [[np.add.reduce(gathered[a:b]) for a, b in zip(bounds, bounds[1:])],
            np.diff(bounds)]


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
    terms = entropy_table(n)
    step = max(1, _CHUNK // n)  # rows per chunk
    own = np.empty((4, len(graph.nodes)))  # each node's terms as a target
    for i in range(0, len(graph.nodes), step):
        own[:, i:i + step] = _row_entropies(windows[i:i + step].copy(),
                                            2 << k, terms)
    table = np.empty(len(graph.src))
    for i in range(0, len(graph.src), step):
        x = graph.dst[i:i + step]
        h_xfp, a_xfp, h_xp, a_xp = own[:, x]  # H[x_t, x_past], H[x_past]
        # y_past above x's window: H[x_t, x_past, y_past], H[x_past, y_past]
        codes = (windows[graph.src[i:i + step]] >> 1) << (k + 1)
        codes += windows[x]
        h_xfyp, a_xfyp, h_xyp, a_xyp = _row_entropies(codes, 2 << 2 * k, terms)
        table[i:i + step] = (h_xfp - h_xp - h_xfyp + h_xyp
                             + (a_xfp - a_xp - a_xfyp + a_xyp) / (2 * n))
    if truncate:
        table[table < 0.0] = 0.0
    return table
