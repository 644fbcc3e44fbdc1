"""Normalized mutual information between two coverings.

Each covering is a stack of binary membership rows (one per community,
singletons included). For every row of one covering we ask how well the best
admissible row of the other predicts it, measured by normalized conditional
entropy; candidates that match the complement better than the community
itself are inadmissible. The score is 1 minus the average normalized
conditional entropy taken in both directions: 1 exactly for identical
coverings up to label order, 0 when neither side tells us anything about the
other.

Rows are never materialized. Each covering carries a node -> row incidence;
only the row pairs sharing a node get their overlap counted, at a cost of
sum over nodes v of |M_x(v)| * |M_y(v)|. A pair of disjoint rows has a
conditional term that depends on the two row sizes alone, so it is evaluated
once per X row and distinct Y row size. Singletons thus cost O(1) each.
"""

from __future__ import annotations

import numpy as np

from .communities import Covering, membership_rows
from .infotheory import entropy_table


def _overlaps(x: Covering, y: Covering,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X row, Y row, shared node count) for every pair of rows that meet."""
    node_of_x = np.repeat(np.arange(len(x.universe)), np.diff(x.indptr))
    at_x, pair_y = membership_rows(y, node_of_x)
    pair_x = x.rows[at_x]
    keys, n11 = np.unique(pair_x * len(y.sizes) + pair_y, return_counts=True)
    return keys // len(y.sizes), keys % len(y.sizes), n11


def _cell_terms(h11, h10, h01, h00, hy) -> np.ndarray:
    """Conditional entropy of X rows given Y rows, inf where inadmissible."""
    h_cond = np.maximum((h11 + h10) + (h01 + h00) - hy, 0.0)
    admissible = (h11 + h00) > (h01 + h10)
    return np.where(admissible, h_cond, np.inf)


def _mean_conditional_terms(x: Covering, y: Covering, h: np.ndarray,
                            pair_x: np.ndarray, pair_y: np.ndarray,
                            h11, h10, h01, h00) -> float:
    """Average normalized conditional entropy of X rows given Y rows.

    ``h`` is the entropy term of each count 0..n, and ``h11 .. h00`` are
    the joint-cell entropies of the meeting row pairs ``(pair_x, pair_y)``,
    with 1 meaning membership in the X row first.
    """
    n = len(x.universe)
    # per row: h(size), and the marginal entropy of its membership vector
    hx_size, hy_size = h[x.sizes], h[y.sizes]
    hx, hy = hx_size + h[n - x.sizes], hy_size + h[n - y.sizes]
    best = np.full(len(x.sizes), np.inf)
    np.minimum.at(best, pair_x,
                  _cell_terms(h11, h10, h01, h00, hy[pair_y]))
    # disjoint pairs: n11 = 0, so the term depends on (sx, sy) alone; a
    # size is skipped for an X row that meets every Y row of that size
    size_y, first, size_of_y, count = np.unique(
        y.sizes, return_index=True, return_inverse=True, return_counts=True)
    met = np.bincount(pair_x * len(size_y) + size_of_y[pair_y],
                      minlength=len(x.sizes) * len(size_y))
    all_met = met.reshape(len(x.sizes), len(size_y)) == count
    # n00 = n - sx - sy is negative where sx + sy > n: such pairs meet
    n00 = np.maximum(n - x.sizes[:, None] - size_y[None, :], 0)
    disjoint = _cell_terms(0.0, hx_size[:, None], hy_size[first][None, :],
                           h[n00], hy[first][None, :])
    best = np.minimum(best, np.where(all_met, np.inf, disjoint).min(axis=1))
    term = np.where(np.isfinite(best), best, hx)
    denom = np.where(hx > 0, hx, 1.0)
    normalized = np.where(hx > 0, np.minimum(term / denom, 1.0), 0.0)
    return float(normalized.mean())


def nmi(x: Covering, y: Covering) -> float:
    """Normalized mutual information between two coverings of one universe."""
    if x.universe != y.universe:
        raise ValueError("coverings must share the same universe")
    if not x.universe:
        raise ValueError("coverings must be non-empty")
    n = len(x.universe)
    h = entropy_table(n)
    pair_x, pair_y, n11 = _overlaps(x, y)
    n10 = x.sizes[pair_x] - n11
    n01 = y.sizes[pair_y] - n11
    h11, h10, h01, h00 = h[n11], h[n10], h[n01], h[n - n11 - n10 - n01]
    # given X, the Y rows' cells are the same with n10 and n01 swapped
    return 1.0 - 0.5 * (
        _mean_conditional_terms(x, y, h, pair_x, pair_y, h11, h10, h01, h00)
        + _mean_conditional_terms(y, x, h, pair_y, pair_x, h11, h01, h10, h00))


def nmi_matrix(coverings: dict[str, Covering]) -> tuple[list[str], np.ndarray]:
    """Symmetric NMI matrix over a labeled family of coverings."""
    labels = sorted(coverings)
    size = len(labels)
    matrix = np.eye(size)  # nmi(c, c) is exactly 1.0 for every covering
    for i in range(size):
        for j in range(i + 1, size):
            matrix[i, j] = matrix[j, i] = nmi(coverings[labels[i]],
                                              coverings[labels[j]])
    return labels, matrix
