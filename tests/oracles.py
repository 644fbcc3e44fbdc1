"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (explicit
tuples, Counter, math.log2, dense membership matrices) and shares no code
with the package internals.
"""

import math
from collections import Counter
from typing import NamedTuple

import numpy as np


def mm_entropy(symbols) -> float:
    """Plug-in entropy in bits plus the (A - 1) / 2n bias adjustment."""
    counts = Counter(symbols)
    n = sum(counts.values())
    h = -sum((c / n) * math.log2(c / n) for c in counts.values())
    return h + (len(counts) - 1) / (2 * n)


def brute_force_te(x, y, k: int) -> float:
    """Adjusted transfer entropy via the two-conditional-entropy form.

    Each conditional entropy is a difference of adjusted joint and marginal
    entropies over explicitly materialized past tuples.
    """
    x = [int(v) for v in x]
    y = [int(v) for v in y]
    fut, x_past, y_past = [], [], []
    for t in range(k, len(x)):
        fut.append(x[t])
        x_past.append(tuple(x[t - k:t]))
        y_past.append(tuple(y[t - k:t]))
    h_own = mm_entropy(list(zip(fut, x_past))) - mm_entropy(x_past)
    h_joint = (mm_entropy(list(zip(fut, x_past, y_past)))
               - mm_entropy(list(zip(x_past, y_past))))
    return h_own - h_joint


def _h(count: int, n: int) -> float:
    if count <= 0:
        return 0.0
    p = count / n
    return -p * math.log2(p)


def covering_rows(covering) -> list[tuple[int, ...]]:
    """Binary membership rows (communities then singletons) of a covering."""
    order = sorted(covering.universe)
    rows = []
    for comm in covering.communities:
        rows.append(tuple(1 if node in comm else 0 for node in order))
    for node in covering.singletons:
        rows.append(tuple(1 if other == node else 0 for other in order))
    return rows


def _row_term(row, others) -> float:
    n = len(row)
    ones = sum(row)
    hx = _h(ones, n) + _h(n - ones, n)
    if hx == 0.0:
        return 0.0
    best = None
    for other in others:
        n11 = sum(1 for a, b in zip(row, other) if a and b)
        n10 = sum(1 for a, b in zip(row, other) if a and not b)
        n01 = sum(1 for a, b in zip(row, other) if not a and b)
        n00 = n - n11 - n10 - n01
        if _h(n11, n) + _h(n00, n) > _h(n01, n) + _h(n10, n):
            joint = _h(n11, n) + _h(n10, n) + _h(n01, n) + _h(n00, n)
            hy = _h(n11 + n01, n) + _h(n10 + n00, n)
            cond = max(0.0, joint - hy)
            if best is None or cond < best:
                best = cond
    term = hx if best is None else best
    return min(1.0, term / hx)


def reference_nmi(c1, c2) -> float:
    """Direct, loop-based evaluation of the covering NMI."""
    rows_x = covering_rows(c1)
    rows_y = covering_rows(c2)
    tx = sum(_row_term(r, rows_y) for r in rows_x) / len(rows_x)
    ty = sum(_row_term(r, rows_x) for r in rows_y) / len(rows_y)
    return 1.0 - 0.5 * (tx + ty)


class PairEntropies(NamedTuple):
    """Joint and marginal entropy pieces of two binary membership rows."""

    h00: float
    h01: float
    h10: float
    h11: float
    hx: float
    hy: float


def _h_array(count, n: int):
    """-p log2 p for p = count/n, elementwise, with h(0) = 0."""
    p = np.asarray(count, dtype=np.float64) / n
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = -p[nz] * np.log2(p[nz])
    return float(out[0]) if scalar else out


def pair_entropies(row_x, row_y) -> PairEntropies:
    """Empirical joint-cell and marginal entropies of two membership rows."""
    x = np.asarray(row_x, dtype=bool)
    y = np.asarray(row_y, dtype=bool)
    if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
        raise ValueError("rows must be equal-length, non-empty 1-D vectors")
    n = len(x)
    n11 = int(np.count_nonzero(x & y))
    n10 = int(np.count_nonzero(x & ~y))
    n01 = int(np.count_nonzero(~x & y))
    n00 = n - n11 - n10 - n01
    return PairEntropies(
        h00=_h_array(n00, n), h01=_h_array(n01, n),
        h10=_h_array(n10, n), h11=_h_array(n11, n),
        hx=_h_array(n11 + n10, n) + _h_array(n01 + n00, n),
        hy=_h_array(n11 + n01, n) + _h_array(n10 + n00, n),
    )


def conditional_term(row_x, rows_y) -> float:
    """Normalized conditional entropy of one row given a whole covering.

    A candidate row predicting the complement of ``row_x`` better than
    ``row_x`` itself is inadmissible; with no admissible candidate the term
    is 1, and a row with zero marginal entropy contributes 0.
    """
    best = None
    hx = None
    for row_y in rows_y:
        pe = pair_entropies(row_x, row_y)
        hx = pe.hx
        if pe.h11 + pe.h00 > pe.h01 + pe.h10:
            h_cond = max(0.0, pe.h00 + pe.h01 + pe.h10 + pe.h11 - pe.hy)
            if best is None or h_cond < best:
                best = h_cond
    if hx is None:
        hx = pair_entropies(row_x, row_x).hx
    if hx == 0.0:
        return 0.0
    term = hx if best is None else best
    return min(1.0, term / hx)


def membership_matrix(covering, node_order=None) -> np.ndarray:
    """Dense boolean rows, one per community followed by one per singleton."""
    order = sorted(covering.universe) if node_order is None else list(node_order)
    index = {node: i for i, node in enumerate(order)}
    rows = len(covering.communities) + len(covering.singletons)
    matrix = np.zeros((rows, len(order)), dtype=bool)
    for r, comm in enumerate(covering.communities):
        for node in comm:
            matrix[r, index[node]] = True
    for r, node in enumerate(covering.singletons, start=len(covering.communities)):
        matrix[r, index[node]] = True
    return matrix


def _dense_mean_conditional_terms(x_rows, y_rows) -> float:
    n = x_rows.shape[1]
    n11 = x_rows.astype(np.int64) @ y_rows.astype(np.int64).T
    sx = x_rows.sum(axis=1, dtype=np.int64)
    sy = y_rows.sum(axis=1, dtype=np.int64)
    n10 = sx[:, None] - n11
    n01 = sy[None, :] - n11
    n00 = n - n11 - n10 - n01
    h11, h10 = _h_array(n11, n), _h_array(n10, n)
    h01, h00 = _h_array(n01, n), _h_array(n00, n)
    hx = _h_array(sx, n) + _h_array(n - sx, n)
    hy = _h_array(sy, n) + _h_array(n - sy, n)
    h_cond = np.maximum((h11 + h10) + (h01 + h00) - hy[None, :], 0.0)
    admissible = (h11 + h00) > (h01 + h10)
    h_cond = np.where(admissible, h_cond, np.inf)
    best = h_cond.min(axis=1)
    term = np.where(np.isfinite(best), best, hx)
    denom = np.where(hx > 0, hx, 1.0)
    normalized = np.where(hx > 0, np.minimum(term / denom, 1.0), 0.0)
    return float(normalized.mean())


def dense_nmi(c1, c2) -> float:
    """Covering NMI from dense membership matrices and an int64 matmul.

    Same float arithmetic as the library's sparse evaluation, so the two
    agree exactly; time O(rows_x * rows_y * n), memory O(rows * n).
    """
    if c1.universe != c2.universe:
        raise ValueError("coverings must share the same universe")
    if not c1.universe:
        raise ValueError("coverings must be non-empty")
    order = sorted(c1.universe)
    x_rows = membership_matrix(c1, order)
    y_rows = membership_matrix(c2, order)
    return 1.0 - 0.5 * (_dense_mean_conditional_terms(x_rows, y_rows)
                        + _dense_mean_conditional_terms(y_rows, x_rows))


def loop_partition_edges(wg, covering) -> list[str]:
    """Class ('inter', 'intra' or 'mixed') of each edge of ``wg``, in edge
    order, from membership-id sets: a node's community indices, or
    ``singleton:<node>`` for a node in no community."""
    memberships = {node: set() for node in covering.universe}
    for i, comm in enumerate(covering.communities):
        for node in comm:
            memberships[node].add(i)
    for node, ids in memberships.items():
        if not ids:
            ids.add(f"singleton:{node}")
    classes = []
    for v, u in wg.graph.edges:
        for node in (v, u):
            if node not in memberships:
                raise ValueError(f"node {node!r} has no covering membership")
        mu, mf = memberships[v], memberships[u]
        if not mu & mf:
            classes.append("inter")
        elif mu == mf:
            classes.append("intra")
        else:
            classes.append("mixed")
    return classes


def loop_weight_ccdf(values) -> tuple:
    """(w, fraction of values strictly greater than w) per distinct value."""
    values = [float(v) for v in values]
    return tuple((w, sum(1 for v in values if v > w) / len(values))
                 for w in sorted(set(values)))



class _FitnessState:
    """Internal and boundary weight of one growing community, with every
    link sum recomputed from scratch."""

    def __init__(self, adjacency, strength, alpha):
        self.adjacency = adjacency
        self.strength = strength
        self.alpha = alpha
        self.members = set()
        self.w_in = 0.0
        self.w_bnd = 0.0

    def fitness(self, w_in=None, w_bnd=None) -> float:
        w_in = self.w_in if w_in is None else w_in
        w_bnd = self.w_bnd if w_bnd is None else w_bnd
        total = w_in + w_bnd
        if total <= 0:
            return 0.0
        return w_in / total ** self.alpha

    def _link_to_members(self, node, exclude=None) -> float:
        return sum(w for nbr, w in self.adjacency[node].items()
                   if nbr in self.members and nbr != exclude)

    def fitness_with(self, node) -> float:
        linked = self._link_to_members(node)
        w_in = self.w_in + linked
        w_bnd = self.w_bnd - linked + (self.strength[node] - linked)
        return self.fitness(w_in, w_bnd)

    def fitness_without(self, node) -> float:
        linked = self._link_to_members(node, exclude=node)
        w_in = self.w_in - linked
        w_bnd = self.w_bnd - (self.strength[node] - linked) + linked
        return self.fitness(w_in, w_bnd)

    def add(self, node) -> None:
        linked = self._link_to_members(node)
        self.w_in += linked
        self.w_bnd += self.strength[node] - 2 * linked
        self.members.add(node)

    def remove(self, node) -> None:
        self.members.discard(node)
        linked = self._link_to_members(node)
        self.w_in -= linked
        self.w_bnd -= self.strength[node] - 2 * linked

    def frontier(self) -> list:
        out = set()
        for member in self.members:
            out.update(n for n in self.adjacency[member] if n not in self.members)
        return sorted(out)


def loop_detect_communities(wg, alpha: float = 1.0) -> tuple:
    """The greedy LFM-style detector on string-keyed dicts, read from the
    ``wg.weights`` mapping: the communities of ``detect_communities``, in
    order. Every frontier and every link sum is rebuilt at every step."""
    adjacency = {}
    for (v, u), w in wg.weights.items():  # edge order
        if w > 0:
            adjacency.setdefault(v, {})
            adjacency.setdefault(u, {})
            adjacency[v][u] = adjacency[v].get(u, 0.0) + w
            adjacency[u][v] = adjacency[u].get(v, 0.0) + w
    strength = {node: sum(nbrs.values()) for node, nbrs in adjacency.items()}
    covered = set()
    communities = []
    known = set()
    for seed in sorted(adjacency, key=lambda n: (-strength[n], n)):
        if seed in covered or strength[seed] <= 0:
            continue
        state = _FitnessState(adjacency, strength, alpha)
        state.add(seed)
        while True:
            moved = False
            current = state.fitness()
            best_gain, best_node = current, None
            for node in state.frontier():
                f = state.fitness_with(node)
                if f > best_gain:
                    best_gain, best_node = f, node
            if best_node is not None:
                state.add(best_node)
                moved = True
            while True:
                current = state.fitness()
                best_gain, worst = current, None
                for node in sorted(state.members):
                    if node == seed:
                        continue
                    f = state.fitness_without(node)
                    if f > best_gain:
                        best_gain, worst = f, node
                if worst is None:
                    break
                state.remove(worst)
                moved = True
            if not moved:
                break
        found = frozenset(state.members)
        covered.update(found)
        if len(found) >= 2 and found not in known:
            known.add(found)
            communities.append(found)
    return tuple(communities)

def reachable(edges, start) -> set:
    """Nodes reachable from start by BFS over a directed edge set."""
    adjacency = {}
    for v, u in edges:
        adjacency.setdefault(v, set()).add(u)
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def brute_force_sccs(nodes, edges) -> list[frozenset]:
    """Strongly connected components via pairwise mutual reachability."""
    nodes = sorted(nodes)
    reach = {v: reachable(edges, v) for v in nodes}
    components = []
    assigned = set()
    for v in nodes:
        if v in assigned:
            continue
        comp = frozenset(u for u in nodes if u in reach[v] and v in reach[u])
        components.append(comp)
        assigned |= comp
    return components


# ---- event-log consumers, one Python loop per record -----------------------
#
# Each takes the parsed JSON dicts of valid event lines, as ``json.loads``
# returns them: hashtags as written, before any normalization.


def _normalized_tags(rec) -> list:
    return [tag.lower().lstrip("#") for tag in rec.get("hashtags") or []]


def loop_information_counts(records, nodes) -> tuple[dict, dict]:
    """(outgoing, incoming) counts of in-network mentions and retweets."""
    nodes = frozenset(nodes)
    outgoing, incoming = Counter(), Counter()
    for rec in records:
        if rec["kind"] == "post":
            continue
        actor, target = rec["actor"], rec["target"]
        if actor not in nodes or target not in nodes:
            continue
        if rec["kind"] == "mention":
            outgoing[actor] += 1
            incoming[target] += 1
        else:  # a retweet: information left the target, reached the actor
            outgoing[target] += 1
            incoming[actor] += 1
    return dict(outgoing), dict(incoming)


def loop_coarsen(records, nodes, bin_width, window=None,
                 retweets_count_as_activity=True) -> tuple[int, list]:
    """(origin, one 0/1 list per node) of posts (and retweets) per bin."""
    if window is None:
        stamps = [rec["ts"] for rec in records]
        origin, end = min(stamps) // bin_width * bin_width, max(stamps)
    else:
        origin, end = window
    kinds = ("post", "retweet") if retweets_count_as_activity else ("post",)
    length = -((end - origin + 1) // -bin_width)
    rows = {node: [0] * length for node in nodes}
    for rec in records:
        if rec["kind"] in kinds and rec["actor"] in rows \
                and origin <= rec["ts"] <= end:
            rows[rec["actor"]][(rec["ts"] - origin) // bin_width] = 1
    return origin, [rows[node] for node in nodes]


def loop_share(records, nodes, edges, kind) -> list:
    """Per edge (v, u): the share of u's in-network ``kind`` events that
    pair u with v; u is the retweeter, or the one mentioned."""
    nodes = frozenset(nodes)
    pairs = Counter()
    totals = Counter()
    for rec in records:
        if rec["kind"] != kind:
            continue
        if rec["actor"] not in nodes or rec["target"] not in nodes:
            continue
        if kind == "retweet":
            followee, follower = rec["target"], rec["actor"]
        else:
            followee, follower = rec["actor"], rec["target"]
        pairs[(followee, follower)] += 1
        totals[follower] += 1
    return [pairs[(v, u)] / totals[u] if totals[u] else 0.0 for v, u in edges]


def loop_tfidf(records, nodes, log_base=math.e) -> dict:
    """user -> {tag: count * idf}, tags in the order the user first used
    them, dropping tags every user used."""
    tag_counts = {user: Counter() for user in nodes}
    for rec in records:
        if rec["kind"] != "post" or rec["actor"] not in tag_counts:
            continue
        for tag in _normalized_tags(rec):
            tag_counts[rec["actor"]][tag.lower()] += 1
    users_using = Counter()
    for counts in tag_counts.values():
        for tag in counts:
            users_using[tag] += 1
    scale = math.log(log_base)
    vectors = {}
    for user in nodes:
        values = {}
        for tag, count in tag_counts[user].items():
            idf = math.log(len(nodes) / users_using[tag]) / scale
            if idf > 0:
                values[tag] = count * idf
        vectors[user] = values
    return vectors
