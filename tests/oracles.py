"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (explicit
tuples, Counter, math.log2, dense membership matrices) and shares no code
with the package internals.
"""

import builtins
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


def classify_edge(mu: frozenset, mf: frozenset) -> str:
    """Classify an edge from its endpoints' membership-row sets."""
    if not mu or not mf:
        raise ValueError("membership sets must be non-empty")
    if not mu & mf:
        return "inter"
    if mu == mf:
        return "intra"
    return "mixed"


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
        classes.append(classify_edge(frozenset(memberships[v]),
                                     frozenset(memberships[u])))
    return classes


def median_low(values) -> float:
    """Median taking the lower of the two middle values for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return ordered[(len(ordered) - 1) // 2]


def loop_conditional_weights(wg, classes, bins: int = 50) -> dict:
    """The summary document of the weights of ``wg`` per edge class, from
    one class name per edge: weights grouped in Python lists, the median by
    ``sorted``, then the dict built class by class."""
    from qocd.edgestats import weight_ccdf

    names = ("inter", "intra", "mixed")
    if len(classes) != len(wg.values):
        raise ValueError(f"{len(classes)} edge classes for "
                         f"{len(wg.values)} edges")
    grouped: dict[str, list[float]] = {cls: [] for cls in names}
    for cls, w in zip(classes, wg.values.tolist()):
        grouped[cls].append(w)
    edges = None  # equal-width bins over the full weight range
    if len(wg.values):
        lo, hi = float(wg.values.min()), float(wg.values.max())
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
    out = {"scheme": wg.scheme, "classes": {}}
    for cls in names:
        ws = grouped[cls]
        entry = {"count": len(ws), "median": median_low(ws) if ws else None}
        if ws:
            entry["histogram"] = {
                "bin_edges": [float(e) for e in edges],
                "counts": [int(c) for c in np.histogram(ws, bins=edges)[0]],
            }
        entry["ccdf"] = [[w, p] for w, p in weight_ccdf(ws)]
        out["classes"][cls] = entry
    return out


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
        linked = 0.0  # left to right, as the detector sums
        for nbr, w in self.adjacency[node].items():
            if nbr in self.members and nbr != exclude:
                linked += w
        return linked

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
    strength = {}
    for node, nbrs in adjacency.items():
        strength[node] = 0.0  # left to right, as the detector sums
        for w in nbrs.values():
            strength[node] += w
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


# ---- the synthetic generator, one Python scan per node ---------------------
#
# The generator as it stood before it was rewritten on a membership matrix
# and influence index lists: membership as per-node and per-community sets,
# candidate scans over every node, and the influence boost as a matrix
# product per bin. Its one deliberate change is that the products count in
# int64, so a node with any active influencer is boosted, however many. It
# builds the package's own output containers so the results compare whole.


def _loop_plant_communities(cfg, ids):
    """Contiguous blocks plus an overlap slice shared with the next block."""
    blocks = np.array_split(np.arange(cfg.nodes), cfg.communities)
    member_of = [set() for _ in range(cfg.nodes)]
    groups = [set(b.tolist()) for b in blocks]
    for c, block in enumerate(blocks):
        for i in block:
            member_of[i].add(c)
    if cfg.communities > 1 and cfg.overlap_fraction > 0:
        for c, block in enumerate(blocks):
            extra = int(round(cfg.overlap_fraction * len(block)))
            nxt = (c + 1) % cfg.communities
            for i in block[:extra]:
                groups[nxt].add(int(i))
                member_of[i].add(nxt)
    communities = [frozenset(ids[i] for i in g) for g in groups]
    return communities, member_of


def loop_generate(cfg):
    """(log, graph, truth) for ``cfg``, drawn in the generator's RNG order."""
    from qocd.communities import Covering
    from qocd.ingest import (EVENT_KINDS, MENTION, POST, RETWEET, EventLog,
                             StructuralGraph)
    from qocd.synth import PlantedTruth

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    width = len(str(cfg.nodes - 1))
    ids = [f"u{i:0{width}d}" for i in range(cfg.nodes)]
    communities, member_of = _loop_plant_communities(cfg, ids)
    n = cfg.nodes

    comm_mask = np.zeros((cfg.communities, n), dtype=bool)
    for i, member in enumerate(member_of):
        comm_mask[sorted(member), i] = True
    shares = (comm_mask.T.astype(np.int8) @ comm_mask.astype(np.int8)) > 0

    thresholds = np.where(shares, cfg.p_in, cfg.p_out)
    np.fill_diagonal(thresholds, 0.0)
    follow = rng.random((n, n)) < thresholds  # follow[v, u]: u follows v

    cross_eps = cfg.epsilon if cfg.cross_epsilon is None else cfg.cross_epsilon
    influence_intra = np.zeros((n, n), dtype=bool)  # [target, source]
    influence_cross = np.zeros((n, n), dtype=bool)

    for c in range(cfg.cross_influencers):
        src = max(i for i in range(n) if c in member_of[i])
        targets = [(c + off) % cfg.communities
                   for off in range(1, cfg.cross_span + 1)]
        for tc in targets:
            for j in sorted(i for i in range(n) if tc in member_of[i]):
                if j == src or tc in member_of[src]:
                    continue
                if rng.random() < cfg.cross_follow_prob:
                    follow[src, j] = True
                    influence_cross[j, src] = True

    for j in range(n):
        candidates = [i for i in range(n)
                      if follow[i, j] and shares[i, j] and i != j
                      and not influence_cross[j, i]]
        if not candidates or cfg.influence_in_degree < 1:
            continue
        take = min(cfg.influence_in_degree, len(candidates))
        chosen = rng.choice(len(candidates), size=take, replace=False)
        for idx in sorted(chosen.tolist()):
            influence_intra[j, candidates[idx]] = True

    activity = _loop_draw_activity(cfg, rng, influence_intra, influence_cross,
                                   cross_eps)

    tag_pools = [[f"c{c}tag{t}" for t in range(cfg.hashtag_pool)]
                 for c in range(cfg.communities)]
    shared_tags = [f"sharedtag{t}" for t in range(cfg.shared_pool)]
    own_pools = [sorted(m) for m in member_of]
    post_actor, post_bin = np.nonzero(activity)  # node by node, bins rising
    post_tags = []  # "" for a post without one
    for i in post_actor.tolist():
        tag, own = "", own_pools[i]
        if rng.random() < cfg.hashtag_rate:
            if own and rng.random() < cfg.own_pool_bias:
                pool = tag_pools[own[int(rng.integers(len(own)))]]
            else:
                pool = shared_tags
            if pool:
                tag = pool[int(rng.integers(len(pool)))]
        post_tags.append(tag)

    horizon = cfg.bins * cfg.bin_width
    drawn = []  # (kind, actor, ts, target) of every mention and retweet
    # a mention goes to a follower, a retweet to a followee
    for kind, pools, rate in ((MENTION, follow, cfg.mention_events),
                              (RETWEET, follow.T, cfg.retweet_events)):
        for i in range(n):
            pool = np.flatnonzero(pools[i]).tolist()
            intra = [j for j in pool if shares[i, j]]  # shares is symmetric
            drawn += _loop_interaction_events(
                rng, kind, i, intra, pool, rate=rate,
                bias=cfg.interaction_intra_bias, horizon=horizon)

    posts = (np.full(len(post_actor), POST), post_actor,
             post_bin * cfg.bin_width, np.full(len(post_actor), -1))
    kind, actor, ts, target = (np.concatenate(pair) for pair in zip(
        posts, np.array(drawn, dtype=np.int64).reshape(-1, 4).T))
    tags, tag = np.unique([""] + post_tags + [""] * len(drawn),
                          return_inverse=True)  # "" first: code -1, no tag
    name_rank = np.argsort(np.argsort(EVENT_KINDS))  # mention < post < retweet
    order = np.lexsort((target, actor, name_rank[kind], ts))
    tag = tag[1:][order] - 1
    log = EventLog(tuple(ids), kind[order], actor[order], target[order],
                   ts[order], tuple(tags[1:].tolist()),
                   np.concatenate([[0], np.cumsum(tag >= 0)]), tag[tag >= 0])

    # ids sort like their indices, and nonzero walks rows in order
    graph = StructuralGraph(tuple(ids), *np.nonzero(follow))

    targets, sources = np.nonzero(influence_intra | influence_cross)
    truth = PlantedTruth(
        covering=Covering(universe=ids, communities=tuple(communities)),
        influence_edges=frozenset((ids[s], ids[t])
                                  for t, s in zip(targets, sources)))
    return log, graph, truth


def _loop_draw_activity(cfg, rng, influence_intra, influence_cross,
                        cross_eps):
    """Sequential per-bin draws; activity[i, t] is node i's bit at bin t."""
    n, t_len, lag = cfg.nodes, cfg.bins, cfg.influence_lag
    a_intra = influence_intra.astype(np.int64)  # counts cannot wrap
    a_cross = influence_cross.astype(np.int64)
    activity = np.zeros((n, t_len), dtype=np.int64)
    for t in range(t_len):
        if t < lag:
            rate = np.full(n, cfg.rho)
        else:
            prev = activity[:, t - lag]
            boost = np.where(a_intra @ prev > 0, cfg.epsilon, 0.0)
            boost = np.maximum(boost,
                               np.where(a_cross @ prev > 0, cross_eps, 0.0))
            rate = cfg.rho + boost
        activity[:, t] = rng.random(n) < rate
    return activity


def _loop_interaction_events(rng, kind, actor, pool_intra, pool_all, rate,
                             bias, horizon):
    """(kind, actor, ts, target) of each event one actor draws."""
    out = []
    for _ in range(int(rng.poisson(rate))):
        ts = int(rng.integers(horizon))
        use_intra = rng.random() < bias
        pool = pool_intra if (use_intra and pool_intra) else pool_all
        if not pool:
            continue
        out.append((kind, actor, ts, pool[int(rng.integers(len(pool)))]))
    return out


def event_rows(log) -> list[tuple]:
    """``(kind, actor, ts, target or None, hashtags)`` of each event of an
    ``EventLog``, in order, read off its columns one event at a time."""
    kinds = ("post", "mention", "retweet")
    ptr, tag_ids = log.tag_ptr.tolist(), log.tag_ids.tolist()
    rows = []
    for i, (kind, actor, ts, target) in enumerate(zip(
            log.kind.tolist(), log.actor.tolist(), log.ts.tolist(),
            log.target.tolist())):
        hashtags = tuple(log.tags[j] for j in tag_ids[ptr[i]:ptr[i + 1]])
        rows.append((kinds[kind], log.ids[actor], ts,
                     None if target < 0 else log.ids[target], hashtags))
    return rows


def json_dumps_events_jsonl(log, path) -> None:
    """The event-log writer as it stood before its lines were built from
    pre-encoded pieces: one ``json.dumps`` of a dict per event."""
    import json

    with open(path, "w", newline="", encoding="utf-8") as fh:
        for kind, actor, ts, target, hashtags in event_rows(log):
            rec: dict = {"kind": kind, "actor": actor, "ts": ts}
            if target is not None:
                rec["target"] = target
            if hashtags:
                rec["hashtags"] = list(hashtags)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# The pairwise transfer-entropy kernel as it stood before the window codes:
# one int64 matrix of k-bit past codes and a second of (k+1)-bit future
# codes, each joint term packed from them with its own shift.


def _two_matrix_past_codes(bits, k):
    t_len = bits.shape[-1]
    codes = np.zeros(bits.shape[:-1] + (t_len - k,), dtype=np.int64)
    for j in range(k, 0, -1):  # bit t - j ends up at 1 << (j - 1)
        codes <<= 1
        codes |= bits[..., k - j:t_len - j]
    return codes


def _two_matrix_entropy(codes, n):
    counts = np.bincount(codes)
    nz = counts[counts > 0]
    probs = nz / n
    return float(-(probs * np.log2(probs)).sum()), len(nz)


def two_matrix_pairwise_te(src, dst, bits, k: int, truncate: bool):
    """TE along each (src[i], dst[i]) row pair of a node x bin 0/1 matrix,
    source to target, with the target's own terms cached per node."""
    n = bits.shape[1] - k
    past = _two_matrix_past_codes(bits, k)
    future = (past << 1) | bits[:, k:]  # x_t + 2 x_past
    node_terms = {}
    table = np.empty(len(src))
    for i, (y, x) in enumerate(zip(src, dst)):
        if x not in node_terms:
            node_terms[x] = (_two_matrix_entropy(future[x], n),
                             _two_matrix_entropy(past[x], n))
        (h_xfp, a_xfp), (h_xp, a_xp) = node_terms[x]
        h_xfyp, a_xfyp = _two_matrix_entropy(future[x] + (past[y] << (k + 1)), n)
        h_xyp, a_xyp = _two_matrix_entropy(past[x] + (past[y] << k), n)
        raw = (h_xfp - h_xp - h_xfyp + h_xyp
               + (a_xfp - a_xp - a_xfyp + a_xyp) / (2 * n))
        table[i] = 0.0 if truncate and raw < 0.0 else raw
    return table


# ---------------------------------------------------------------------------
# The event-log parser as it stood before blocks of canonical lines were
# split by one regex: json.loads on every stripped line.

def _loop_parse_record(line: str):
    import json

    kinds = ("post", "mention", "retweet")
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    kind, actor, ts = rec.get("kind"), rec.get("actor"), rec.get("ts")
    target, raw = rec.get("target"), rec.get("hashtags")
    # type(), not isinstance(): a bool is an int too; ts must fit in int64
    if (kind not in kinds or not isinstance(actor, str) or not actor
            or type(ts) is not int or not 0 <= ts < 2 ** 63):
        return None
    if kind != "post":  # mentions and retweets need a target, carry no tags
        ok = isinstance(target, str) and target
        return (kinds.index(kind), actor, ts, target, ()) if ok else None
    raw = [] if raw is None else raw
    if target is not None or not isinstance(raw, list):
        return None
    tags = [tag.lower().lstrip("#") for tag in raw if isinstance(tag, str)]
    # split() returns a tag whole iff it is non-empty and has no whitespace
    ok = len(tags) == len(raw) and all([tag.split() == [tag] for tag in tags])
    return (0, actor, ts, None, tags) if ok else None


def loop_parse_events(stream):
    """The EventLog of the lines of ``stream``, one ``json.loads`` each."""
    from array import array

    from qocd.ingest import EventLog

    ids: dict = {}  # id -> code in order of first sight
    tags: dict = {}
    kind, actor, target, ts = array("B"), array("i"), array("i"), array("q")
    tag_ptr, tag_ids = array("q", [0]), array("i")
    skipped = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        fields = _loop_parse_record(line)
        if fields is None:
            skipped += 1
            continue
        code, who, when, whom, hashtags = fields
        kind.append(code)
        actor.append(ids.setdefault(who, len(ids)))
        target.append(-1 if whom is None else ids.setdefault(whom, len(ids)))
        ts.append(when)
        if hashtags:
            tag_ids.extend([tags.setdefault(tag, len(tags)) for tag in hashtags])
        tag_ptr.append(len(tag_ids))

    def interned(codes):
        names = sorted(codes)
        rank = np.full(len(names) + 1, -1, dtype=np.int32)
        rank[[codes[name] for name in names]] = np.arange(len(names))
        return tuple(names), rank

    id_names, id_rank = interned(ids)
    tag_names, tag_rank = interned(tags)
    return EventLog(id_names, kind, id_rank[actor], id_rank[target], ts,
                    tag_names, tag_ptr, tag_rank[tag_ids], skipped)


_BUILTIN_SUM = builtins.sum


def compensated_sum(values, /, start=0):
    """CPython 3.12's builtin ``sum``, whose float loop is Neumaier's
    compensated sum (gh-100425), for running code under 3.12's float sums on
    an older interpreter. An all-integer or non-numeric sum is the builtin's."""
    items = list(values)
    if (type(start) not in (int, float)
            or any(type(x) not in (int, float) for x in items)
            or all(type(x) is int for x in (start, *items))):
        return _BUILTIN_SUM(items, start)
    s = c = 0.0
    for x in map(float, (start, *items)):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c if c and math.isfinite(c) else s
