"""Coverings (overlapping communities plus singletons) and their detection.

A covering assigns every node to at least one community; nodes in no
multi-member community get a singleton row of their own, so that
membership is total. The built-in detector grows communities greedily from
high-strength seeds by optimizing a local weight-based fitness; it handles
edge weight, edge direction (through total incident weight), and overlap,
and is fully deterministic. Externally computed coverings can be read from
plain text files instead.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .infotheory import fold
from .ingest import open_input, open_output
from .weighting import WeightedDigraph


@dataclass(frozen=True)
class Covering:
    """Possibly-overlapping communities over a universe of nodes.

    Listed communities have at least two members; every node outside all of
    them is an implicit singleton. ``universe`` is stored as the sorted,
    unique id tuple, like ``StructuralGraph.nodes``.

    The membership rows are the communities in order, then the singletons
    in universe order. Three read-only int64 arrays, derived once and left
    out of ``==``, index them: ``sizes`` holds each row's member count, and
    node ``universe[v]`` lies in rows ``rows[indptr[v]:indptr[v + 1]]``, in
    ascending order.
    """

    universe: tuple[str, ...]
    communities: tuple[frozenset[str], ...]
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        universe = tuple(sorted(set(self.universe)))
        index = {node: i for i, node in enumerate(universe)}
        seen = set()
        for comm in self.communities:
            if len(comm) < 2:
                raise ValueError("listed communities need at least two members")
            if not comm <= index.keys():
                raise ValueError("community member outside the universe")
            if comm in seen:
                raise ValueError("duplicate community")
            seen.add(comm)
        members = [[index[node] for node in comm] for comm in self.communities]
        covered = set().union(*self.communities)
        members += [[v] for v, node in enumerate(universe) if node not in covered]
        sizes = np.array([len(m) for m in members], dtype=np.int64)
        nodes = np.fromiter((v for m in members for v in m), dtype=np.int64,
                            count=int(sizes.sum()))
        row_ids = np.repeat(np.arange(len(members), dtype=np.int64), sizes)
        indptr = np.zeros(len(universe) + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=len(universe)), out=indptr[1:])
        rows = row_ids[np.argsort(nodes, kind="stable")]
        for array in (sizes, indptr, rows):
            array.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "rows", rows)

    @property
    def singletons(self) -> tuple[str, ...]:
        """The nodes in no listed community, in universe order."""
        first_row = self.rows[self.indptr[:-1]]
        alone = np.flatnonzero(first_row >= len(self.communities))
        return tuple(self.universe[v] for v in alone.tolist())


def membership_rows(covering: Covering, nodes: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(i, row)`` for every membership row of node code ``nodes[i]``,
    with ``i`` ascending and each node's rows in ascending order."""
    counts = np.diff(covering.indptr)[nodes]
    # position of each row within covering.rows: its node's block start
    # plus a running offset inside the block
    block_start = covering.indptr[nodes] - (np.cumsum(counts) - counts)
    at = np.arange(int(counts.sum())) + np.repeat(block_start, counts)
    return np.repeat(np.arange(len(nodes)), counts), covering.rows[at]


def read_covering(path, universe: Iterable[str] | None = None) -> Covering:
    """Read a covering file: one community per line, whitespace-separated ids.

    ``#``-prefixed lines are comments (external tools often emit module
    headers that way). Single-node lines denote explicit singletons and fold
    into the implicit ones; duplicate communities are dropped. Without a
    universe, the universe is the ids the file names; with one, any id
    outside it is an error.
    """
    lines = []
    with open_input(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                lines.append(frozenset(line.split()))
    named = frozenset().union(*lines)
    if universe is None:
        universe = named
    stray = named.difference(universe)
    if stray:
        raise ValueError(f"covering node {min(stray)!r} not in the universe")
    communities = dict.fromkeys(m for m in lines if len(m) >= 2)
    return Covering(universe=universe, communities=tuple(communities))


def write_covering(covering: Covering, path) -> None:
    """Write one community per line; singletons stay implicit."""
    with open_output(path) as fh:
        for comm in covering.communities:
            fh.write(" ".join(sorted(comm)) + "\n")


def covering_stats(covering: Covering) -> dict:
    """Community count, singleton count, and sorted community sizes."""
    count = len(covering.communities)
    return {
        "communities": count,
        "singletons": len(covering.sizes) - count,
        "sizes": sorted(covering.sizes[:count].tolist()),
    }


def _grow(seed: int, adjacency: list[dict[int, float]], strength: list[float],
          alpha: float) -> set[int]:
    """The node codes of the community grown from ``seed``. ``links[v]``,
    v's weight to the members, is their ``fold`` in adjacency order, redone
    only when a neighbour of v moves, the one change that alters it. The
    weights are positive, so the join candidates, the non-members with a
    member neighbour, are the non-members whose ``links`` value is above 0."""
    members: set[int] = set()
    links: dict[int, float] = {}
    tiny = sys.float_info.min

    def out_of_range(total: float) -> ValueError:
        return ValueError(f"alpha {alpha} takes the fitness out of the float "
                          f"range at a total weight of {total:g}")

    def fitness(w_in: float, w_bnd: float) -> float:
        total = w_in + w_bnd
        if total <= 0:
            return 0.0
        try:
            power = total ** alpha
        except OverflowError:
            raise out_of_range(total) from None
        if power < tiny:  # subnormal or 0.0: too few bits to rank candidates
            raise out_of_range(total)
        return w_in / power

    def move(v: int) -> None:  # v joins, or leaves if it is a member
        nonlocal w_in, w_bnd
        sign = -1 if v in members else 1
        linked = links.get(v, 0)  # v is not its own neighbour: no self-loops
        w_in += sign * linked
        w_bnd += sign * (strength[v] - 2 * linked)
        members.symmetric_difference_update((v,))
        for u in adjacency[v]:
            links[u] = fold(w for x, w in adjacency[u].items() if x in members)

    w_in = w_bnd = 0.0
    move(seed)
    while True:  # a failed join ends it: the last shedding left nothing to shed
        best, joiner = fitness(w_in, w_bnd), None
        for v in sorted(links.keys() - members):
            linked = links[v]
            if linked and (f := fitness(w_in + linked, w_bnd - linked
                                        + (strength[v] - linked))) > best:
                best, joiner = f, v
        if joiner is None:
            return members
        move(joiner)
        while True:
            best, leaver = fitness(w_in, w_bnd), None
            for v in sorted(members - {seed}):
                linked = links[v]
                f = fitness(w_in - linked, w_bnd - (strength[v] - linked) + linked)
                if f > best:
                    best, leaver = f, v
            if leaver is None:
                break
            move(leaver)


def detect_communities(wg: WeightedDigraph, alpha: float = 1.0) -> Covering:
    """Greedy local-fitness expansion into an overlapping covering.

    Fitness of a node set C is w_in / (w_in + w_bnd)^alpha, where w_in sums
    edge weights inside C (either direction) and w_bnd those crossing its
    boundary (Lancichinetti, Fortunato & Kertesz 2009); a larger alpha, the
    resolution, favors smaller, tighter communities. Seeds are taken in
    descending total incident weight (ties by id), skipping nodes already
    covered. Each seed grows by the single best strictly-improving neighbor
    (ties to the first id), then sheds any member (never the seed) whose
    removal strictly improves fitness, until no move helps. Communities that
    end at one node become singletons. The procedure is deterministic.

    Both edge directions pool into one neighbour -> weight dict per node
    code, filled in edge order; each float sum is a ``fold`` in that order.
    """
    if not 0 < alpha < math.inf:  # also rejects NaN
        raise ValueError("alpha must be positive and finite")
    nodes = wg.graph.nodes
    adjacency: list[dict[int, float]] = [{} for _ in nodes]
    positive = wg.values > 0
    for v, u, w in zip(wg.graph.src[positive].tolist(),
                       wg.graph.dst[positive].tolist(),
                       wg.values[positive].tolist()):
        adjacency[v][u] = adjacency[v].get(u, 0.0) + w
        adjacency[u][v] = adjacency[u].get(v, 0.0) + w
    strength = [fold(nbrs.values()) for nbrs in adjacency]
    if not any(s > 0 for s in strength):
        warnings.warn("no positive-weight edges; covering is all singletons")
        return Covering(universe=nodes, communities=())

    covered: set[int] = set()
    communities = []  # each holds its uncovered seed, so none repeats
    for seed in sorted(range(len(nodes)), key=lambda v: (-strength[v], v)):
        if seed in covered or strength[seed] <= 0:
            continue
        members = _grow(seed, adjacency, strength, alpha)
        covered.update(members)
        if len(members) >= 2:
            communities.append(frozenset(nodes[v] for v in members))
    return Covering(universe=nodes, communities=tuple(communities))
