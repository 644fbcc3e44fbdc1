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

import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

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


@dataclass(frozen=True)
class FitnessParams:
    """Resolution parameter for the greedy detector; larger alpha favors
    smaller, tighter communities."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def read_covering(path, universe: Iterable[str] | None = None) -> Covering:
    """Read a covering file: one community per line, whitespace-separated ids.

    ``#``-prefixed lines are comments (external tools often emit module
    headers that way). Single-node lines denote explicit singletons and fold
    into the implicit ones; duplicate communities are dropped. Without a
    universe, the universe is the ids the file names; with one, any id
    outside it is an error.
    """
    lines = []
    with open(path, encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
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


class _FitnessState:
    """Internal and boundary weight bookkeeping for one growing community."""

    def __init__(self, adjacency, strength, alpha):
        self.adjacency = adjacency
        self.strength = strength
        self.alpha = alpha
        self.members: set[str] = set()
        self.w_in = 0.0
        self.w_bnd = 0.0

    def fitness(self, w_in=None, w_bnd=None) -> float:
        w_in = self.w_in if w_in is None else w_in
        w_bnd = self.w_bnd if w_bnd is None else w_bnd
        total = w_in + w_bnd
        if total <= 0:
            return 0.0
        return w_in / total ** self.alpha

    def _link_to_members(self, node: str, exclude: str | None = None) -> float:
        return sum(w for nbr, w in self.adjacency[node].items()
                   if nbr in self.members and nbr != exclude)

    def fitness_with(self, node: str) -> float:
        linked = self._link_to_members(node)
        w_in = self.w_in + linked
        w_bnd = self.w_bnd - linked + (self.strength[node] - linked)
        return self.fitness(w_in, w_bnd)

    def fitness_without(self, node: str) -> float:
        linked = self._link_to_members(node, exclude=node)
        w_in = self.w_in - linked
        w_bnd = self.w_bnd - (self.strength[node] - linked) + linked
        return self.fitness(w_in, w_bnd)

    def add(self, node: str) -> None:
        linked = self._link_to_members(node)
        self.w_in += linked
        self.w_bnd += self.strength[node] - 2 * linked
        self.members.add(node)

    def remove(self, node: str) -> None:
        self.members.discard(node)
        linked = self._link_to_members(node)
        self.w_in -= linked
        self.w_bnd -= self.strength[node] - 2 * linked

    def frontier(self) -> list[str]:
        out = set()
        for member in self.members:
            out.update(n for n in self.adjacency[member] if n not in self.members)
        return sorted(out)


def _positive_adjacency(wg: WeightedDigraph):
    """Symmetric neighbor->weight maps, pooling both edge directions and
    ignoring zero-weight edges. The maps fill in edge order, so every float
    sum over one runs in the same order under any hash seed."""
    nodes = wg.graph.nodes
    adjacency: dict[str, dict[str, float]] = {node: {} for node in nodes}
    positive = wg.values > 0
    for s, d, w in zip(wg.graph.src[positive].tolist(),
                       wg.graph.dst[positive].tolist(),
                       wg.values[positive].tolist()):
        v, u = nodes[s], nodes[d]
        adjacency[v][u] = adjacency[v].get(u, 0.0) + w
        adjacency[u][v] = adjacency[u].get(v, 0.0) + w
    strength = {node: sum(nbrs.values()) for node, nbrs in adjacency.items()}
    return adjacency, strength


def detect_communities(wg: WeightedDigraph,
                       params: FitnessParams = FitnessParams()) -> Covering:
    """Greedy local-fitness expansion into an overlapping covering.

    Fitness of a node set C is w_in / (w_in + w_bnd)^alpha, where w_in sums
    edge weights inside C (either direction) and w_bnd those crossing its
    boundary. Seeds are taken in descending total incident weight (ties by
    id), skipping nodes already covered. Each seed grows by the single best
    strictly-improving neighbor, then sheds any member (never the seed) whose
    removal strictly improves fitness, until no move helps. Communities that
    end at one node become singletons. The procedure is deterministic.
    """
    adjacency, strength = _positive_adjacency(wg)
    universe = wg.graph.nodes
    if not any(s > 0 for s in strength.values()):
        warnings.warn("no positive-weight edges; covering is all singletons")
        return Covering(universe=universe, communities=())

    seeds = sorted(wg.graph.nodes, key=lambda n: (-strength[n], n))
    covered: set[str] = set()
    communities: list[frozenset[str]] = []
    known = set()

    for seed in seeds:
        if seed in covered or strength[seed] <= 0:
            continue
        state = _FitnessState(adjacency, strength, params.alpha)
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

    return Covering(universe=universe, communities=tuple(communities))
