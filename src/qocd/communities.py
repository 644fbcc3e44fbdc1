"""Coverings (overlapping communities plus singletons) and their detection.

A covering assigns every node to at least one community; nodes in no
multi-member community get a synthetic singleton membership so that
membership is total. The built-in detector grows communities greedily from
high-strength seeds by optimizing a local weight-based fitness; it handles
edge weight, edge direction (through total incident weight), and overlap,
and is fully deterministic. Externally computed coverings can be read from
plain text files instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .weighting import WeightedDigraph


@dataclass(frozen=True)
class Covering:
    """Possibly-overlapping communities over a universe of nodes.

    Listed communities have at least two members; every node outside all of
    them is an implicit singleton. Membership ids are the community's index
    for listed communities and ``singleton:<node>`` for singletons.
    """

    universe: frozenset[str]
    communities: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen = set()
        for comm in self.communities:
            if len(comm) < 2:
                raise ValueError("listed communities need at least two members")
            if not comm <= self.universe:
                raise ValueError("community member outside the universe")
            if comm in seen:
                raise ValueError("duplicate community")
            seen.add(comm)

    @property
    def singletons(self) -> tuple[str, ...]:
        covered = set().union(*self.communities) if self.communities else set()
        return tuple(sorted(self.universe - covered))

    def all_memberships(self) -> dict[str, frozenset]:
        out = {node: set() for node in self.universe}
        for i, comm in enumerate(self.communities):
            for node in comm:
                out[node].add(i)
        return {
            node: frozenset(ids) if ids else frozenset({f"singleton:{node}"})
            for node, ids in out.items()
        }


@dataclass(frozen=True)
class FitnessParams:
    """Resolution parameter for the greedy detector; larger alpha favors
    smaller, tighter communities."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def read_covering(path, universe: frozenset[str] | set[str]) -> Covering:
    """Read a covering file: one community per line, whitespace-separated ids.

    ``#``-prefixed lines are comments (external tools often emit module
    headers that way). Single-node lines denote explicit singletons and fold
    into the implicit ones; duplicate communities are dropped. Any id outside
    the universe is an error.
    """
    universe = frozenset(universe)
    communities = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            members = frozenset(line.split())
            stray = members - universe
            if stray:
                raise ValueError(
                    f"covering node {sorted(stray)[0]!r} not in the universe")
            if len(members) < 2 or members in seen:
                continue
            seen.add(members)
            communities.append(members)
    return Covering(universe=universe, communities=tuple(communities))


def write_covering(covering: Covering, path) -> None:
    """Write one community per line; singletons stay implicit."""
    with open(path, "w", encoding="utf-8") as fh:
        for comm in covering.communities:
            fh.write(" ".join(sorted(comm)) + "\n")


def covering_stats(covering: Covering) -> dict:
    """Community count, singleton count, and sorted community sizes."""
    sizes = sorted(len(c) for c in covering.communities)
    return {
        "communities": len(covering.communities),
        "singletons": len(covering.singletons),
        "sizes": sizes,
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
    universe = frozenset(wg.graph.nodes)
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
