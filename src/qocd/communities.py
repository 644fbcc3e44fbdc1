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


def _grow(seed: int, adjacency: list[dict[int, float]], strength: list[float],
          alpha: float) -> set[int]:
    """The node codes of the community grown from ``seed``. ``links[v]``,
    v's weight to the members, is summed in adjacency order, and again only
    when a neighbour of v moves, the one change that alters it. The weights
    are positive, so v has a member neighbour iff ``links[v]`` is above 0."""
    members: set[int] = set()
    links: dict[int, float] = {}
    frontier: set[int] = set()  # the non-members with a member neighbour

    def fitness(w_in: float, w_bnd: float) -> float:
        total = w_in + w_bnd
        return 0.0 if total <= 0 else w_in / total ** alpha

    def move(v: int) -> None:  # v joins, or leaves if it is a member
        nonlocal w_in, w_bnd
        sign = -1 if v in members else 1
        linked = links.get(v, 0)  # v is not its own neighbour: no self-loops
        w_in += sign * linked
        w_bnd += sign * (strength[v] - 2 * linked)
        members.symmetric_difference_update((v,))
        for u in adjacency[v]:
            links[u] = sum(w for x, w in adjacency[u].items() if x in members)
        for u in (v, *adjacency[v]):
            (frontier.add if links.get(u) and u not in members
             else frontier.discard)(u)

    w_in = w_bnd = 0.0
    move(seed)
    while True:  # a failed join ends it: the last shedding left nothing to shed
        best, joiner = fitness(w_in, w_bnd), None
        for v in sorted(frontier):
            linked = links[v]
            f = fitness(w_in + linked, w_bnd - linked + (strength[v] - linked))
            if f > best:
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


def detect_communities(wg: WeightedDigraph,
                       params: FitnessParams = FitnessParams()) -> Covering:
    """Greedy local-fitness expansion into an overlapping covering.

    Fitness of a node set C is w_in / (w_in + w_bnd)^alpha, where w_in sums
    edge weights inside C (either direction) and w_bnd those crossing its
    boundary (Lancichinetti, Fortunato & Kertesz 2009). Seeds are taken in
    descending total incident weight (ties by id), skipping nodes already
    covered. Each seed grows by the single best strictly-improving neighbor
    (ties to the first id), then sheds any member (never the seed) whose
    removal strictly improves fitness, until no move helps. Communities that
    end at one node become singletons. The procedure is deterministic.

    Both edge directions pool into one neighbour -> weight dict per node
    code, filled in edge order, so every float sum runs in one order.
    """
    nodes = wg.graph.nodes
    adjacency: list[dict[int, float]] = [{} for _ in nodes]
    positive = wg.values > 0
    for v, u, w in zip(wg.graph.src[positive].tolist(),
                       wg.graph.dst[positive].tolist(),
                       wg.values[positive].tolist()):
        adjacency[v][u] = adjacency[v].get(u, 0.0) + w
        adjacency[u][v] = adjacency[u].get(v, 0.0) + w
    strength = [sum(nbrs.values()) for nbrs in adjacency]
    if not any(s > 0 for s in strength):
        warnings.warn("no positive-weight edges; covering is all singletons")
        return Covering(universe=nodes, communities=())

    covered: set[int] = set()
    communities = []  # each holds its uncovered seed, so none repeats
    for seed in sorted(range(len(nodes)), key=lambda v: (-strength[v], v)):
        if seed in covered or strength[seed] <= 0:
            continue
        members = _grow(seed, adjacency, strength, params.alpha)
        covered.update(members)
        if len(members) >= 2:
            communities.append(frozenset(nodes[v] for v in members))
    return Covering(universe=nodes, communities=tuple(communities))
