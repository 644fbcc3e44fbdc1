"""Raw data ingestion: event logs, follow graphs, and activity filtering.

Events arrive as JSON lines (one record per line) and follow relations as a
``followee,follower`` CSV. Follow edges are stored followee -> follower, the
direction information travels. Filtering keeps users with enough incoming and
outgoing information events and then restricts to the giant strongly
connected component.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

import numpy as np

EVENT_KINDS = ("post", "mention", "retweet")
POST, MENTION, RETWEET = range(len(EVENT_KINDS))  # the kind codes
_COLUMNS = {"kind": np.uint8, "actor": np.int32, "target": np.int32,
            "ts": np.int64, "tag_ptr": np.int64, "tag_ids": np.int32}


def _exact_cast(column, dtype) -> np.ndarray:
    """A new ``dtype`` array of ``column``; ValueError if the cast would change
    a value (one out of range, or a fraction), where numpy would wrap it."""
    given = np.asarray(column)
    try:
        with np.errstate(invalid="ignore"):
            cast = given.astype(dtype)
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"column does not fit {np.dtype(dtype)}") from exc
    if (cast != given).any():
        raise ValueError(f"column values do not fit {np.dtype(dtype)}")
    return cast


@dataclass(frozen=True, eq=False)
class EventLog:
    """Parsed events as read-only columns in input order, plus the count of
    skipped bad lines.

    Event i is an ``EVENT_KINDS[kind[i]]`` by ``ids[actor[i]]`` at ``ts[i]``
    aimed at ``ids[target[i]]`` (the mentioned user, or the author of the
    retweeted post; -1 for a post), with the hashtags ``tags[j]`` for j in
    ``tag_ids[tag_ptr[i]:tag_ptr[i + 1]]`` (posts only). ``ids`` and
    ``tags`` are sorted and unique, so code order is string order.
    """

    ids: tuple[str, ...]
    kind: np.ndarray
    actor: np.ndarray
    target: np.ndarray
    ts: np.ndarray
    tags: tuple[str, ...]
    tag_ptr: np.ndarray
    tag_ids: np.ndarray
    skipped: int = 0

    def __post_init__(self):
        for name in ("ids", "tags"):
            names = tuple(getattr(self, name))
            if list(names) != sorted(set(names)):
                raise ValueError(f"event log {name} must be sorted and unique")
            object.__setattr__(self, name, names)
        cols = {name: _exact_cast(getattr(self, name), dtype)
                for name, dtype in _COLUMNS.items()}
        kind, actor, target, ts, ptr, tag_ids = cols.values()
        if any(a.ndim != 1 for a in cols.values()) or not (
                len(kind) == len(actor) == len(target) == len(ts) == len(ptr) - 1):
            raise ValueError("event columns must be 1-D, tag_ptr one longer")
        per_event = np.diff(ptr)
        ranges = ((kind, 0, len(EVENT_KINDS)), (actor, 0, len(self.ids)),
                  (target, -1, len(self.ids)), (tag_ids, 0, len(self.tags)),
                  (ts, 0, np.inf), (per_event, 0, np.inf))
        if (any(len(a) and (a.min() < low or a.max() >= high)
                for a, low, high in ranges)
                or ptr[0] != 0 or ptr[-1] != len(tag_ids)
                or ((target < 0) != (kind == POST)).any()
                or per_event[kind != POST].any()):
            raise ValueError("event codes must lie in their tables, ts >= 0, "
                             "and only posts may lack a target or carry tags")
        for name, a in cols.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.kind)

    def positions(self, nodes: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """Index in ``nodes`` of each event's actor and target, -1 for an id
        not in ``nodes``: the one place where log ids meet graph ids."""
        index = {node: i for i, node in enumerate(nodes)}
        where = np.full(len(self.ids) + 1, -1, dtype=np.int32)
        where[:-1] = [index.get(x, -1) for x in self.ids]  # code -1 stays -1
        return where[self.actor], where[self.target]

    def rows(self):
        """``(kind, actor, ts, target or None, hashtags)`` of each event, in
        order: a view derived from the columns, not stored."""
        ids, ptr = self.ids + (None,), self.tag_ptr.tolist()
        tags = [self.tags[j] for j in self.tag_ids.tolist()]
        columns = (a.tolist() for a in (self.kind, self.actor, self.ts,
                                         self.target))
        for i, (kind, actor, ts, target) in enumerate(zip(*columns)):
            yield (EVENT_KINDS[kind], ids[actor], ts, ids[target],
                   tuple(tags[ptr[i]:ptr[i + 1]]))


@dataclass(frozen=True, eq=False)
class StructuralGraph:
    """Directed follow graph; an edge (v, u) means u follows v.

    Edges therefore point from the followee to the follower, i.e. along the
    direction of information flow. ``nodes`` is sorted and unique, and edge
    i runs from ``nodes[src[i]]`` to ``nodes[dst[i]]``. The int32 index
    arrays are read-only and sorted by (src, dst), with no duplicate edges
    and no self-loops. Node order is string order, so edge order is the
    sorted order of the (followee, follower) pairs; every consumer walks
    the edges in it.
    """

    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if list(nodes) != sorted(set(nodes)):
            raise ValueError("graph nodes must be sorted and unique")
        src, dst = (_exact_cast(a, np.int32) for a in (self.src, self.dst))
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= len(nodes)):
            raise ValueError("edge endpoint outside the node set")
        loops = np.flatnonzero(src == dst)
        if len(loops):
            raise ValueError(f"self-loop on node {nodes[src[loops[0]]]!r}")
        keys = src.astype(np.int64) * len(nodes) + dst
        if (np.diff(keys) <= 0).any():
            raise ValueError("edges must be sorted by (src, dst) without "
                             "duplicates")
        src.flags.writeable = dst.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]],
                   nodes: Iterable[str] = ()) -> "StructuralGraph":
        """Graph on the given edges, deduplicated, plus any extra nodes."""
        edge_list = list(edges)
        names = sorted(set(nodes).union(*edge_list))
        index = {node: i for i, node in enumerate(names)}
        codes = np.fromiter((index[node] for edge in edge_list for node in edge),
                            dtype=np.int64, count=2 * len(edge_list))
        keys = np.sort(codes[0::2] * len(names) + codes[1::2])
        keys = keys[np.diff(keys, prepend=-1) > 0]  # drop repeated edges
        return cls(tuple(names), *np.divmod(keys, len(names)))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The (followee, follower) pairs, in edge order."""
        nodes = self.nodes
        return tuple((nodes[v], nodes[u])
                     for v, u in zip(self.src.tolist(), self.dst.tolist()))

    def subgraph(self, keep: Iterable[str]) -> "StructuralGraph":
        """Induced subgraph on ``keep``."""
        keep_set = frozenset(keep)
        mask = np.fromiter((node in keep_set for node in self.nodes),
                           dtype=bool, count=len(self.nodes))
        renumber = np.cumsum(mask) - 1
        inside = mask[self.src] & mask[self.dst]
        return StructuralGraph(
            nodes=tuple(node for node, kept in zip(self.nodes, mask) if kept),
            src=renumber[self.src[inside]], dst=renumber[self.dst[inside]])


@dataclass(frozen=True)
class InfoEventCounts:
    """Per-user counts of outgoing and incoming information events."""

    outgoing: dict[str, int]
    incoming: dict[str, int]

    def for_user(self, user: str) -> tuple[int, int]:
        return self.outgoing.get(user, 0), self.incoming.get(user, 0)


@dataclass(frozen=True)
class FilterReport:
    """Audit trail of a filtering step.

    The three node sets are disjoint and their union is the input node set.
    """

    kept: frozenset[str]
    removed_inactive: frozenset[str] = frozenset()
    removed_not_in_gscc: frozenset[str] = frozenset()
    thresholds: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {name: sorted(getattr(self, name)) for name in
                   ("kept", "removed_inactive", "removed_not_in_gscc")}
        return json.dumps(dict(payload, thresholds=self.thresholds),
                          sort_keys=True, indent=2) + "\n"


def _parse_record(line: str):
    """``(kind code, actor, ts, target or None, hashtags)`` of a valid JSON
    event line, else None."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    kind, actor, ts = rec.get("kind"), rec.get("actor"), rec.get("ts")
    target, raw = rec.get("target"), rec.get("hashtags")
    # type(), not isinstance(): a bool is an int too; ts must fit in int64
    if (kind not in EVENT_KINDS or not isinstance(actor, str) or not actor
            or type(ts) is not int or not 0 <= ts < 2 ** 63):
        return None
    if kind != "post":  # mentions and retweets need a target, carry no tags
        ok = isinstance(target, str) and target
        return (EVENT_KINDS.index(kind), actor, ts, target, ()) if ok else None
    raw = [] if raw is None else raw
    if target is not None or not isinstance(raw, list):
        return None
    tags = [tag.lower().lstrip("#") for tag in raw if isinstance(tag, str)]
    # split() returns a tag whole iff it is non-empty and has no whitespace
    ok = len(tags) == len(raw) and all([tag.split() == [tag] for tag in tags])
    return (POST, actor, ts, None, tags) if ok else None


def _interned(codes: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted names of ``codes`` (name -> code in order of first sight)
    and each code's rank among them, plus a last entry -1 for code -1."""
    names = sorted(codes)
    rank = np.full(len(names) + 1, -1, dtype=np.int32)
    rank[[codes[name] for name in names]] = np.arange(len(names))
    return tuple(names), rank


def parse_events(stream: IO[str] | Iterable[str]) -> EventLog:
    """Parse line-delimited JSON event records into typed buffers, sorting
    the ids and hashtags once at the end. Malformed lines (bad JSON, unknown
    kind, missing/invalid fields) are skipped and counted; an unreadable
    stream raises."""
    ids: dict[str, int] = {}  # id -> code in order of first sight
    tags: dict[str, int] = {}
    kind, actor, target, ts = array("B"), array("i"), array("i"), array("q")
    tag_ptr, tag_ids = array("q", [0]), array("i")
    skipped = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        fields = _parse_record(line)
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
    id_names, id_rank = _interned(ids)
    tag_names, tag_rank = _interned(tags)
    return EventLog(id_names, kind, id_rank[actor], id_rank[target], ts,
                    tag_names, tag_ptr, tag_rank[tag_ids], skipped)


def read_events(path) -> EventLog:
    with open(path, encoding="utf-8") as fh:
        return parse_events(fh)


def check_ids(nodes: Iterable[str]) -> None:
    """Raise ValueError on the first id a covering file cannot hold: one
    that ``str.split`` does not return whole (covering lines split on
    whitespace) or that starts with ``#`` (a comment line)."""
    for node in nodes:
        if node.startswith("#") or node.split() != [node]:
            raise ValueError(f"node id {node!r} is empty, starts with '#' or "
                             "contains whitespace")


def read_follow_edges(path) -> StructuralGraph:
    """Read a ``followee,follower`` CSV into a StructuralGraph.

    Rows are deduplicated; self-follow rows and short rows are ignored. Ids
    are stripped and must pass :func:`check_ids`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty follow-edge file: {path}")
        pairs = ((row[0].strip(), row[1].strip()) for row in reader
                 if len(row) >= 2)
        edges = [(v, u) for v, u in pairs if v and u and v != u]
    graph = StructuralGraph.from_edges(edges)
    check_ids(graph.nodes)
    return graph


def write_follow_edges(graph: StructuralGraph, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["followee", "follower"])
        writer.writerows(graph.edges)


def count_information_events(log: EventLog, graph: StructuralGraph) -> InfoEventCounts:
    """Count outgoing/incoming information events for every graph node.

    Outgoing for u: mentions made by u of in-network users, plus retweets of
    u's posts by in-network users. Incoming for u: mentions of u by
    in-network users, plus retweets made by u of in-network users. Events
    touching anyone outside the graph are ignored entirely.
    """
    actor, target = log.positions(graph.nodes)
    inside = (actor >= 0) & (target >= 0)  # a post's target is -1
    mention = inside & (log.kind == MENTION)
    retweet = inside & (log.kind == RETWEET)  # actor rebroadcast target's post

    def tally(*codes) -> dict[str, int]:
        counts = np.bincount(np.concatenate(codes), minlength=len(graph.nodes))
        return {node: c for node, c in zip(graph.nodes, counts.tolist()) if c}

    return InfoEventCounts(outgoing=tally(actor[mention], target[retweet]),
                           incoming=tally(target[mention], actor[retweet]))


def filter_active(graph: StructuralGraph, counts: InfoEventCounts,
                  threshold: int = 9) -> tuple[StructuralGraph, FilterReport]:
    """Keep users with at least ``threshold`` outgoing AND incoming events.

    The threshold applies per event type, so a user must clear it on both
    counts to survive. Returns the induced subgraph and a report.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    kept = frozenset(node for node in graph.nodes
                     if min(counts.for_user(node)) >= threshold)
    report = FilterReport(
        kept=kept,
        removed_inactive=frozenset(graph.nodes) - kept,
        thresholds={"outgoing": threshold, "incoming": threshold,
                    "rule": "outgoing >= t AND incoming >= t (per-type)"},
    )
    return graph.subgraph(kept), report


def giant_scc(graph: StructuralGraph) -> tuple[StructuralGraph, FilterReport]:
    """Restrict to the largest strongly connected component.

    Size ties are broken toward the component containing the smallest node
    id (lexicographic byte order).
    """
    import networkx as nx  # lazily: slow to import, and only needed here

    if not graph.nodes:
        raise ValueError("empty graph")
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges)
    giant = min(nx.strongly_connected_components(g),
                key=lambda c: (-len(c), min(c)))
    report = FilterReport(kept=frozenset(giant),
                          removed_not_in_gscc=frozenset(graph.nodes) - giant)
    return graph.subgraph(giant), report


def combine_reports(active: FilterReport, scc: FilterReport) -> FilterReport:
    """Merge the activity-filter and SCC-restriction reports into one."""
    return replace(active, kept=scc.kept,
                   removed_not_in_gscc=scc.removed_not_in_gscc)
