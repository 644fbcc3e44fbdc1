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
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

EVENT_KINDS = ("post", "mention", "retweet")


@dataclass(frozen=True)
class Event:
    """One user action: a post, a mention of another user, or a retweet.

    ``target`` is the mentioned user for mentions and the original author for
    retweets; posts carry no target. Hashtags are lowercase, '#'-free, and
    only attached to posts.
    """

    kind: str
    actor: str
    ts: int
    target: str | None = None
    hashtags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventLog:
    """Parsed events in input order, plus the count of skipped bad lines."""

    events: tuple[Event, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


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
        src, dst = (np.array(a, dtype=np.int32) for a in (self.src, self.dst))
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
        codes = codes.reshape(-1, 2)
        keys = np.sort(codes[:, 0] * len(names) + codes[:, 1])
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
    removed_inactive: frozenset[str]
    removed_not_in_gscc: frozenset[str]
    thresholds: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kept": sorted(self.kept),
            "removed_inactive": sorted(self.removed_inactive),
            "removed_not_in_gscc": sorted(self.removed_not_in_gscc),
            "thresholds": self.thresholds,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _normalize_hashtags(raw) -> tuple[str, ...] | None:
    """Lowercase, strip a leading '#'; None signals a malformed tag list."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        return None
    tags = []
    for tag in raw:
        if not isinstance(tag, str):
            return None
        tag = tag.lower().lstrip("#")
        if not tag or any(c.isspace() for c in tag):
            return None
        tags.append(tag)
    return tuple(tags)


def _parse_event_record(rec: dict) -> Event | None:
    kind = rec.get("kind")
    actor = rec.get("actor")
    ts = rec.get("ts")
    target = rec.get("target")
    if kind not in EVENT_KINDS or not isinstance(actor, str) or not actor:
        return None
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        return None
    if kind == "post":
        if target is not None:
            return None
        hashtags = _normalize_hashtags(rec.get("hashtags"))
        if hashtags is None:
            return None
        return Event(kind=kind, actor=actor, ts=ts, hashtags=hashtags)
    # mentions and retweets need a target and never carry hashtags
    if not isinstance(target, str) or not target:
        return None
    return Event(kind=kind, actor=actor, ts=ts, target=target)


def parse_events(stream: IO[str] | Iterable[str]) -> EventLog:
    """Parse line-delimited JSON event records.

    Malformed lines (bad JSON, unknown kind, missing/invalid fields) are
    skipped and counted; an unreadable stream raises.
    """
    events = []
    skipped = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        event = _parse_event_record(rec) if isinstance(rec, dict) else None
        if event is None:
            skipped += 1
        else:
            events.append(event)
    return EventLog(events=tuple(events), skipped=skipped)


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
    edges = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty follow-edge file: {path}")
        for row in reader:
            if len(row) < 2:
                continue
            followee, follower = row[0].strip(), row[1].strip()
            if not followee or not follower or followee == follower:
                continue
            edges.append((followee, follower))
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
    nodes = frozenset(graph.nodes)
    outgoing: Counter[str] = Counter()
    incoming: Counter[str] = Counter()
    for ev in log.events:
        if ev.kind == "post":
            continue
        if ev.actor not in nodes or ev.target not in nodes:
            continue
        if ev.kind == "mention":
            outgoing[ev.actor] += 1
            incoming[ev.target] += 1
        else:  # retweet: actor rebroadcast target's post
            outgoing[ev.target] += 1
            incoming[ev.actor] += 1
    return InfoEventCounts(outgoing=dict(outgoing), incoming=dict(incoming))


def filter_active(graph: StructuralGraph, counts: InfoEventCounts,
                  threshold: int = 9) -> tuple[StructuralGraph, FilterReport]:
    """Keep users with at least ``threshold`` outgoing AND incoming events.

    The threshold applies per event type, so a user must clear it on both
    counts to survive. Returns the induced subgraph and a report.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    kept = set()
    removed = set()
    for node in graph.nodes:
        out_n, in_n = counts.for_user(node)
        if out_n >= threshold and in_n >= threshold:
            kept.add(node)
        else:
            removed.add(node)
    report = FilterReport(
        kept=frozenset(kept),
        removed_inactive=frozenset(removed),
        removed_not_in_gscc=frozenset(),
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
    components = list(nx.strongly_connected_components(g))
    giant = min(components, key=lambda c: (-len(c), min(c)))
    report = FilterReport(
        kept=frozenset(giant),
        removed_inactive=frozenset(),
        removed_not_in_gscc=frozenset(graph.nodes) - giant,
        thresholds={},
    )
    return graph.subgraph(giant), report


def combine_reports(active: FilterReport, scc: FilterReport) -> FilterReport:
    """Merge the activity-filter and SCC-restriction reports into one."""
    return FilterReport(
        kept=scc.kept,
        removed_inactive=active.removed_inactive,
        removed_not_in_gscc=scc.removed_not_in_gscc,
        thresholds=active.thresholds,
    )
