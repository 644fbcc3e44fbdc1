"""Raw data ingestion: event logs, follow graphs, and activity filtering.

Events arrive as JSON lines in the one format that ``write_events_jsonl``
writes and ``parse_events`` reads, follow relations as a
``followee,follower`` CSV. Follow edges are stored followee -> follower, the
direction information travels. Filtering keeps users with enough incoming
and outgoing information events and then restricts to the giant strongly
connected component. The module also holds the one output format:
``open_output``, ``write_csv`` and ``write_json`` open, quote and format
every file qocd writes.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import IO, Iterable

import numpy as np

EVENT_KINDS = ("post", "mention", "retweet")
POST, MENTION, RETWEET = range(len(EVENT_KINDS))  # the kind codes
_COLUMNS = {"kind": np.uint8, "actor": np.int32, "target": np.int32,
            "ts": np.int64, "tag_ptr": np.int64, "tag_ids": np.int32}


def _exact_cast(column, dtype) -> np.ndarray:
    """``column`` as a ``dtype`` array: a read-only array of that dtype as
    it is, anything else as a new array, so that a caller's writable array
    is never shared; ValueError if the cast would change a value (one out
    of range, or a fraction), where numpy would wrap it."""
    given = np.asarray(column)
    if given.dtype == dtype:  # no value can change
        return given.copy() if given.flags.writeable else given
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

    def subgraph(self, keep: np.ndarray) -> "StructuralGraph":
        """Induced subgraph on the nodes that the bool mask ``keep`` marks."""
        mask = np.asarray(keep)
        if mask.dtype != bool or mask.shape != (len(self.nodes),):
            raise ValueError(f"need a bool mask of {len(self.nodes)} nodes")
        renumber = np.cumsum(mask) - 1
        inside = mask[self.src] & mask[self.dst]
        return StructuralGraph(tuple(compress(self.nodes, mask.tolist())),
                               renumber[self.src[inside]],
                               renumber[self.dst[inside]])


def _tags(raw):
    """The normalized tags of a post's ``hashtags`` value (None: no tags),
    or None unless it is a list of strings, each one non-empty and free of
    whitespace once lowercased and stripped of leading ``#``."""
    raw = [] if raw is None else raw
    if not isinstance(raw, list):
        return None
    tags = [tag.lower().lstrip("#") for tag in raw if isinstance(tag, str)]
    # split() returns a tag whole iff it is non-empty and has no whitespace
    ok = len(tags) == len(raw) and all([tag.split() == [tag] for tag in tags])
    return tags if ok else None


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
    target = rec.get("target")
    # type(), not isinstance(): a bool is an int too; ts must fit in int64
    if (kind not in EVENT_KINDS or not isinstance(actor, str) or not actor
            or type(ts) is not int or not 0 <= ts < 2 ** 63):
        return None
    if kind != "post":  # mentions and retweets need a target, carry no tags
        ok = isinstance(target, str) and target
        return (EVENT_KINDS.index(kind), actor, ts, target, ()) if ok else None
    tags = _tags(rec.get("hashtags"))
    if target is not None or tags is None:
        return None
    return (POST, actor, ts, None, tags)


def _interned(codes: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted names of ``codes`` (name -> code in order of first sight)
    and each code's rank among them, plus a last entry -1 for code -1."""
    names = sorted(codes)
    rank = np.full(len(names) + 1, -1, dtype=np.int32)
    rank[[codes[name] for name in names]] = np.arange(len(names))
    return tuple(names), rank


# One event line as write_events_jsonl writes it: keys in sorted order,
# ", " and ": " separators, strings with no escape or control character,
# and a ts with no sign, fraction or leading zero. Only the end of the
# pattern matches a line end, so each match lies within one line. split()
# yields the text before each match, then its actor, hashtags, kind,
# target and ts.
_CHAR = r'[^"\\\x00-\x1f]'  # a string character that needs no escape
_CANONICAL = re.compile(
    rf'\{{"actor": "({_CHAR}+)"'
    rf'(?:, "hashtags": \[((?:"{_CHAR}*"(?:, "{_CHAR}*")*)?)\])?'
    rf', "kind": "(post|mention|retweet)"(?:, "target": "({_CHAR}+)")?'
    r', "ts": (0|[1-9][0-9]{0,18})\}(?:\n|\Z)')
_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
# characters of whole lines that readlines reads at once; a batch's split
# strings take several times its size, so it stays small
_BLOCK = 1 << 18
_CHUNK = 1 << 16  # codes ranked at once
_WRITE_LINES = 1024  # event lines per write


def write_events_jsonl(log: EventLog, path) -> None:
    """Each line equals ``json.dumps(record, sort_keys=True)``, joined in key
    order from pieces json.dumps encoded once per id, tag and kind."""
    ids = [json.dumps(name) for name in log.ids]
    targets = [', "target": ' + name for name in ids] + [""]  # -1: a post
    kinds = [json.dumps(name) for name in EVENT_KINDS]
    tags = [json.dumps(name) for name in log.tags]
    with open_output(path) as fh:
        for lo in range(0, len(log), _WRITE_LINES):
            ptr = log.tag_ptr[lo:lo + _WRITE_LINES + 1]
            names = [tags[j] for j in log.tag_ids[ptr[0]:ptr[-1]].tolist()]
            ptr = (ptr - ptr[0]).tolist()
            hashtags = [f', "hashtags": [{", ".join(names[a:b])}]' if b > a
                        else "" for a, b in zip(ptr, ptr[1:])]
            rows = zip(*(col[lo:lo + _WRITE_LINES].tolist() for col in (
                log.actor, log.kind, log.target, log.ts)), hashtags)
            fh.write("".join([f'{{"actor": {ids[a]}{h}, "kind": {kinds[k]}'
                              f'{targets[t]}, "ts": {s}}}\n'
                              for a, k, t, s, h in rows]))


class _Columns:
    """The growing buffers of :func:`parse_events`; ids and tags are coded
    in order of first sight and ranked once at the end."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.tags: dict[str, int] = {}
        # hashtags text of a canonical post line (None: no tags) -> tag codes
        self.coded: dict[str | None, list[int]] = {None: []}
        self.kind, self.ts = array("B"), array("q")
        self.actor, self.target = array("i"), array("i")
        self.tag_ptr, self.tag_ids = array("q", [0]), array("i")
        self.skipped = 0

    def add_lines(self, lines: list[str]) -> None:
        """Append each line's event through :func:`_parse_record`; count
        the bad lines, pass over the blank ones."""
        text = [line for line in map(str.strip, lines) if line]
        fields = [rec for rec in map(_parse_record, text) if rec is not None]
        self.skipped += len(text) - len(fields)
        if fields:
            kind, actors, stamps, targets, hashtags = zip(*fields)
            tags = self.tags
            self._append(array("B", kind), actors, targets,
                         np.array(stamps, dtype=np.int64),
                         [[tags.setdefault(tag, len(tags)) for tag in names]
                          for code, names in zip(kind, hashtags)
                          if code == POST])

    def add_block(self, lines: list[str]) -> bool:
        """Append the events of a batch of whole lines and return True if
        each line is one match of ``_CANONICAL`` and :func:`_parse_record`
        would accept each one; else append nothing and return False.

        A mention's or retweet's hashtags are ignored, as there. Each
        distinct hashtags text is decoded once per parse, and a batch
        codes no id, tag or text until every check has passed."""
        parts = _CANONICAL.split("".join(lines))
        # one match per line: a stream split at \r alone may pass a \n in one
        if len(parts) != 6 * len(lines) + 1 or any(parts[::6]):
            return False
        actors, hashtags, kinds, targets, stamps = (parts[i::6]
                                                    for i in range(1, 6))
        kind = array("B", map(_KIND_CODES.__getitem__, kinds))
        ts = np.fromstring(" ".join(stamps), dtype=np.int64, sep=" ")
        # strtoll clamps a ts of 2**63 or more to the int64 maximum, so a
        # batch holding that maximum goes to json.loads, which tells them apart
        if ts.max() == np.iinfo(np.int64).max:
            return False
        post = (np.asarray(kind) == POST).tolist()
        post_tags = list(compress(hashtags, post))
        # a post has no target; a mention or a retweet has one
        if any(compress(targets, post)) or \
                targets.count(None) != len(post_tags):
            return False
        coded = self.coded
        new = {text: _tags(json.loads("[" + text + "]"))
               for text in dict.fromkeys(post_tags) if text not in coded}
        if None in new.values():
            return False
        tags = self.tags
        for text, names in new.items():
            coded[text] = [tags.setdefault(tag, len(tags)) for tag in names]
        self._append(kind, actors, targets, ts,
                     list(map(coded.__getitem__, post_tags)))
        return True

    def _append(self, kind: array, actors, targets, ts: np.ndarray,
                post_tags: list[list[int]]) -> None:
        """Append events given as their kind codes, actor and target ids
        (None: a post's target), int64 stamps and the tag codes of each
        post in order; ids are coded here."""
        ids = self.ids
        actor = array("i", map(ids.get, actors, repeat(-1)))
        target = array("i", map(ids.get, targets, repeat(-1)))
        if -1 in actor or target.count(-1) != len(post_tags):  # a new id
            for name in dict.fromkeys(chain(actors, targets)):
                if name is not None:
                    ids.setdefault(name, len(ids))
            actor = array("i", map(ids.__getitem__, actors))
            target = array("i", map(ids.get, targets, repeat(-1)))
        per_event = np.zeros(len(kind), dtype=np.int64)
        per_event[np.asarray(kind) == POST] = np.fromiter(
            map(len, post_tags), dtype=np.int64, count=len(post_tags))
        self.kind += kind
        self.actor += actor
        self.target += target
        self.ts.frombytes(ts.tobytes())
        self.tag_ptr.frombytes((np.cumsum(per_event)
                                + self.tag_ptr[-1]).tobytes())
        self.tag_ids += array("i", chain.from_iterable(post_tags))

    def log(self) -> EventLog:
        """The event log of the buffers, handed over without a copy: the
        code columns are ranked in place."""
        id_names, id_rank = _interned(self.ids)
        tag_names, tag_rank = _interned(self.tags)
        return EventLog(id_names, _frozen(self.kind),
                        _frozen(self.actor, id_rank),
                        _frozen(self.target, id_rank), _frozen(self.ts),
                        tag_names, _frozen(self.tag_ptr),
                        _frozen(self.tag_ids, tag_rank), self.skipped)


def _frozen(buffer: array, rank: np.ndarray | None = None) -> np.ndarray:
    """A read-only array on the memory of ``buffer``, each code first
    replaced by ``rank[code]`` in place if ``rank`` is given."""
    a = np.asarray(buffer)
    if rank is not None:
        for lo in range(0, len(a), _CHUNK):
            a[lo:lo + _CHUNK] = rank[a[lo:lo + _CHUNK]]
    a.flags.writeable = False
    return a


def parse_events(stream: IO[str]) -> EventLog:
    """Parse a text stream of JSON event records, one per line, into typed
    buffers, sorting the ids and hashtags once at the end. Malformed lines
    (bad JSON, unknown kind, missing/invalid fields) are skipped and
    counted; an unreadable stream raises.

    Lines are read as the stream splits them, in batches of whole lines
    from ``readlines``. A batch whose lines are all as
    :func:`write_events_jsonl` writes them is split by one regex; any other
    batch goes line by line through ``json.loads``. Both give the same
    log."""
    columns = _Columns()
    while lines := stream.readlines(_BLOCK):
        if not columns.add_block(lines):
            columns.add_lines(lines)
    return columns.log()


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


def open_output(path) -> IO[str]:
    """Open ``path`` for writing as UTF-8 text with ``\\n`` line ends, making
    its parent directory first: the one way qocd opens an output file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """``header`` (unless None) and ``rows`` in qocd's one CSV dialect:
    minimal quoting, so a field with a comma, quote or line break is
    quoted and reads back whole, and ``\\n`` line ends."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """``obj`` as qocd's one JSON document style: sorted keys, two-space
    indent and a final newline."""
    with open_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_follow_edges(graph: StructuralGraph, path) -> None:
    write_csv(path, ["followee", "follower"], graph.edges)


def count_information_events(log: EventLog, graph: StructuralGraph,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(outgoing, incoming) int64 counts per node, in ``graph.nodes`` order.

    Outgoing for u: mentions made by u of in-network users, plus retweets of
    u's posts by in-network users. Incoming for u: mentions of u by
    in-network users, plus retweets made by u of in-network users. Events
    touching anyone outside the graph are ignored entirely.
    """
    actor, target = log.positions(graph.nodes)
    inside = (actor >= 0) & (target >= 0)  # a post's target is -1
    mention = inside & (log.kind == MENTION)
    retweet = inside & (log.kind == RETWEET)  # actor rebroadcast target's post

    def tally(*codes) -> np.ndarray:
        return np.bincount(np.concatenate(codes), minlength=len(graph.nodes))

    return (tally(actor[mention], target[retweet]),
            tally(target[mention], actor[retweet]))


def filter_active(graph: StructuralGraph,
                  counts: tuple[np.ndarray, np.ndarray],
                  threshold: int = 9) -> StructuralGraph:
    """Keep users with at least ``threshold`` outgoing AND incoming events,
    as :func:`count_information_events` counts them on ``graph``.

    The threshold applies per event type, so a user must clear it on both
    counts to survive. Returns the induced subgraph.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return graph.subgraph(np.minimum(*counts) >= threshold)


def giant_scc(graph: StructuralGraph) -> StructuralGraph:
    """Restrict to the largest strongly connected component.

    Size ties are broken toward the component containing the smallest node
    code, which is the smallest id in lexicographic byte order.
    """
    import networkx as nx  # lazily: slow to import, and only needed here

    if not graph.nodes:
        raise ValueError("empty graph")
    g = nx.DiGraph()
    g.add_nodes_from(range(len(graph.nodes)))
    g.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    giant = min(nx.strongly_connected_components(g),
                key=lambda c: (-len(c), min(c)))
    return graph.subgraph(np.isin(np.arange(len(graph.nodes)), list(giant)))
