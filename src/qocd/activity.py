"""Per-user binary activity series over fixed-width time bins.

A user's stream of status emissions is coarsened to a 0/1 sequence: bin i is
1 iff the user emitted at least one status in that interval. Posts always
count; retweets count by default since they are status emissions too, and
mentions never do (a mentioning status shows up as a post in the event
model).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import EventLog, StructuralGraph


@dataclass(eq=False)
class ActivitySeries:
    """Binary activity indicators for one user.

    ``bins[i]`` covers timestamps ``origin + i*bin_width`` (inclusive) to
    ``origin + (i+1)*bin_width`` (exclusive).
    """

    user: str
    bins: np.ndarray
    bin_width: int
    origin: int

    def __len__(self) -> int:
        return len(self.bins)


def default_window(log: EventLog, bin_width: int) -> tuple[int, int]:
    """Observation window for a log: [min ts floored to a bin, max ts]."""
    if not log.events:
        raise ValueError("cannot infer a window from an empty log")
    ts = [ev.ts for ev in log.events]
    origin = (min(ts) // bin_width) * bin_width
    return origin, max(ts)


def series_length(origin: int, end: int, bin_width: int) -> int:
    return -((end - origin + 1) // -bin_width)  # ceil division


def _activity_kinds(retweets_count: bool) -> tuple[str, ...]:
    return ("post", "retweet") if retweets_count else ("post",)


def coarsen(log: EventLog, user: str, bin_width: int = 600,
            window: tuple[int, int] | None = None,
            retweets_count_as_activity: bool = True) -> ActivitySeries:
    """Build the activity series of one user.

    Events outside the window are dropped. A user absent from the log simply
    gets an all-zero series.
    """
    graph = StructuralGraph(nodes=frozenset([user]), edges=frozenset())
    return batch_coarsen(log, graph, bin_width, window,
                         retweets_count_as_activity)[user]


def batch_coarsen(log: EventLog, graph: StructuralGraph, bin_width: int = 600,
                  window: tuple[int, int] | None = None,
                  retweets_count_as_activity: bool = True,
                  ) -> dict[str, ActivitySeries]:
    """Activity series for every graph node, sharing origin and length."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    if not graph.nodes:
        return {}
    origin, end = window if window is not None else default_window(log, bin_width)
    if origin > end:
        raise ValueError("window origin must not exceed its end")
    length = series_length(origin, end, bin_width)
    kinds = _activity_kinds(retweets_count_as_activity)
    series = {
        user: ActivitySeries(user=user, bins=np.zeros(length, dtype=np.uint8),
                             bin_width=bin_width, origin=origin)
        for user in graph.nodes
    }
    for ev in log.events:
        if ev.kind not in kinds or ev.actor not in series:
            continue
        if ev.ts < origin or ev.ts > end:
            continue
        series[ev.actor].bins[(ev.ts - origin) // bin_width] = 1
    return series


def write_series_csv(series: dict[str, ActivitySeries], path) -> dict:
    """Debug dump: one ``user,bin0,bin1,...`` row per user, sorted by user.

    Bin width, origin, and length go to a JSON sidecar next to the CSV;
    the header is also returned.
    """
    users = sorted(series)
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for user in users:
            s = series[user]
            fh.write(user + "," + ",".join(str(int(b)) for b in s.bins) + "\n")
    if users:
        first = series[users[0]]
        header = {"bin_width": first.bin_width, "origin": first.origin,
                  "length": len(first)}
    else:
        header = {"bin_width": None, "origin": None, "length": 0}
    path.with_suffix(".json").write_text(
        json.dumps(header, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return header
