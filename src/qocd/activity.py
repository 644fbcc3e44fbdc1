"""Per-user binary activity series over fixed-width time bins.

A user's stream of status emissions is coarsened to a 0/1 sequence: bin i is
1 iff the user emitted at least one status in that interval. Posts always
count; retweets count by default since they are status emissions too, and
mentions never do (a mentioning status shows up as a post in the event
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (POST, RETWEET, EventLog, StructuralGraph, _exact_cast,
                     write_csv, write_json)

# nodes x bins: 1 GiB of uint8 activity and 4 GiB of int32 TE window codes
MAX_CELLS = 2**30


@dataclass(frozen=True, eq=False)
class ActivityMatrix:
    """Binary activity indicators of several users over shared bins.

    ``bits[i, j]`` is 1 iff ``nodes[i]`` was active in bin j, which covers
    timestamps ``origin + j*bin_width`` (inclusive) to
    ``origin + (j+1)*bin_width`` (exclusive). Nodes are sorted and unique,
    one row each. The matrix is read-only uint8: a read-only uint8 matrix
    is kept as it is, anything else is copied, as in ``EventLog``.
    """

    nodes: tuple[str, ...]
    bits: np.ndarray
    bin_width: int
    origin: int

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if list(nodes) != sorted(set(nodes)):
            raise ValueError("activity nodes must be sorted and unique")
        bits = np.asarray(self.bits)
        if bits.ndim != 2:
            raise ValueError("activity bits must be a 2-D node x bin matrix")
        if bits.shape[0] != len(nodes):
            raise ValueError(f"activity has {bits.shape[0]} rows for "
                             f"{len(nodes)} nodes")
        try:
            bits = _exact_cast(bits, np.uint8)
        except ValueError:
            bits = None
        if bits is None or bits.max(initial=0) > 1:
            raise ValueError("activity values must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "bits", bits)


def default_window(log: EventLog, bin_width: int) -> tuple[int, int]:
    """Observation window for a log: [min ts floored to a bin, max ts]."""
    if not len(log):
        raise ValueError("cannot infer a window from an empty log")
    return (int(log.ts.min()) // bin_width) * bin_width, int(log.ts.max())


def series_length(origin: int, end: int, bin_width: int) -> int:
    return -((end - origin + 1) // -bin_width)  # ceil division


def batch_coarsen(log: EventLog, graph: StructuralGraph, bin_width: int = 600,
                  window: tuple[int, int] | None = None,
                  retweets_count_as_activity: bool = True) -> ActivityMatrix:
    """Activity of every graph node over one window.

    Events outside the window are dropped, and a node absent from the log
    gets an all-zero row. An empty graph gives an empty matrix without
    inferring a window.
    """
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    nodes = graph.nodes
    if not nodes:
        return ActivityMatrix(nodes, np.zeros((0, 0), dtype=np.uint8),
                              bin_width, window[0] if window else 0)
    origin, end = window if window is not None else default_window(log, bin_width)
    if origin > end:
        raise ValueError("window origin must not exceed its end")
    bins = series_length(origin, end, bin_width)
    if len(nodes) * bins > MAX_CELLS:
        raise ValueError(f"{len(nodes)} nodes x {bins} bins of width "
                         f"{bin_width} exceed {MAX_CELLS} activity cells")
    kinds = [POST, RETWEET] if retweets_count_as_activity else [POST]
    bits = np.zeros((len(nodes), bins), dtype=np.uint8)
    row, _ = log.positions(nodes)
    keep = ((row >= 0) & np.isin(log.kind, kinds)
            & (log.ts >= origin) & (log.ts <= end))
    bits[row[keep], (log.ts[keep] - origin) // bin_width] = 1
    bits.flags.writeable = False  # so ActivityMatrix keeps it, not a copy
    return ActivityMatrix(nodes, bits, bin_width, origin)


def write_series_csv(activity: ActivityMatrix, path) -> dict:
    """Debug dump: one ``user,bin0,bin1,...`` row per node, in node order.

    Bin width, origin, and length go to a JSON sidecar next to the CSV;
    the header is also returned.
    """
    path = Path(path)
    write_csv(path, None, ([node, *bits] for node, bits
                           in zip(activity.nodes, activity.bits.tolist())))
    if activity.nodes:
        header = {"bin_width": activity.bin_width, "origin": activity.origin,
                  "length": activity.bits.shape[1]}
    else:
        header = {"bin_width": None, "origin": None, "length": 0}
    write_json(path.with_suffix(".json"), header)
    return header
