"""Run one qocd command in process with a span around each module call.

    python3 perfbench/tracer.py SPANS.json synth -o data/ --seed 1

Each public function that ``qocd.cli`` looks up by name is replaced, in the
``qocd.cli`` namespace only, by a wrapper that records a span: its layer
name, start, end, the span that caused it, the growth of peak RSS across the
call and a few counts read from the arguments and the result. Spans stay in
memory and are written to SPANS.json when the command ends. A name that
``qocd.cli`` no longer has is listed as missing instead of wrapped, so a
refactor turns the metrics that need it into missing ones, not a crash.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# span name -> the qocd.cli names whose calls it times
LAYERS = {
    "synth.generate": ("generate",),
    "synth.write_events": ("write_events_jsonl",),
    "ingest.read_events": ("read_events",),
    "ingest.read_follows": ("read_follow_edges",),
    "ingest.filter": ("count_information_events", "filter_active", "giant_scc"),
    "activity.batch_coarsen": ("batch_coarsen",),
    "infotheory.te": ("transfer_entropy_weights",),
    "weighting.structural": ("structural_weights",),
    "weighting.interaction": ("mention_share_weights", "retweet_share_weights",
                              "mention_retweet_weights"),
    "weighting.hashtag": ("hashtag_tfidf_vectors", "hashtag_similarity_weights"),
    "communities.detect": ("detect_communities",),
    "communities.read_covering": ("read_covering",),
    "compare.nmi": ("nmi_matrix",),
    "edgestats.partition": ("partition_edges",),
    "edgestats.conditional_weights": ("conditional_weights",),
    "cli.write": ("write_follow_edges", "write_weight_table", "write_covering",
                  "write_influence_edges", "_write_nmi_csv", "_write_edge_report"),
}


def _covering_counts(covering) -> dict:
    return {"communities": len(covering.communities),
            "singletons": len(covering.singletons)}


def _nmi_counts(coverings) -> dict:
    sizes = len(coverings)
    return {"pairs": sizes * (sizes + 1) // 2,
            "rows": sum(len(c.communities) + len(c.singletons)
                        for c in coverings.values())}


# qocd.cli name -> counts from (args, kwargs, result), taken after the span ends
COUNTS = {
    "read_events": lambda a, kw, r: {"events": len(r)},
    "transfer_entropy_weights": lambda a, kw, r: {
        "edges": len(r.weights), "lag": a[2] if len(a) > 2 else kw["k"]},
    "detect_communities": lambda a, kw, r: dict(_covering_counts(r),
                                                edges=len(a[0].weights)),
    "read_covering": lambda a, kw, r: _covering_counts(r),
    "nmi_matrix": lambda a, kw, r: _nmi_counts(a[0]),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory spans of one process; span 0 is the whole command."""

    def __init__(self):
        self.spans: list[dict] = []
        self.open: list[int] = []
        self.missing: list[str] = []

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        kwargs = kwargs or {}
        span = {"name": name, "parent": self.open[-1] if self.open else None}
        self.open.append(len(self.spans))
        self.spans.append(span)
        rss = peak_rss_mb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.open.pop()
        span["rss_growth_mb"] = peak_rss_mb() - rss
        if counts is not None:
            span.update(counts(args, kwargs, result))
        return result

    def install(self, module) -> None:
        for layer, names in LAYERS.items():
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(fn_name)
                else:
                    setattr(module, fn_name,
                            self._wrapper(layer, fn, COUNTS.get(fn_name)))

    def _wrapper(self, layer, fn, counts):
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, counts)
        return traced


def main(argv: list[str]) -> int:
    spans_path, qocd_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(SRC))
    import qocd.cli

    tracer = Tracer()
    tracer.install(qocd.cli)
    code = 1
    try:
        code = tracer.call("cli.main", qocd.cli.main, (qocd_args,))
    finally:
        spans_path.write_text(json.dumps({"code": code, "spans": tracer.spans,
                                          "missing": tracer.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
