"""Command-line pipeline: synth, ingest, weight, detect, compare, edges,
report, and the end-to-end pipeline command.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent inputs), 3 internal error. All outputs are written in sorted
order with fixed formatting, so repeated runs on the same inputs and seed
are byte-identical. ``--threads`` is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy

from . import __version__
from .activity import batch_coarsen, write_series_csv
from .communities import (Covering, covering_stats, detect_communities,
                          read_covering, write_covering)
from .compare import nmi_matrix
from .edgestats import conditional_weights, partition_edges, size_ccdf
from .infotheory import MAX_LAG
from .ingest import (check_ids, count_information_events, filter_active,
                     giant_scc, open_input, read_events, read_follow_edges,
                     write_csv, write_events_jsonl, write_follow_edges,
                     write_json)
from .synth import SynthConfig, generate, write_influence_edges
from .weighting import (WeightedDigraph, hashtag_similarity_weights,
                        hashtag_tfidf_vectors, mention_retweet_weights,
                        mention_share_weights, orphans, retweet_share_weights,
                        structural_weights, transfer_entropy_weights)

SCHEMES = ("structural", "mention", "retweet", "mention_retweet", "hashtag",
           "te")


def _bounded(convert, low, strict: bool = False, high=math.inf):
    """An argparse type: ``convert(text)``, finite, at least ``low`` (or
    above it, if ``strict``) and at most ``high``, so a bad flag exits 1
    before any stage runs. Exact comparisons take an int of any size."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if (not (value > low if strict else value >= low) or value > high
                or not value < math.inf):
            upper = f" and <= {high}" if high < math.inf else ""
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}{upper}, got {value}")
        return value
    return parse


# histogram bins per edge report: memory and summary.json grow with it
MAX_HIST_BINS = 10_000
# timestamps are int64, and batch_coarsen divides them by the width in int64
MAX_BIN_WIDTH = 2**63 - 1
_positive_int = _bounded(int, 1)
_bin_width = _bounded(int, 1, high=MAX_BIN_WIDTH)
_lag = _bounded(int, 1, high=MAX_LAG)
_hist_bins = _bounded(int, 1, high=MAX_HIST_BINS)
_non_negative_int = _bounded(int, 0)
_positive_float = _bounded(float, 0, strict=True)


def write_weight_table(wg: WeightedDigraph, path: Path, meta: dict) -> None:
    write_csv(path, ["source", "target", "weight"],
              ((v, u, w) for (v, u), w
               in zip(wg.graph.edges, wg.values.tolist())))
    write_json(path.with_suffix(".json"), dict(meta, scheme=wg.scheme))


def read_weight_table(path: Path) -> WeightedDigraph:
    weights = {}
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source", "target", "weight"]:
            raise ValueError(f"not a weight table: {path}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"bad weight row in {path}: {row!r}")
            if (row[0], row[1]) in weights:
                raise ValueError(f"repeated edge in {path} at line "
                                 f"{reader.line_num}: {row!r}")
            try:
                weight = float(row[2])
            except ValueError:
                weight = math.nan
            if not 0 <= weight < math.inf:  # also rejects NaN
                raise ValueError(f"weights must be finite non-negative numbers"
                                 f"; {path} line {reader.line_num}: {row!r}")
            weights[(row[0], row[1])] = weight
    wg = WeightedDigraph.from_mapping(weights,
                                      path.stem.removeprefix("weights_"))
    check_ids(wg.graph.nodes)
    return wg


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    names = {f.name for f in fields(SynthConfig)}
    cfg = SynthConfig(**{name: value for name, value in vars(args).items()
                         if name in names})
    try:
        cfg.validate()
    except ValueError as exc:  # a bad flag: exit 1 before any output
        sys.stderr.write(f"qocd synth: error: {exc}\n")
        return 1
    out = Path(args.output)
    log, graph, truth = generate(cfg)
    write_events_jsonl(log, out / "events.jsonl")
    write_follow_edges(graph, out / "follows.csv")
    write_covering(truth.covering, out / "planted_covering.txt")
    write_influence_edges(truth, out / "planted_influence.csv")
    write_json(out / "config.json", asdict(cfg))
    print(f"synth: {len(graph.nodes)} nodes, {len(graph.src)} edges, "
          f"{len(log)} events -> {out}")
    return 0


def _run_ingest(indir: Path, threshold: int):
    """The event log, the filtered graph and its ``filter_report.json``
    dict, from ``events.jsonl`` and ``follows.csv`` in ``indir``; writes
    nothing. Node tuples are sorted, so each list is too."""
    log = read_events(indir / "events.jsonl")
    graph = read_follow_edges(indir / "follows.csv")
    active = filter_active(graph, count_information_events(log, graph),
                           threshold)
    if not active.nodes:
        raise ValueError("no users survive the activity filter")
    final = giant_scc(active)
    kept, active_set = set(final.nodes), set(active.nodes)
    report = {
        "kept": list(final.nodes),
        "removed_inactive": [v for v in graph.nodes if v not in active_set],
        "removed_not_in_gscc": [v for v in active.nodes if v not in kept],
        "thresholds": {"outgoing": threshold, "incoming": threshold,
                       "rule": "outgoing >= t AND incoming >= t (per-type)"},
    }
    return log, final, report


def _write_ingest(graph, report: dict, out: Path) -> None:
    write_follow_edges(graph, out / "graph.csv")
    write_json(out / "filter_report.json", report)


def cmd_ingest(args) -> int:
    log, graph, report = _run_ingest(Path(args.input), args.threshold)
    _write_ingest(graph, report, Path(args.output))
    kept = len(report["kept"])
    removed = len(report["removed_inactive"]) + len(report["removed_not_in_gscc"])
    print(f"ingest: kept {kept} of {kept + removed} users "
          f"({log.skipped} malformed lines skipped)")
    return 0


def _run_weights(log, graph, args, schemes, lags, series=False):
    """The tables of ``schemes`` (TE once per lag in ``lags``), each with
    its sidecar dict, in name order, and the activity matrix, built once
    if TE or ``series`` needs it, else None; writes nothing.

    Every sidecar records the bin width and whether retweets count as
    activity; TE sidecars add the lag, the hashtag one the tf-idf base,
    which cosine cancels, so it changes no weight.
    """
    retweets = args.retweets_count_as_activity
    meta = {"bin_width": args.bin_width, "retweets_count_as_activity": retweets}
    built: list[tuple[WeightedDigraph, dict]] = []
    if "structural" in schemes:
        built.append((structural_weights(graph), meta))
    activity = (batch_coarsen(log, graph, bin_width=args.bin_width,
                              retweets_count_as_activity=retweets)
                if "te" in schemes or series else None)
    if "te" in schemes:
        built += [(transfer_entropy_weights(graph, activity, k),
                   dict(meta, lag=k)) for k in lags]
    shares = {scheme: build(graph, log) for scheme, build in (
        ("mention", mention_share_weights), ("retweet", retweet_share_weights))
        if {scheme, "mention_retweet"} & set(schemes)}  # each at most once
    built += [(shares[s], meta) for s in ("mention", "retweet") if s in schemes]
    if "mention_retweet" in schemes:
        built.append((mention_retweet_weights(shares["mention"],
                                              shares["retweet"]), meta))
    if "hashtag" in schemes:
        vectors = hashtag_tfidf_vectors(log, graph.nodes)
        built.append((hashtag_similarity_weights(graph, vectors),
                      dict(meta, tfidf_log_base=args.tfidf_log_base)))
    built.sort(key=lambda pair: pair[0].scheme)
    return built, activity


def cmd_weight(args) -> int:
    log = read_events(Path(args.events))
    graph = read_follow_edges(Path(args.graph))
    out = Path(args.output)
    schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
    lags = [args.lag] if args.lag else range(1, args.max_lag + 1)
    built, activity = _run_weights(log, graph, args, schemes, lags,
                                   args.dump_series)
    if args.dump_series:
        write_series_csv(activity, out / "activity_series.csv")
    for wg, sidecar in built:
        write_weight_table(wg, out / f"weights_{wg.scheme}.csv", sidecar)
        print(f"weight: wrote weights_{wg.scheme}.csv "
              f"({int((wg.values > 0).sum())} positive "
              f"of {len(wg.values)} edges)")
    return 0


def cmd_detect(args) -> int:
    wg = read_weight_table(Path(args.weights))
    covering = detect_communities(wg, args.alpha)
    out = Path(args.output)
    write_covering(covering, out)
    stats = covering_stats(covering)
    print(f"detect: {stats['communities']} communities, "
          f"{stats['singletons']} singletons -> {out}")
    return 0


def _read_coverings(paths, universe: tuple[str, ...] | None,
                    ) -> dict[str, Covering]:
    """Covering files keyed by label, the file stem without ``covering_``.

    Without a universe, each file's universe is the ids it names.
    """
    coverings = {}
    for path in map(Path, paths):
        label = _covering_label(path)
        if label in coverings:
            raise ValueError(f"duplicate covering label {label!r}")
        coverings[label] = read_covering(path, universe)
    return coverings


def _covering_label(path: Path) -> str:
    return path.stem.removeprefix("covering_")


def cmd_compare(args) -> int:
    graph = read_follow_edges(Path(args.graph))
    coverings = _read_coverings(args.coverings, graph.nodes)
    labels, matrix = nmi_matrix(coverings)
    out = Path(args.output)
    _write_nmi_csv(labels, matrix, out)
    print(f"compare: {len(labels)} coverings -> {out}")
    return 0


def _write_nmi_csv(labels, matrix, path: Path) -> None:
    write_csv(path, ["covering", *labels],
              ([label, *row] for label, row in zip(labels, matrix.tolist())))


def _write_edge_report(summary: dict, out: Path, covering: str) -> None:
    classes = {name: dict(c) for name, c in summary["classes"].items()}
    write_csv(out / "summary.csv", ["class", "count", "median"],
              ((name, c["count"], c["median"]) for name, c in classes.items()))
    for name, c in classes.items():  # the CCDF points go to the CSVs only
        write_csv(out / f"ccdf_{name}.csv", ["weight", "proportion"],
                  c.pop("ccdf"))
    write_json(out / "summary.json",
               dict(summary, covering=covering, classes=classes))


def cmd_edges(args) -> int:
    wg = read_weight_table(Path(args.weights))
    path = Path(args.covering)
    classes = partition_edges(wg, read_covering(path, wg.graph.nodes))
    summary = conditional_weights(wg, classes, bins=args.hist_bins)
    _write_edge_report(summary, Path(args.output), _covering_label(path))
    print(f"edges: {len(classes)} edges partitioned -> {args.output}")
    return 0


def _write_report(coverings: dict[str, Covering], tables, out: Path) -> None:
    """``covering_stats.csv`` and ``size_ccdf_<label>.csv`` per covering, in
    label order, plus ``orphans.csv`` over ``tables`` in the order given."""
    labels = sorted(coverings)
    stats = [covering_stats(coverings[label]) for label in labels]
    write_csv(out / "covering_stats.csv",
              ["covering", "communities", "singletons"],
              ((label, s["communities"], s["singletons"])
               for label, s in zip(labels, stats)))
    for label in labels:
        write_csv(out / f"size_ccdf_{label}.csv", ["size", "proportion"],
                  size_ccdf(coverings[label]))
    if tables:
        write_csv(out / "orphans.csv", ["scheme", "orphans"],
                  ((wg.scheme, len(orphans(wg))) for wg in tables))


def cmd_report(args) -> int:
    universe = (read_follow_edges(Path(args.graph)).nodes if args.graph
                else None)
    coverings = _read_coverings(sorted(args.coverings), universe)
    tables = {}
    for wg in (read_weight_table(Path(p)) for p in sorted(args.weights)):
        if wg.scheme in tables:
            raise ValueError(f"duplicate weight table scheme {wg.scheme!r}")
        tables[wg.scheme] = wg
    _write_report(coverings, tables.values(), Path(args.output))
    print(f"report: {len(coverings)} coverings summarized -> {args.output}")
    return 0


def cmd_pipeline(args) -> int:
    indir, out = Path(args.input), Path(args.output)
    log, graph, report = _run_ingest(indir, args.threshold)
    built, _ = _run_weights(log, graph, args, SCHEMES,
                            range(1, args.max_lag + 1))
    tables = {wg.scheme: wg for wg, _ in built}
    coverings = {name: detect_communities(wg, args.alpha)
                 for name, wg in tables.items()}
    # the first file is written here, once every stage that can reject the
    # input (the activity bound, alpha's float range) has passed
    for wg, sidecar in built:
        write_weight_table(wg, out / "weights" / f"weights_{wg.scheme}.csv",
                           sidecar)
    _write_ingest(graph, report, out / "ingest")
    for name, covering in coverings.items():
        write_covering(covering, out / "coverings" / f"covering_{name}.txt")

    labels, matrix = nmi_matrix(coverings)
    _write_nmi_csv(labels, matrix, out / "compare" / "nmi_matrix.csv")

    # every table weights the one ingested graph, so the edge classes of a
    # covering are the same under each weighting
    featured = f"te_lag{args.featured_lag}"
    for cov_name in ("structural", featured, "hashtag", "mention_retweet"):
        classes = partition_edges(tables[featured], coverings[cov_name])
        for wt_name in (featured, "hashtag", "mention_retweet"):
            summary = conditional_weights(tables[wt_name], classes,
                                          bins=args.hist_bins)
            _write_edge_report(summary, out / "edges" / f"{cov_name}__{wt_name}",
                               cov_name)

    _write_report(coverings, tables.values(), out / "report")

    # imported here, not at module scope: only this version field and
    # ingest.giant_scc use networkx, so the other commands skip its import
    import networkx

    manifest = {
        "tool": "qocd",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "command": "pipeline",
        # threads is deliberately absent: the flag has no effect, so runs
        # differing only in thread count stay byte-identical
        "flags": {name: value for name, value in vars(args).items() if name
                  not in ("command", "func", "input", "output", "threads")},
        "inputs": {name: _sha256(indir / name)
                   for name in ("events.jsonl", "follows.csv")},
    }
    write_json(out / "manifest.json", manifest)
    print(f"pipeline: {len(graph.nodes)} nodes, {len(tables)} weightings, "
          f"{len(coverings)} coverings -> {out} "
          f"({log.skipped} malformed lines skipped)")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qocd", description="Question-oriented weighted networks and "
                                 "overlapping-community analytics")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    # every default lives in SynthConfig; only given flags reach it
    p = sub.add_parser("synth", help="generate a synthetic dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("-o", "--output", required=True)
    for flag in ("--seed", "--nodes", "--communities", "--bins",
                 "--influence-in-degree", "--influence-lag",
                 "--cross-influencers", "--cross-span"):
        p.add_argument(flag, type=int)
    p.add_argument("--bin-width", type=_bin_width)
    p.add_argument("--overlap", type=float, dest="overlap_fraction")
    for flag in ("--p-in", "--p-out", "--epsilon", "--rho", "--cross-epsilon",
                 "--mention-events", "--retweet-events",
                 "--interaction-intra-bias"):
        p.add_argument(flag, type=float)
    p.set_defaults(func=cmd_synth)

    # flags that several subcommands take, each defined once
    threshold, weighting, alpha, hist_bins = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    threshold.add_argument("--threshold", type=_non_negative_int, default=9,
                           help="min outgoing AND incoming information events")
    weighting.add_argument("--max-lag", type=_lag, default=6)
    weighting.add_argument("--bin-width", type=_bin_width, default=600)
    weighting.add_argument("--threads", type=_positive_int, default=1,
                           help="accepted for compatibility; has no effect")
    weighting.add_argument("--no-retweet-activity", action="store_false",
                           dest="retweets_count_as_activity",
                           help="retweets do not mark the actor as active")
    weighting.add_argument("--tfidf-log-base", choices=["e", "2"], default="e")
    alpha.add_argument("--alpha", type=_positive_float, default=1.0)
    hist_bins.add_argument("--hist-bins", type=_hist_bins, default=50)

    p = sub.add_parser("ingest", help="parse, filter, and restrict the graph",
                       parents=[threshold])
    p.add_argument("-i", "--input", default=".",
                   help="directory holding events.jsonl and follows.csv")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("weight", help="build weighted networks",
                       parents=[weighting])
    p.add_argument("--events", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scheme", required=True,
                   choices=list(SCHEMES) + ["all"])
    p.add_argument("--lag", type=_lag, help="single transfer-entropy lag")
    p.add_argument("--dump-series", action="store_true",
                   help="also write the binary activity series for debugging")
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("detect", help="detect overlapping communities",
                       parents=[alpha])
    p.add_argument("--weights", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("compare", help="NMI matrix over covering files")
    p.add_argument("coverings", nargs="+")
    p.add_argument("--graph", required=True,
                   help="follow CSV defining the node universe")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("edges", help="conditional edge-weight statistics",
                       parents=[hist_bins])
    p.add_argument("--weights", required=True)
    p.add_argument("--covering", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("report", help="covering stats, size CCDFs, orphans")
    p.add_argument("coverings", nargs="+")
    p.add_argument("--weights", nargs="*", default=[])
    p.add_argument("--graph", help="follow CSV defining the node universe")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage end to end",
                       parents=[threshold, weighting, alpha, hist_bins])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--featured-lag", type=_lag, default=4)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "pipeline" and args.featured_lag > args.max_lag:
            parser.error(f"--featured-lag {args.featured_lag} exceeds "
                         f"--max-lag {args.max_lag}")
    except SystemExit as exc:  # --help exits 0; usage errors exit 2, here 1
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, csv.Error) as exc:
        sys.stderr.write(f"qocd: data error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"qocd: internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
