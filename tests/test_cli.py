import ast
import builtins
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qocd
import qocd.cli
from qocd.activity import batch_coarsen, write_series_csv
from qocd.cli import main, read_weight_table
from qocd.ingest import read_events, read_follow_edges

from oracles import compensated_sum

SRC = Path(__file__).resolve().parent.parent / "src"
SYNTH_ARGS = ["--nodes", "24", "--communities", "3", "--bins", "150",
              "--p-in", "0.5", "--p-out", "0.05", "--rho", "0.1",
              "--epsilon", "0.3", "--seed", "13"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert main(["synth", "-o", str(data)] + SYNTH_ARGS) == 0
    return data


@pytest.fixture(scope="module")
def ingested(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingested")
    assert main(["ingest", "-i", str(dataset), "-o", str(out),
                 "--threshold", "2"]) == 0
    return out


@pytest.fixture(scope="module")
def piped(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("piped")
    assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                 "--threshold", "2", "--max-lag", "2",
                 "--featured-lag", "2"]) == 0
    return out


def test_synth_outputs(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert names == {"events.jsonl", "follows.csv", "planted_covering.txt",
                     "planted_influence.csv", "config.json"}
    cfg = json.loads((dataset / "config.json").read_text())
    assert cfg["nodes"] == 24 and cfg["seed"] == 13


def test_synth_is_reproducible(dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "-o", str(again)] + SYNTH_ARGS) == 0
    for name in ("events.jsonl", "follows.csv", "planted_covering.txt"):
        assert (again / name).read_bytes() == (dataset / name).read_bytes()


def test_ingest_outputs(ingested):
    report = json.loads((ingested / "filter_report.json").read_text())
    assert set(report) == {"kept", "removed_inactive", "removed_not_in_gscc",
                           "thresholds"}
    assert report["thresholds"]["outgoing"] == 2
    kept = set(report["kept"])
    assert kept
    others = set(report["removed_inactive"]) | set(report["removed_not_in_gscc"])
    assert not kept & others
    graph_lines = (ingested / "graph.csv").read_text().splitlines()
    assert graph_lines[0] == "followee,follower"


def test_weight_te_single_lag(dataset, ingested, tmp_path):
    out = tmp_path / "w"
    assert main(["weight", "--events", str(dataset / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"),
                 "--scheme", "te", "--lag", "4", "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "weights_te_lag4.csv", "weights_te_lag4.json"]
    wg = read_weight_table(out / "weights_te_lag4.csv")
    assert wg.scheme == "te_lag4"
    meta = json.loads((out / "weights_te_lag4.json").read_text())
    assert meta == {"bin_width": 600, "lag": 4,
                    "retweets_count_as_activity": True, "scheme": "te_lag4"}


def test_weight_all_schemes(dataset, ingested, tmp_path):
    out = tmp_path / "w"
    assert main(["weight", "--events", str(dataset / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"),
                 "--scheme", "all", "--max-lag", "2", "-o", str(out)]) == 0
    names = {p.name for p in out.iterdir() if p.suffix == ".csv"}
    assert names == {"weights_structural.csv", "weights_mention.csv",
                     "weights_retweet.csv", "weights_mention_retweet.csv",
                     "weights_hashtag.csv", "weights_te_lag1.csv",
                     "weights_te_lag2.csv"}


def test_weight_dump_series_equals_the_activity_matrix(dataset, ingested,
                                                       tmp_path):
    # the structural scheme needs no activity matrix, so --dump-series alone
    # makes the weight stage build one
    out = tmp_path / "w"
    assert main(["weight", "--events", str(dataset / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"), "--scheme",
                 "structural", "--dump-series", "--bin-width", "300",
                 "-o", str(out)]) == 0
    activity = batch_coarsen(read_events(dataset / "events.jsonl"),
                             read_follow_edges(ingested / "graph.csv"),
                             bin_width=300)
    write_series_csv(activity, tmp_path / "expected" / "activity_series.csv")
    for name in ("activity_series.csv", "activity_series.json"):
        assert ((out / name).read_bytes()
                == (tmp_path / "expected" / name).read_bytes())
    assert sorted(p.name for p in out.iterdir()) == [
        "activity_series.csv", "activity_series.json",
        "weights_structural.csv", "weights_structural.json"]


def test_pipeline_bytes_ignore_the_interpreters_float_sum(dataset, piped,
                                                          tmp_path,
                                                          monkeypatch):
    # builtins.sum as CPython 3.12 has it, compensated: hashtag cosines
    # summed by it moved the 8 hashtag edge-report files of this dataset
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    out = tmp_path / "out"
    assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                 "--threshold", "2", "--max-lag", "2",
                 "--featured-lag", "2"]) == 0
    assert _tree_bytes(out) == _tree_bytes(piped)


def test_weight_tables_equal_pipeline_weights(dataset, ingested, piped,
                                              tmp_path):
    wdir, pdir = tmp_path / "w", piped
    assert main(["weight", "--events", str(dataset / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"),
                 "--scheme", "all", "--max-lag", "2", "-o", str(wdir)]) == 0
    assert (ingested / "graph.csv").read_bytes() == \
        (pdir / "ingest" / "graph.csv").read_bytes()
    names = sorted(p.name for p in (pdir / "weights").iterdir())
    assert sorted(p.name for p in wdir.iterdir()) == names
    assert len(names) == 14
    for name in names:
        assert (wdir / name).read_bytes() == \
            (pdir / "weights" / name).read_bytes(), name


def test_stages_write_the_bytes_pipeline_writes(dataset, piped, tmp_path):
    assert main(["ingest", "-i", str(dataset), "-o", str(tmp_path / "ingest"),
                 "--threshold", "2"]) == 0
    assert _tree_bytes(tmp_path / "ingest") == _tree_bytes(piped / "ingest")

    tables = sorted((piped / "weights").glob("*.csv"))
    assert len(tables) == 7
    for table in tables:
        name = "covering_" + table.stem.removeprefix("weights_") + ".txt"
        assert main(["detect", "--weights", str(table),
                     "-o", str(tmp_path / "coverings" / name)]) == 0
    assert _tree_bytes(tmp_path / "coverings") == \
        _tree_bytes(piped / "coverings")

    reports = sorted((piped / "edges").iterdir())
    assert len(reports) == 12
    for report in reports:
        cov, wt = report.name.split("__")
        assert main(["edges",
                     "--weights", str(piped / "weights" / f"weights_{wt}.csv"),
                     "--covering", str(piped / "coverings" / f"covering_{cov}.txt"),
                     "-o", str(tmp_path / "edges" / report.name)]) == 0
    assert _tree_bytes(tmp_path / "edges") == _tree_bytes(piped / "edges")

    coverings = sorted(map(str, (piped / "coverings").iterdir()))
    graph = str(piped / "ingest" / "graph.csv")
    assert main(["compare", *coverings, "--graph", graph,
                 "-o", str(tmp_path / "nmi.csv")]) == 0
    assert (tmp_path / "nmi.csv").read_bytes() == \
        (piped / "compare" / "nmi_matrix.csv").read_bytes()

    assert main(["report", *coverings, "--graph", graph,
                 "--weights", *map(str, tables),
                 "-o", str(tmp_path / "report")]) == 0
    assert _tree_bytes(tmp_path / "report") == _tree_bytes(piped / "report")


def _float_fields(path: Path) -> list[str]:
    """The non-empty weight, proportion, median and NMI cells of a CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    columns = (range(1, len(header)) if path.name == "nmi_matrix.csv" else
               [i for i, name in enumerate(header)
                if name in ("weight", "proportion", "median")])
    return [row[i] for row in rows for i in columns if row[i]]


def test_every_float_field_is_its_shortest_repr(piped, tmp_path):
    coverings = sorted(map(str, (piped / "coverings").iterdir()))
    assert main(["compare", *coverings,
                 "--graph", str(piped / "ingest" / "graph.csv"),
                 "-o", str(tmp_path / "nmi_matrix.csv")]) == 0
    assert main(["report", *coverings, "-o", str(tmp_path / "report")]) == 0
    kinds = set()
    for path in sorted(piped.rglob("*.csv")) + sorted(tmp_path.rglob("*.csv")):
        for text in _float_fields(path):
            assert repr(float(text)) == text, (path, text)
            kinds.add(path.stem.split("_")[0])
    assert kinds == {"weights", "nmi", "ccdf", "summary", "size"}


def test_detect_compare_edges_report(dataset, ingested, tmp_path):
    wdir = tmp_path / "w"
    main(["weight", "--events", str(dataset / "events.jsonl"),
          "--graph", str(ingested / "graph.csv"),
          "--scheme", "structural", "-o", str(wdir)])
    main(["weight", "--events", str(dataset / "events.jsonl"),
          "--graph", str(ingested / "graph.csv"),
          "--scheme", "mention_retweet", "-o", str(wdir)])
    cov_a = tmp_path / "covering_structural.txt"
    cov_b = tmp_path / "covering_mention_retweet.txt"
    assert main(["detect", "--weights", str(wdir / "weights_structural.csv"),
                 "-o", str(cov_a)]) == 0
    assert main(["detect", "--weights",
                 str(wdir / "weights_mention_retweet.csv"),
                 "-o", str(cov_b)]) == 0

    nmi_csv = tmp_path / "nmi.csv"
    assert main(["compare", str(cov_a), str(cov_b),
                 "--graph", str(ingested / "graph.csv"),
                 "-o", str(nmi_csv)]) == 0
    lines = nmi_csv.read_text().splitlines()
    assert lines[0] == "covering,mention_retweet,structural"
    first_row = lines[1].split(",")
    assert first_row[0] == "mention_retweet" and float(first_row[1]) == 1.0

    edir = tmp_path / "edges"
    assert main(["edges", "--weights", str(wdir / "weights_mention_retweet.csv"),
                 "--covering", str(cov_b), "-o", str(edir)]) == 0
    summary = json.loads((edir / "summary.json").read_text())
    # labelled as pipeline, compare and report label it: no covering_ prefix
    assert summary["covering"] == "mention_retweet"
    counts = [summary["classes"][c]["count"]
              for c in ("inter", "intra", "mixed")]
    wg = read_weight_table(wdir / "weights_mention_retweet.csv")
    assert sum(counts) == len(wg.weights)
    assert (edir / "ccdf_intra.csv").exists()

    rdir = tmp_path / "report"
    assert main(["report", str(cov_a), str(cov_b),
                 "--graph", str(ingested / "graph.csv"),
                 "--weights", str(wdir / "weights_structural.csv"),
                 str(wdir / "weights_mention_retweet.csv"),
                 "-o", str(rdir)]) == 0
    stats = (rdir / "covering_stats.csv").read_text().splitlines()
    assert stats[0] == "covering,communities,singletons"
    assert len(stats) == 3
    orphan_rows = (rdir / "orphans.csv").read_text().splitlines()
    assert orphan_rows[0] == "scheme,orphans"
    assert {r.split(",")[0] for r in orphan_rows[1:]} == \
        {"structural", "mention_retweet"}


def test_pipeline_end_to_end(dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                 "--threshold", "2", "--max-lag", "2",
                 "--featured-lag", "2"]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "compare" / "nmi_matrix.csv").exists()
    coverings = sorted(p.name for p in (out / "coverings").iterdir())
    assert "covering_te_lag2.txt" in coverings
    assert "covering_structural.txt" in coverings
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert set(manifest["inputs"]) == {"events.jsonl", "follows.csv"}


def test_manifest_records_every_flag_but_the_paths_and_threads(dataset,
                                                               tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                 "--alpha", "1.5", "--hist-bins", "7", "--no-retweet-activity",
                 "--tfidf-log-base", "2", "--max-lag", "3",
                 "--featured-lag", "2", "--threshold", "3",
                 "--bin-width", "900", "--threads", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"] == {
        "alpha": 1.5, "hist_bins": 7, "retweets_count_as_activity": False,
        "tfidf_log_base": "2", "max_lag": 3, "featured_lag": 2,
        "threshold": 3, "bin_width": 900}
    sidecars = sorted((out / "weights").glob("*.json"))
    assert len(sidecars) == 8  # five schemes, TE at lags 1-3
    for path in sidecars:
        sidecar = json.loads(path.read_text())
        assert sidecar["retweets_count_as_activity"] is False, path.name


def test_tfidf_log_base_changes_only_the_files_that_record_it(dataset,
                                                              tmp_path):
    # cosines of base-2 and base-e tf-idf differ in their last bits, which
    # can split or merge ties among the edge reports' CCDF points
    trees = []
    for base in ("e", "2"):
        out = tmp_path / base
        assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                     "--threshold", "2", "--max-lag", "1",
                     "--featured-lag", "1", "--tfidf-log-base", base]) == 0
        trees.append(_tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    assert {name for name in trees[0] if trees[0][name] != trees[1][name]} == {
        "weights/weights_hashtag.json", "manifest.json"}


def test_pipeline_reports_skipped_lines(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    with open(data / "events.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"kind": "post"}\nnot json\n')
    assert main(["pipeline", "-i", str(data), "-o", str(tmp_path / "out"),
                 "--threshold", "2", "--max-lag", "1",
                 "--featured-lag", "1"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(
        "(2 malformed lines skipped)")


def test_weight_table_quotes_ids_with_commas(tmp_path):
    # ingest reads the follow CSV with the csv module, so "a,b" is one id;
    # the weight table must quote it for detect to read the row back
    (tmp_path / "events.jsonl").write_text(
        '{"kind":"post","actor":"c","ts":0}\n')
    (tmp_path / "follows.csv").write_text(
        'followee,follower\n"a,b",c\nc,"a,b"\nc,d\nd,c\n')
    ingested, wdir = tmp_path / "ingested", tmp_path / "w"
    assert main(["ingest", "-i", str(tmp_path), "-o", str(ingested),
                 "--threshold", "0"]) == 0
    assert main(["weight", "--events", str(tmp_path / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"),
                 "--scheme", "structural", "-o", str(wdir)]) == 0
    table = wdir / "weights_structural.csv"
    assert table.read_text().splitlines()[1:3] == ['"a,b",c,1.0', 'c,"a,b",1.0']
    assert read_weight_table(table).graph.edges == \
        read_follow_edges(ingested / "graph.csv").edges
    assert main(["detect", "--weights", str(table),
                 "-o", str(tmp_path / "covering.txt")]) == 0


@pytest.mark.parametrize("bad", ["#x", "a b"])
def test_ingest_rejects_ids_a_covering_file_cannot_hold(tmp_path, capsys, bad):
    # a covering line "#x b c" would read back as a comment, and "a b" as
    # two ids, so ingest stops both before it writes anything
    ids = [bad, "b", "c"]
    (tmp_path / "events.jsonl").write_text("")
    (tmp_path / "follows.csv").write_text(
        "followee,follower\n"
        + "".join(f"{v},{u}\n" for v in ids for u in ids if v != u),
        encoding="utf-8")
    out = tmp_path / "ingested"
    assert main(["ingest", "-i", str(tmp_path), "-o", str(out),
                 "--threshold", "0"]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert not (out / "graph.csv").exists()


@pytest.mark.parametrize("bad", ["#x", ""])
def test_weight_table_rejects_ids_a_covering_file_cannot_hold(tmp_path, capsys,
                                                              bad):
    table = tmp_path / "weights_t.csv"
    table.write_text(f"source,target,weight\n{bad},b,1\nb,{bad},1\n")
    assert main(["detect", "--weights", str(table),
                 "-o", str(tmp_path / "covering.txt")]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert not (tmp_path / "covering.txt").exists()


def child_env(**extra: str) -> dict:
    """The environment of a child python that imports qocd from ``src``."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_bytes_ignore_the_hash_seed(tmp_path):
    # on this dataset, summing detector weights in set order gave another
    # mention covering under PYTHONHASHSEED=0 than under 1
    def run(hash_seed, *args):
        subprocess.run([sys.executable, "-m", "qocd.cli", *map(str, args)],
                       env=child_env(PYTHONHASHSEED=str(hash_seed)),
                       check=True, capture_output=True)

    data = tmp_path / "data"
    run(0, "synth", "-o", data, "--seed", "4", "--nodes", "40",
        "--communities", "4", "--bins", "200", "--mention-events", "6",
        "--retweet-events", "6")
    trees = []
    for hash_seed in (0, 1):
        out = tmp_path / f"out{hash_seed}"
        run(hash_seed, "pipeline", "-i", data, "-o", out, "--threshold", "1",
            "--max-lag", "1", "--featured-lag", "1")
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_usage_errors_exit_one(capsys):
    assert main(["--bogus"]) == 1
    assert main(["synth", "--no-such-flag", "x"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    assert ("qocd: error: the following arguments are required: COMMAND"
            in capsys.readouterr().err)
    assert main(["ingest", "--events", "x", "-o", "o"]) == 1  # -i names it
    capsys.readouterr()
    assert main(["pipeline", "-i", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: qocd pipeline")
    assert ("qocd pipeline: error: the following arguments are required: "
            "-o/--output" in err)
    assert main(["--help"]) == 0


@pytest.mark.parametrize("flags", [
    ["--bin-width", "0"],
    ["--bin-width", "-5"],
    ["--max-lag", "0"],
    ["--featured-lag", "0"],
    ["--featured-lag", "9", "--max-lag", "2"],
    ["--max-lag", "x"],
    ["--hist-bins", "0"],
    ["--hist-bins", "-3"],
    ["--alpha", "0"],
    ["--alpha", "-1"],
    ["--alpha", "nan"],
    ["--threshold", "-5"],
    ["--threads", "0"],
    ["--alpha", "inf"],
    ["--hist-bins", "10001"],
    ["--bin-width", "9223372036854775808"],  # 2**63
])
def test_pipeline_bad_numeric_flags_exit_one(dataset, tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["pipeline", "-i", str(dataset), "-o", str(out)] + flags) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["synth", "--bin-width", "0"],
    ["weight", "--scheme", "te", "--bin-width", "0"],
    ["weight", "--scheme", "te", "--max-lag", "0"],
    ["weight", "--scheme", "te", "--lag", "0"],
    ["edges", "--hist-bins", "0"],
    ["detect", "--alpha", "0"],
    ["ingest", "--threshold", "-5"],
    ["weight", "--scheme", "te", "--threads", "0"],
    ["edges", "--hist-bins", "10001"],
    ["synth", "--bin-width", "9223372036854775808"],  # 2**63
    ["weight", "--scheme", "te", "--bin-width", "9223372036854775808"],
])
def test_bad_bin_width_and_lags_exit_one(dataset, ingested, tmp_path, command):
    out = tmp_path / "out"
    inputs = {
        "weight": ["--events", str(dataset / "events.jsonl"),
                   "--graph", str(ingested / "graph.csv")],
        # missing files would exit 2 if the flag got past the parser
        "edges": ["--weights", str(tmp_path / "weights_x.csv"),
                  "--covering", str(tmp_path / "covering_x.txt")],
        "detect": ["--weights", str(tmp_path / "weights_x.csv")],
        "ingest": ["-i", str(dataset)],
    }.get(command[0], [])
    assert main(command + inputs + ["-o", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["weight", "--scheme", "te", "--lag", "40"],
    ["weight", "--scheme", "all", "--max-lag", "13"],
    ["pipeline", "--max-lag", "40"],
    ["pipeline", "--featured-lag", "13", "--max-lag", "13"],
])
def test_lag_above_the_bound_exits_one_before_output(tmp_path, capsys,
                                                     command):
    # a lag of 40 once sized a 2^81-entry count table and exited 3. The
    # inputs are missing, so a flag that got past the parser would exit 2
    # at once instead of running transfer entropy at lags 1, 2, ...
    from qocd.infotheory import MAX_LAG

    out = tmp_path / "out"
    inputs = {"weight": ["--events", str(tmp_path / "events.jsonl"),
                         "--graph", str(tmp_path / "graph.csv")],
              "pipeline": ["-i", str(tmp_path)]}[command[0]]
    assert main(command + inputs + ["-o", str(out)]) == 1
    assert f"must be >= 1 and <= {MAX_LAG}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_lag_passes_the_parser():
    from qocd.cli import build_parser
    from qocd.infotheory import MAX_LAG

    args = build_parser().parse_args(
        ["weight", "--events", "e", "--graph", "g", "-o", "o",
         "--scheme", "te", "--lag", str(MAX_LAG)])
    assert args.lag == MAX_LAG


def test_weight_builds_each_share_once(dataset, ingested, tmp_path,
                                       monkeypatch):
    import qocd.cli

    calls = []
    for name in ("mention_share_weights", "retweet_share_weights"):
        build = getattr(qocd.cli, name)
        monkeypatch.setattr(qocd.cli, name, lambda *a, _b=build, _n=name:
                            calls.append(_n) or _b(*a))
    for scheme in ("all", "mention_retweet", "mention"):
        calls.clear()
        assert main(["weight", "--events", str(dataset / "events.jsonl"),
                     "--graph", str(ingested / "graph.csv"), "--scheme",
                     scheme, "--max-lag", "1",
                     "-o", str(tmp_path / scheme)]) == 0
        assert sorted(calls) == (["mention_share_weights"] if scheme == "mention"
                                 else ["mention_share_weights",
                                       "retweet_share_weights"])


@pytest.mark.parametrize("flags", [
    ["--nodes", "-5"],
    ["--communities", "0"],
    ["--bins", "0"],
    ["--rho", "2"],
    ["--p-in", "1.5"],
    ["--epsilon", "nan"],
    ["--cross-epsilon", "nan"],
    ["--mention-events", "-1"],
    ["--retweet-events", "-2"],
    ["--influence-in-degree", "-3"],
    ["--cross-span", "-1"],
    ["--nodes", "10001"],
    ["--nodes", "200000"],
    ["--nodes", "20", "--bins", "100000000"],
    ["--seed", "-1"],
    ["--bins", "100", "--bin-width", "100000000000000000"],
    ["--nodes", "10000", "--bins", "100000", "--rho", "0.9", "--epsilon",
     "0.1"],
    ["--nodes", "100", "--mention-events", "1e9"],
])
def test_synth_bad_config_exits_one_before_output(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["synth", "-o", str(out)] + flags) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_rejects_an_activity_matrix_above_the_bound(tmp_path,
                                                            capsys):
    # posts 10^15 s apart once asked for a (2, 1666666666667) uint8 matrix
    # and exited 3 with a MemoryError
    lines = [{"kind": "mention", "actor": a, "ts": ts, "target": b}
             for ts in range(12) for a, b in (("a", "b"), ("b", "a"))]
    lines += [{"kind": "post", "actor": "a", "ts": 0},
              {"kind": "post", "actor": "b", "ts": 10**15}]
    (tmp_path / "events.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    (tmp_path / "follows.csv").write_text("followee,follower\na,b\nb,a\n")
    assert main(["pipeline", "-i", str(tmp_path),
                 "-o", str(tmp_path / "out")]) == 2
    assert ("2 nodes x 1666666666667 bins of width 600 exceed"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()  # not even ingest/


def test_report_reads_the_graph_once(ingested, tmp_path, monkeypatch):
    import qocd.cli

    names = sorted(qocd.cli.read_follow_edges(ingested / "graph.csv").nodes)
    paths = []
    for i in range(3):
        path = tmp_path / f"covering_c{i}.txt"
        path.write_text(" ".join(names[i:i + 4]) + "\n")
        paths.append(str(path))
    calls = []
    real = qocd.cli.read_follow_edges
    monkeypatch.setattr(qocd.cli, "read_follow_edges",
                        lambda p: calls.append(p) or real(p))
    assert main(["report", *paths, "--graph", str(ingested / "graph.csv"),
                 "-o", str(tmp_path / "with_graph")]) == 0
    assert len(calls) == 1
    stats = (tmp_path / "with_graph" / "covering_stats.csv").read_text()
    assert stats.splitlines()[1] == f"c0,1,{len(names) - 4}"
    # without --graph each file's universe is the ids it names
    assert main(["report", *paths, "-o", str(tmp_path / "no_graph")]) == 0
    stats = (tmp_path / "no_graph" / "covering_stats.csv").read_text()
    assert stats.splitlines()[1:] == ["c0,1,0", "c1,1,0", "c2,1,0"]


def test_report_without_graph_reads_each_covering_once(ingested, tmp_path,
                                                      monkeypatch):
    import builtins

    names = sorted(read_follow_edges(ingested / "graph.csv").nodes)
    paths = []
    for i in range(3):
        path = tmp_path / f"covering_c{i}.txt"
        path.write_text(" ".join(names[i:i + 4]) + "\n")
        paths.append(str(path))
    opened = []
    real = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs:
                        opened.append(str(file)) or real(file, *args, **kwargs))
    assert main(["report", *paths, "-o", str(tmp_path / "report")]) == 0
    monkeypatch.undo()
    assert sorted(p for p in opened if p in paths) == paths


def test_report_rejects_duplicate_covering_labels(ingested, tmp_path, capsys):
    node = min(read_follow_edges(ingested / "graph.csv").nodes)
    paths = []
    for parent in ("a", "b"):
        (tmp_path / parent).mkdir()
        path = tmp_path / parent / "covering_x.txt"
        path.write_text(node + "\n")
        paths.append(str(path))
    out = tmp_path / "report"
    assert main(["report", *paths, "--graph", str(ingested / "graph.csv"),
                 "-o", str(out)]) == 2
    assert "duplicate covering label 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_two(tmp_path):
    assert main(["ingest", "-i", str(tmp_path / "missing"),
                 "-o", str(tmp_path / "out")]) == 2
    bad = tmp_path / "weights.csv"
    bad.write_text("nope\n")
    assert main(["detect", "--weights", str(bad),
                 "-o", str(tmp_path / "c.txt")]) == 2


MUTUAL = "followee,follower\na,b\nb,a\n"


@pytest.mark.parametrize("command, files, message", [
    ("ingest", {"events.jsonl": "", "follows.csv": ""},
     "empty follow-edge file"),
    ("ingest", {"follows.csv": MUTUAL, "events.jsonl":
                '{"kind":"mention","actor":"a","ts":0,"target":"b"}\n'},
     "no users survive the activity filter"),
    ("detect", {"weights_x.csv": "source,target,weight\na,b,1\nb,a\n"},
     "bad weight row"),
    ("pipeline", {"follows.csv": MUTUAL, "events.jsonl": ""},
     "cannot infer a window from an empty log"),
], ids=["empty-follows", "nobody-active", "short-weight-row", "empty-log"])
def test_bad_input_files_exit_two_before_output(tmp_path, capsys, command,
                                                files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    argv = {"ingest": ["ingest", "-i", str(tmp_path), "-o", str(out)],
            "pipeline": ["pipeline", "-i", str(tmp_path), "-o", str(out),
                         "--threshold", "0"],
            "detect": ["detect", "--weights", str(tmp_path / "weights_x.csv"),
                       "-o", str(out)]}[command]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


EVENT_LINE = b'{"actor": "a", "kind": "mention", "target": "b", "ts": 0}\n'


@pytest.mark.parametrize("command, files, bad, line", [
    # far past the text reader's first chunk, whose offsets the codec names
    ("ingest", {"follows.csv": MUTUAL.encode(),
                "events.jsonl": EVENT_LINE * 5000 + b'{"actor": "\xff"}\n'},
     "events.jsonl", 5001),
    ("ingest", {"events.jsonl": EVENT_LINE,
                "follows.csv": b"followee,follower\na,b\nb,a\na,c\nc,a\n"
                               b"b,caf\xe9\n"}, "follows.csv", 6),
    ("report", {"covering_x.txt": b"a b\nc \xe9 d\n"}, "covering_x.txt", 2),
    ("detect", {"weights_x.csv": b"source,target,weight\na,b,1\n\xff,a,1\n"},
     "weights_x.csv", 3),
], ids=["events", "follows", "covering", "weight-table"])
def test_invalid_utf8_names_its_file_and_line(tmp_path, capsys, command,
                                               files, bad, line):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "out"
    argv = {"ingest": ["ingest", "-i", str(tmp_path), "-o", str(out)],
            "report": ["report", str(tmp_path / "covering_x.txt"),
                       "-o", str(out)],
            "detect": ["detect", "--weights", str(tmp_path / "weights_x.csv"),
                       "-o", str(out)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"qocd: data error: {tmp_path / bad} line {line} is not UTF-8\n"
    assert not out.exists()


def test_threshold_past_the_float_range_exits_two(dataset, tmp_path, capsys):
    # math.isfinite raised OverflowError on it, a traceback past argparse
    out = tmp_path / "out"
    assert main(["ingest", "-i", str(dataset), "-o", str(out),
                 "--threshold", "1" + "0" * 400]) == 2
    assert "no users survive the activity filter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "edges"])
def test_infinite_weight_exits_two(tmp_path, capsys, command):
    table = tmp_path / "weights_x.csv"
    table.write_text("source,target,weight\na,b,inf\nb,c,1\nc,a,1\nc,d,0.5\n")
    covering = tmp_path / "covering_x.txt"
    covering.write_text("a b c\n")
    out = tmp_path / "out"
    argv = [command, "--weights", str(table), "-o", str(out)]
    if command == "edges":
        argv += ["--covering", str(covering)]
    assert main(argv) == 2
    assert "weights must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_negative_zero_weight_reads_as_zero(tmp_path):
    table = tmp_path / "weights_x.csv"
    table.write_text("source,target,weight\na,b,-0\nb,a,0\na,c,1\nc,a,0.5\n")
    covering = tmp_path / "covering_x.txt"
    covering.write_text("a b\n")
    out = tmp_path / "out"
    assert main(["edges", "--weights", str(table), "--covering", str(covering),
                 "-o", str(out)]) == 0
    for name in ("summary.csv", "summary.json", "ccdf_intra.csv",
                 "ccdf_inter.csv"):
        # a -0 number, not the exponent of a figure such as 1e-05
        assert not re.search(r"(?<!\w)-0\b", (out / name).read_text()), name


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "-1", "x"])
def test_bad_weight_names_its_file_line_and_row(tmp_path, capsys, weight):
    table = tmp_path / "weights_x.csv"
    table.write_text(f"source,target,weight\na,b,1\nb,c,{weight}\nc,a,1\n")
    out = tmp_path / "c.txt"
    assert main(["detect", "--weights", str(table), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{table} line 3: ['b', 'c', '{weight}']" in err
    assert not out.exists()


def test_alpha_that_overflows_the_fitness_exits_two(dataset, ingested,
                                                    tmp_path, capsys):
    # every structural weight is 1, so a seed's total weight is its degree,
    # and degree ** 400 is past the float range
    assert main(["weight", "--events", str(dataset / "events.jsonl"),
                 "--graph", str(ingested / "graph.csv"),
                 "--scheme", "structural", "-o", str(tmp_path)]) == 0
    out = tmp_path / "c.txt"
    assert main(["detect", "--weights", str(tmp_path / "weights_structural.csv"),
                 "--alpha", "400", "-o", str(out)]) == 2
    assert "alpha 400" in capsys.readouterr().err
    assert not out.exists()


def test_alpha_that_underflows_the_fitness_exits_two(tmp_path, capsys):
    table = tmp_path / "weights_x.csv"
    table.write_text("source,target,weight\n"
                     "a,b,1e-200\nb,c,1e-200\nc,a,1e-200\n")
    out = tmp_path / "c.txt"
    # (2e-200) ** 2 underflows to 0.0
    assert main(["detect", "--weights", str(table), "--alpha", "2",
                 "-o", str(out)]) == 2
    assert "alpha 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, alpha", [
    # (1.4e-10) ** 32 is subnormal: the run once wrote "a b" and "c d",
    # where exact arithmetic grows "a c" and "b d"
    (["a,c,3e-11", "b,a,8e-11", "c,a,5e-11", "c,d,6e-11", "d,b,6e-11"], "32"),
    # 1e-320 is subnormal at alpha 1 already
    (["a,b,1e-320", "b,c,1e-320", "c,a,1e-320"], "1"),
    # table 2173 of a seeded fuzz (3-6 nodes, weights log-uniform in
    # 1e-320..1e5): every seed's strength is normal, but cancelling updates
    # leave a later total whose power is subnormal; the run once exited 0
    (["a,b,1.1144496322124995e-159", "a,c,1.2811231810614905e-292",
      "b,c,3.1351148956395555e-70", "c,d,6.038435652333274e-306",
      "d,a,3.544851e-316", "d,b,7.216837643616795e-236",
      "d,c,1.5776525869032052e-227"], "1"),
])
def test_alpha_whose_power_is_subnormal_exits_two(tmp_path, capsys, rows,
                                                   alpha):
    table = tmp_path / "weights_x.csv"
    table.write_text("source,target,weight\n" + "".join(r + "\n" for r in rows))
    out = tmp_path / "c.txt"
    assert main(["detect", "--weights", str(table), "--alpha", alpha,
                 "-o", str(out)]) == 2
    assert f"alpha {float(alpha)}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_alpha_out_of_the_float_range_writes_nothing(dataset,
                                                              tmp_path, capsys):
    # detection is the last stage that can reject the run; the weight
    # tables and ingest/ were once written before it
    out = tmp_path / "out"
    assert main(["pipeline", "-i", str(dataset), "-o", str(out),
                 "--threshold", "2", "--alpha", "400"]) == 2
    assert "alpha 400" in capsys.readouterr().err
    assert not out.exists()


def test_shared_flags_read_one_default_in_every_subcommand():
    required = {
        "ingest": ["-o", "x"],
        "weight": ["--events", "e", "--graph", "g", "-o", "x",
                   "--scheme", "all"],
        "detect": ["--weights", "w", "-o", "x"],
        "edges": ["--weights", "w", "--covering", "c", "-o", "x"],
        "pipeline": ["-i", "d", "-o", "x"],
    }
    parser = qocd.cli.build_parser()
    values = {}
    for command, argv in required.items():
        for name, value in vars(parser.parse_args([command, *argv])).items():
            values.setdefault(name, {})[command] = value
    for name in ("threshold", "bin_width", "max_lag", "threads",
                 "tfidf_log_base", "retweets_count_as_activity", "alpha",
                 "hist_bins"):
        assert "pipeline" in values[name] and len(values[name]) == 2, name
        assert len(set(values[name].values())) == 1, values[name]


def test_weight_table_rejects_a_repeated_edge(tmp_path, capsys):
    table = tmp_path / "weights_x.csv"
    table.write_text("source,target,weight\na,b,1\nb,a,2\na,b,5\n")
    out = tmp_path / "c.txt"
    assert main(["detect", "--weights", str(table), "-o", str(out)]) == 2
    assert "repeated edge" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match=r"line 4: \['a', 'b', '5'\]"):
        read_weight_table(table)


def test_pipeline_partitions_each_covering_once(dataset, tmp_path,
                                                monkeypatch):
    import qocd.cli

    calls = []
    real = qocd.cli.partition_edges
    monkeypatch.setattr(qocd.cli, "partition_edges",
                        lambda wg, cov: calls.append(cov) or real(wg, cov))
    assert main(["pipeline", "-i", str(dataset), "-o", str(tmp_path / "out"),
                 "--threshold", "2", "--max-lag", "2",
                 "--featured-lag", "2"]) == 0
    # four featured coverings, each reported under three weightings
    assert len(calls) == 4
    assert len(list((tmp_path / "out" / "edges").iterdir())) == 12


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "qocd.cli", "--help"],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


def test_cli_import_leaves_networkx_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qocd.cli; print('networkx' in sys.modules)"],
        env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tracer_layer_names_exist_in_cli():
    """The benchmark tracer wraps these qocd.cli names; a missing one would
    silently turn its per-layer metrics into missing ones."""
    import qocd.cli

    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    names = [name for group in layers.values() for name in group]
    assert len(names) > 20
    assert [n for n in names if not hasattr(qocd.cli, n)] == []


def _output_calls(path: Path):
    """``(function, call)`` for each call in ``path`` that writes a file,
    makes a directory or formats an indented JSON document; ``function`` is
    the enclosing top-level function's name, or None."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = (node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"),
                    ast.Constant("r")))
                # a mode the walk cannot read counts as a write
                if (not isinstance(mode, ast.Constant)
                        or set(mode.value) & set("wax+")):
                    yield name, node
            elif isinstance(func, ast.Attribute) and (
                    func.attr in ("write_text", "write_bytes", "mkdir",
                                  "makedirs")
                    or func.attr == "dumps" and any(
                        kw.arg == "indent" for kw in node.keywords)):
                yield name, node


def test_only_open_output_writes_files():
    """ingest.open_output is the one opener of output files and maker of
    directories, and ingest.write_json the one formatter of JSON documents,
    so every output file shares one CSV dialect and one JSON style."""
    allowed = {("ingest.py", "open_output"), ("ingest.py", "write_json")}
    calls = [(path.name, name, call.lineno) for path
             in sorted(Path(qocd.__file__).resolve().parent.glob("*.py"))
             for name, call in _output_calls(path)]
    # equality, not a subset: the walk must find the allowed calls too
    assert {(file, name) for file, name, _ in calls} == allowed, calls


def test_no_module_calls_the_builtin_sum():
    """A float sum whose bits reach the output goes through
    infotheory.fold, whose order no interpreter changes; the builtin sum's
    float order changed in CPython 3.12."""
    calls = [(path.name, node.func.id, node.lineno) for path
             in sorted(Path(qocd.__file__).resolve().parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("sum", "fold")]
    assert [call for call in calls if call[1] == "sum"] == []
    # the walk must find the fold calls too
    assert {file for file, name, _ in calls if name == "fold"} == {
        "communities.py", "weighting.py"}
