"""The benchmark's checks pass on qocd's output and fail on corrupted copies.

    python3 -m pytest perfbench/tests -q
"""

import csv
import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import covers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 3


def qocd(*args):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run([sys.executable, "-m", "qocd.cli", *map(str, args)],
                   check=True, env=env, stdout=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    qocd("synth", "-o", root / "in", "--seed", SEED, "--nodes", "60",
         "--communities", "3", "--bins", "600")
    qocd("pipeline", "-i", root / "in", "-o", root / "out")
    return root / "in", root / "out"


@pytest.fixture(scope="module")
def covers_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("covers")
    qocd("synth", "-o", root / "in", "--seed", SEED, "--nodes", "120",
         "--communities", "6", "--bins", "20", "--p-out", "0.005")
    covers.derive(root / "in", SEED)
    paths = sorted((root / "in" / "covers").glob("covering_*.txt"))
    graph = root / "in" / "follows.csv"
    qocd("compare", *paths, "--graph", graph, "-o", root / "out" / "nmi.csv")
    qocd("report", *paths, "--graph", graph, "-o", root / "out" / "report")
    return root / "in", root / "out"


@pytest.fixture
def copy(tmp_path):
    def make(src: Path) -> Path:
        dst = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
        shutil.copytree(src, dst)
        return dst
    return make


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check(inputs, out):
    return checks.check_pipeline(inputs, out, SEED, te_sample=6)


def test_pipeline_output_passes(pipeline_run):
    assert check(*pipeline_run) == []


def test_covers_output_passes(covers_run):
    assert checks.check_compare(*covers_run) == []
    assert checks.check_covers_report(*covers_run) == []


def test_dropped_graph_edge_fails(pipeline_run, copy):
    inputs, out = pipeline_run
    bad = copy(out)
    rewrite_csv(bad / "ingest" / "graph.csv", lambda rows: rows.pop())
    assert any("graph.csv" in f for f in check(inputs, bad))


@pytest.mark.parametrize("scheme", ["mention", "hashtag", "te_lag3"])
def test_nudged_weight_fails(pipeline_run, copy, scheme):
    inputs, out = pipeline_run
    bad = copy(out)
    # the TE check covers a seeded sample, so nudge a sampled edge
    kept = checks.read_follows(out / "ingest" / "graph.csv")
    target = random_sample_edge(kept) if scheme.startswith("te") else None

    def nudge(rows):
        for row in rows[1:]:
            if (target is None and float(row[2]) > 0) or tuple(row[:2]) == target:
                row[2] = repr(float(row[2]) * (1 + 1e-6) + 1e-9)
                return
    rewrite_csv(bad / "weights" / f"weights_{scheme}.csv", nudge)
    assert any(f"weights_{scheme}.csv" in f for f in check(inputs, bad))


def random_sample_edge(kept_edges):
    return random.Random(SEED).sample(sorted(kept_edges), min(6, len(kept_edges)))[0]


def test_moved_covering_member_fails(pipeline_run, copy):
    inputs, out = pipeline_run
    bad = copy(out)
    path = bad / "coverings" / "covering_structural.txt"
    lines = [line.split() for line in path.read_text().splitlines()]
    assert len(lines) >= 2
    lines[1].append(lines[0].pop())
    path.write_text("".join(" ".join(sorted(m)) + "\n" for m in lines))
    fails = check(inputs, bad)
    assert any("covering_structural.txt" in f and "fitness" in f for f in fails)
    assert any("nmi_matrix.csv" in f for f in fails)


def test_nmi_entry_off_fails(pipeline_run, covers_run, copy):
    def off(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1e-6)
        rows[2][1] = rows[1][2]
    inputs, out = pipeline_run
    bad = copy(out)
    rewrite_csv(bad / "compare" / "nmi_matrix.csv", off)
    assert any("nmi_matrix.csv" in f for f in check(inputs, bad))
    inputs, out = covers_run
    bad = copy(out)
    rewrite_csv(bad / "nmi.csv", off)
    assert checks.check_compare(inputs, bad)


def test_report_and_edge_counts_fail(pipeline_run, copy):
    inputs, out = pipeline_run
    bad = copy(out)

    def bump(rows):
        rows[1][1] = str(int(rows[1][1]) + 1)
    rewrite_csv(bad / "report" / "covering_stats.csv", bump)
    rewrite_csv(bad / "report" / "orphans.csv", bump)
    rewrite_csv(bad / "edges" / "structural__hashtag" / "summary.csv", bump)
    fails = check(inputs, bad)
    for name in ("covering_stats.csv", "orphans.csv", "structural__hashtag"):
        assert any(name in f for f in fails)


def test_manifest_digest_fails(pipeline_run, copy):
    inputs, out = pipeline_run
    bad = copy(out)
    path = bad / "manifest.json"
    path.write_text(path.read_text().replace('"follows.csv": "', '"follows.csv": "0'))
    assert any("manifest.json" in f for f in check(inputs, bad))


def test_covers_report_count_fails(covers_run, copy):
    inputs, out = covers_run
    bad = copy(out)
    rewrite_csv(bad / "report" / "covering_stats.csv",
                lambda rows: rows[-1].__setitem__(2, "0"))
    assert checks.check_covers_report(inputs, bad)


def test_scc_and_nmi_basics():
    edges = {("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")}
    comps = checks.strongly_connected_components({"a", "b", "c", "d", "e"}, edges)
    assert sorted(map(sorted, comps)) == [["a", "b"], ["c", "d"], ["e"]]
    universe = {"a", "b", "c", "d", "e"}
    cover = [frozenset("ab"), frozenset("cd")]
    assert checks.cover_nmi(cover, cover, universe) == 1.0
    assert checks.cover_nmi(cover, [], universe) < 1.0


def test_te_detects_a_copied_series():
    rng = random.Random(1)
    y = [int(rng.random() < 0.3) for _ in range(2000)]
    x = [0] + y[:-1]  # x copies y one bin later
    noise = [int(rng.random() < 0.3) for _ in range(2000)]
    assert checks.brute_force_te(x, y, 1) > 0.5
    assert checks.brute_force_te(noise, y, 1) < 0.01


def test_tracer_marks_a_vanished_name_missing():
    module = types.SimpleNamespace(read_events=lambda path: [])
    t = tracer.Tracer()
    t.install(module)
    assert "read_events" not in t.missing and "detect_communities" in t.missing
    module.read_events("x")
    assert t.spans[-1]["name"] == "ingest.read_events"
    trace = {"spans": [{"name": "cli.main", "parent": None, "start": 0.0, "end": 1.0},
                       *t.spans], "missing": t.missing}
    traced = run.Round("traced", [("pipeline", run.Proc(1.5, 1.0, 50.0, True), trace)], "")
    metrics = run.layer_metrics(None, traced, 1.2)
    assert metrics["communities.detect_s"][0] is None
    assert metrics["ingest.read_events_s"][0] is not None
    assert run.metric(None, "s") == {"value": None, "unit": "s", "missing": True}
