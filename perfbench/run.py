"""Benchmark of qocd end to end and per module.

    python3 perfbench/run.py --workload paper_9wk --seed 1 --seconds 24 --trace 0

One run makes a workload's inputs with ``qocd synth`` from ``--seed``, then
runs the workload's qocd commands in rounds, each command a fresh process,
until ``--seconds`` have passed (at least two rounds). Every output tree is
checked against computations in ``checks.py`` that share no code with qocd,
and every round must write the same bytes. The last line of stdout is one
JSON object: ``correct``, operations ``attempted`` and ``failed`` (one
operation is one qocd command), and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones, measured on
untraced processes. With ``--trace 1`` the set-up and one extra round run
under ``tracer.py`` and the metrics are the per-layer ones.

This process imports only the standard library and never holds parsed data:
on Linux a child's peak RSS starts at its parent's, so a large parent would
inflate every RSS figure it reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

SETUP_REPEATS = 3
MIN_ROUNDS = 2
PROCESS_TIMEOUT_S = 150.0
NO_ROUND_AFTER_S = 120.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]
    covers: bool = False  # compare + report on derived covering files
    te_sample: int = 0    # edges whose TE is brute-forced at every lag
    # an untimed pipeline rerun at this thread count must write the same bytes
    rerun_threads: int | None = None


WORKLOADS = {
    # the paper's time scale, T = 9072 ten-minute bins; read_events dominates
    "paper_9wk": Workload(synth=("--nodes", "60", "--communities", "3"),
                          te_sample=8),
    # many edges and short series; detection and TE dominate
    "wide_short": Workload(
        synth=("--nodes", "300", "--communities", "6", "--p-in", "0.3",
               "--p-out", "0.003", "--bins", "1000", "--rho", "0.02",
               "--epsilon", "0.2", "--influence-in-degree", "2"),
        te_sample=24, rerun_threads=2),
    # coverings with many rows read from files; NMI dominates
    "external_covers": Workload(
        synth=("--nodes", "1000", "--communities", "20", "--p-in", "0.3",
               "--p-out", "0.003", "--bins", "20"),
        covers=True),
}


@dataclass(frozen=True)
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


def run_process(argv: list, log: Path) -> Proc:
    """Run one child to its end; time it and read its own rusage."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv], stdout=subprocess.DEVNULL,
                                 stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024, ok=child.returncode == 0)


NO_SPANS = {"spans": [], "missing": []}


@dataclass(frozen=True)
class Round:
    """One pass over a workload's commands: (operation, process, spans) each,
    and the digest of the output tree it wrote."""
    label: str
    ops: list[tuple[str, Proc, dict | None]]
    digest: str

    def total(self, field: str) -> float:
        return sum(getattr(p, field) for _, p, _ in self.ops)

    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for _, p, _ in self.ops)


def qocd(args) -> list:
    return [sys.executable, "-m", "qocd.cli", *args]


def traced(spans: Path, args) -> list:
    return [sys.executable, BENCH / "tracer.py", spans, *args]


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
    return digest.hexdigest()


def round_commands(w: Workload, inputs: Path, out: Path,
                   threads: int = 1) -> list[tuple[str, list]]:
    """The timed qocd commands of one round. Rounds run the pipeline at one
    thread: at two threads on two shared cores its wall time spread 13%
    from run to run."""
    if not w.covers:
        return [("pipeline", ["pipeline", "-i", inputs, "-o", out,
                              "--threads", threads])]
    covers = sorted((inputs / "covers").glob("covering_*.txt"))
    graph = inputs / "follows.csv"
    return [("compare", ["compare", *covers, "--graph", graph, "-o", out / "nmi.csv"]),
            ("report", ["report", *covers, "--graph", graph, "-o", out / "report"])]


def run_checks(w: Workload, seed: int, inputs: Path, out: Path, log: Path) -> dict:
    """Failures per operation name, from checks.py in a process of its own."""
    kind = "covers" if w.covers else "pipeline"
    argv = [sys.executable, BENCH / "checks.py", kind, inputs, out,
            "--seed", str(seed), "--te-sample", str(w.te_sample)]
    with open(log, "ab") as err:
        done = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        return {"*": [f"checks.py exited {done.returncode}; see {log}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark run: set-up, rounds, checks, and the operation tally."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.log = self.work / "stderr.log"
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def synth_args(self, out: Path) -> list:
        return ["synth", "-o", out, "--seed", self.seed, *self.w.synth]

    def setup(self) -> tuple[Path, list[Proc], dict | None]:
        """Make the inputs; returns them, the synth processes, and the
        traced synth's spans."""
        inputs = self.work / "inputs0"
        if self.trace:
            spans = self.work / "spans_synth.json"
            procs = [run_process(traced(spans, self.synth_args(inputs)), self.log)]
            self.tally(procs[0].ok, "traced synth exited non-zero")
            trace = json.loads(spans.read_text()) if procs[0].ok else None
            digests = [tree_digest(inputs)]
        else:
            procs, digests, trace = [], [], None
            for i in range(SETUP_REPEATS):
                target = self.work / f"inputs{i}"
                procs.append(run_process(qocd(self.synth_args(target)), self.log))
                digests.append(tree_digest(target))
                self.tally(procs[-1].ok and digests[-1] == digests[0],
                           f"synth {i} exited non-zero or wrote other inputs")
                if i:
                    shutil.rmtree(target)
        if not all(p.ok for p in procs):
            raise RuntimeError(f"qocd synth failed; see {self.log}")
        print(f"inputs sha256 {digests[0]}")
        if self.w.covers:
            derive = [sys.executable, BENCH / "covers.py", inputs, self.seed]
            subprocess.run([str(a) for a in derive], check=True,
                           timeout=PROCESS_TIMEOUT_S)
        return inputs, procs, trace

    def one_round(self, label: str, inputs: Path, threads: int = 1,
                  trace: bool = False) -> Round:
        out = self.work / label
        ops = []
        for i, (op, argv) in enumerate(round_commands(self.w, inputs, out, threads)):
            if trace:
                spans = self.work / f"spans_{label}_{i}.json"
                proc = run_process(traced(spans, argv), self.log)
                spans = json.loads(spans.read_text()) if proc.ok else NO_SPANS
            else:
                proc, spans = run_process(qocd(argv), self.log), None
            ops.append((op, proc, spans))
        return Round(label, ops, tree_digest(out))

    def timed_rounds(self, inputs: Path, started: float) -> list[Round]:
        rounds = []
        first = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or (
                time.perf_counter() - first < self.seconds
                and time.perf_counter() - started < NO_ROUND_AFTER_S):
            rounds.append(self.one_round(f"round{len(rounds)}", inputs))
            print(f"{rounds[-1].label}: " + ", ".join(
                f"{op} {p.wall:.3f} s" for op, p, _ in rounds[-1].ops))
        return rounds

    def tally_round(self, r: Round, reference: str, checks: dict) -> None:
        """Each operation fails on a non-zero exit, on output bytes that
        differ from the first round's, or on a failed check of its output."""
        same = r.digest == reference
        for op, proc, _ in r.ops:
            fails = len(checks.get(op, []) + checks.get("*", []))
            self.tally(proc.ok and same and not fails,
                       f"{r.label} {op}: exit ok {proc.ok}, same bytes as "
                       f"round0 {same}, failed checks {fails}")

    def measure(self) -> dict:
        started = time.perf_counter()
        inputs, setup_procs, synth_trace = self.setup()
        rounds = self.timed_rounds(inputs, started)
        run_s = statistics.median(r.total("wall") for r in rounds)
        untimed = []
        if self.w.rerun_threads:
            untimed.append(self.one_round("rerun", inputs, self.w.rerun_threads))
        if self.trace:
            untimed.append(self.one_round("traced", inputs, trace=True))
        checks = run_checks(self.w, self.seed, inputs,
                            self.work / rounds[0].label, self.log)
        for op, fails in sorted(checks.items()):
            for msg in fails:
                print(f"check failed ({op}): {msg}", file=sys.stderr)
        for r in rounds + untimed:
            self.tally_round(r, rounds[0].digest, checks)
        for msg in self.messages:
            print(f"failed: {msg}", file=sys.stderr)
        if self.trace:
            metrics = layer_metrics(synth_trace, untimed[-1], run_s)
        else:
            metrics = {
                "setup_s": (statistics.median(p.wall for p in setup_procs), "s"),
                "setup_peak_rss_mb": (statistics.median(p.rss_mb for p in setup_procs), "MB"),
                "run_s": (run_s, "s"),
                "run_cpu_s": (statistics.median(r.total("cpu") for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(r.peak_rss_mb() for r in rounds), "MB"),
            }
        return {"correct": not any(checks.values()), "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: metric(*v) for k, v in metrics.items()}}


def metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def _self_time(spans: list[dict]) -> float:
    """The root span's time that no span directly under it covers."""
    root = spans[0]
    covered, reach = 0.0, root["start"]
    for s in sorted((s for s in spans if s["parent"] == 0), key=lambda s: s["start"]):
        start, end = max(s["start"], reach), max(s["end"], reach)
        covered += end - start
        reach = end
    return (root["end"] - root["start"]) - covered


def layer_metrics(synth_trace: dict | None, traced: Round,
                  untraced_run_s: float) -> dict:
    """Per-layer metrics from the traced synth and the traced round."""
    traces = [spans for _, _, spans in traced.ops]
    missing = set()
    for t in [synth_trace or {"missing": []}, *traces]:
        missing.update(t["missing"])
    run_spans = [s for t in traces for s in t["spans"]]
    synth_spans = synth_trace["spans"] if synth_trace else []

    def spans(layer: str, source=None) -> list[dict]:
        return [s for s in (run_spans if source is None else source) if s["name"] == layer]

    def total(layer: str, source=None, key=None):
        if any(name in missing for name in LAYERS[layer]):
            return None
        chosen = spans(layer, source)
        if key is None:
            return sum(s["end"] - s["start"] for s in chosen)
        return sum(s.get(key, 0) for s in chosen)

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return num * scale / den if den else 0.0

    def te_lag(k: int):
        if "transfer_entropy_weights" in missing:
            return None
        return sum(s["end"] - s["start"] for s in spans("infotheory.te") if s["lag"] == k)

    te_s = total("infotheory.te")
    edge_lags = total("infotheory.te", key="edges")
    read_s = total("ingest.read_events")
    events = total("ingest.read_events", key="events")
    detect_s = total("communities.detect")
    nmi_s = total("compare.nmi")
    roots = [t["spans"] for t in traces if t["spans"]]
    traced_wall = traced.total("wall")
    m = {
        "synth.generate_s": (total("synth.generate", synth_spans), "s"),
        "synth.write_events_s": (total("synth.write_events", synth_spans), "s"),
        "synth.generate_rss_mb": (total("synth.generate", synth_spans, "rss_growth_mb"), "MB"),
        "ingest.read_events_s": (read_s, "s"),
        "ingest.parse_us_per_event": (ratio(read_s, events, 1e6), "us"),
        "ingest.read_events_rss_mb": (total("ingest.read_events", key="rss_growth_mb"), "MB"),
        "ingest.events": (events, "count"),
        "ingest.read_follows_s": (total("ingest.read_follows"), "s"),
        "ingest.filter_s": (total("ingest.filter"), "s"),
        "activity.batch_coarsen_s": (total("activity.batch_coarsen"), "s"),
        "infotheory.te_s": (te_s, "s"),
        "infotheory.te_lag1_s": (te_lag(1), "s"),
        "infotheory.te_lag6_s": (te_lag(6), "s"),
        "infotheory.te_us_per_edge_lag": (ratio(te_s, edge_lags, 1e6), "us"),
        "infotheory.edge_lags": (edge_lags, "count"),
        "weighting.structural_s": (total("weighting.structural"), "s"),
        "weighting.interaction_s": (total("weighting.interaction"), "s"),
        "weighting.hashtag_s": (total("weighting.hashtag"), "s"),
        "communities.detect_s": (detect_s, "s"),
        "communities.detect_s_per_1e5_edges": (
            ratio(detect_s, total("communities.detect", key="edges"), 1e5), "s"),
        "communities.read_covering_s": (total("communities.read_covering"), "s"),
        "communities.communities": (_sum_opt(
            total("communities.detect", key="communities"),
            total("communities.read_covering", key="communities")), "count"),
        "communities.singletons": (_sum_opt(
            total("communities.detect", key="singletons"),
            total("communities.read_covering", key="singletons")), "count"),
        "compare.nmi_s": (nmi_s, "s"),
        "compare.nmi_s_per_pair": (ratio(nmi_s, total("compare.nmi", key="pairs")), "s"),
        "compare.rows": (total("compare.nmi", key="rows"), "count"),
        "edgestats.partition_s": (total("edgestats.partition"), "s"),
        "edgestats.conditional_weights_s": (total("edgestats.conditional_weights"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.self_s": (sum(_self_time(s) for s in roots), "s"),
        "cli.startup_s": (traced_wall - sum(s[0]["end"] - s[0]["start"] for s in roots), "s"),
        "trace.overhead_s": (traced_wall - untraced_run_s, "s"),
    }
    return m


def _sum_opt(a, b):
    return None if a is None or b is None else a + b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qocd end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qocd" / "cli.py").is_file():
        print(f"run.py: no qocd sources at {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    result = None
    try:
        result = run.measure()
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        result = None
    finally:
        if run.log.exists() and (result is None or result["failed"]):
            print(run.log.read_text(errors="replace")[-4000:], file=sys.stderr)
        shutil.rmtree(run.work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
