"""Output checks for the qocd benchmark, written apart from qocd.

Nothing here imports qocd. Every expected value is recomputed from the raw
inputs (events JSONL, follow CSV, covering files, weight tables) with plain
loops, so a fault in qocd cannot hide by being repeated in its check. Each
check returns a list of failure messages; an empty list is a pass.

Run as a script it checks one output tree and prints, as its last line, a
JSON object mapping each checked qocd command to its failures:

    python3 perfbench/checks.py pipeline INPUTS OUT --seed 1 --te-sample 8
    python3 perfbench/checks.py covers INPUTS OUT

The benchmark runs it in a process of its own: a child process inherits its
parent's peak RSS on Linux, so the parent must never hold the parsed data.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

BIN_WIDTH = 600
THRESHOLD = 9
MAX_LAG = 6
FEATURED_LAG = 4
# planted-truth NMI of the structural and mention-retweet coverings read
# 0.907-1.0 on both pipeline workloads over seeds 1-6; one node placed in
# the wrong block of 20 costs about 0.09
PLANTED_NMI_FLOOR = 0.75
# weight tables and the NMI matrix hold 12 significant digits
TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ------------------------------------------------------------------ readers


def read_follows(path) -> set[tuple[str, str]]:
    """``followee,follower`` rows, deduplicated, self-follows dropped."""
    edges = set()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            if len(row) < 2:
                continue
            a, b = row[0].strip(), row[1].strip()
            if a and b and a != b:
                edges.add((a, b))
    return edges


def read_events(path) -> list[tuple]:
    """(kind, actor, ts, target, hashtags) per line of a well-formed log."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            tags = tuple(t.lower().lstrip("#") for t in rec.get("hashtags", ()))
            out.append((rec["kind"], rec["actor"], rec["ts"], rec.get("target"),
                        tags))
    return out


def read_weights(path) -> dict[tuple[str, str], float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["source", "target", "weight"]:
            raise ValueError(f"{path}: bad header")
        return {(r[0], r[1]): float(r[2]) for r in rows}


def covering_lines(path) -> list[frozenset[str]]:
    """Member sets of the non-comment lines of a covering file, in order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(frozenset(line.split()))
    return out


def fold_covering(lines: list[frozenset[str]]) -> list[frozenset[str]]:
    """Covering-file semantics: one-node lines and repeated lines drop out."""
    seen, out = set(), []
    for members in lines:
        if len(members) >= 2 and members not in seen:
            seen.add(members)
            out.append(members)
    return out


def read_csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ------------------------------------------------------------------ ingest


def strongly_connected_components(nodes, edges) -> list[set[str]]:
    """Tarjan's algorithm with an explicit stack."""
    succ = defaultdict(list)
    for a, b in sorted(edges):
        succ[a].append(b)
    index, low, on_stack, stack, comps = {}, {}, set(), [], []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def expected_ingest(events, follows, threshold=THRESHOLD):
    """(all nodes, active nodes, kept nodes, kept edges) from the raw inputs."""
    nodes = {v for e in follows for v in e}
    out_n, in_n = Counter(), Counter()
    for kind, actor, _, target, _ in events:
        if kind == "post" or actor not in nodes or target not in nodes:
            continue
        if kind == "mention":
            out_n[actor] += 1
            in_n[target] += 1
        else:  # a retweet is information flowing from target to actor
            out_n[target] += 1
            in_n[actor] += 1
    active = {v for v in nodes if out_n[v] >= threshold and in_n[v] >= threshold}
    sub = {(a, b) for a, b in follows if a in active and b in active}
    comps = strongly_connected_components(active, sub)
    kept = min(comps, key=lambda c: (-len(c), min(c))) if comps else set()
    return nodes, active, kept, {(a, b) for a, b in sub if a in kept and b in kept}


def check_ingest(nodes, active, kept, kept_edges, out: Path) -> list[str]:
    fails = []
    graph = read_follows(out / "ingest" / "graph.csv")
    if graph != kept_edges:
        fails.append(f"ingest/graph.csv: {len(graph ^ kept_edges)} edges differ "
                     f"from the recomputed giant SCC")
    report = json.loads((out / "ingest" / "filter_report.json").read_text())
    for key, want in (("kept", kept), ("removed_inactive", nodes - active),
                      ("removed_not_in_gscc", active - kept)):
        if set(report.get(key, ())) != want:
            fails.append(f"filter_report.json: {key} differs from the recomputation")
    return fails


# ------------------------------------------------------------------ weights


def interaction_weights(edges, events, nodes) -> dict[str, dict]:
    m_pair, m_total, r_pair, r_total = Counter(), Counter(), Counter(), Counter()
    for kind, actor, _, target, _ in events:
        if kind == "post" or actor not in nodes or target not in nodes:
            continue
        if kind == "mention":  # edge actor -> target: the target follows
            m_pair[(actor, target)] += 1
            m_total[target] += 1
        else:  # edge target -> actor: the retweeter follows the author
            r_pair[(target, actor)] += 1
            r_total[actor] += 1
    mention, retweet, both = {}, {}, {}
    for e in edges:
        follower = e[1]
        mention[e] = m_pair[e] / m_total[follower] if m_total[follower] else 0.0
        retweet[e] = r_pair[e] / r_total[follower] if r_total[follower] else 0.0
        both[e] = (mention[e] + retweet[e]) / 2
    return {"mention": mention, "retweet": retweet, "mention_retweet": both}


def hashtag_weights(edges, events, nodes) -> dict:
    counts = {v: Counter() for v in nodes}
    for kind, actor, _, _, tags in events:
        if kind == "post" and actor in counts:
            for tag in tags:
                counts[actor][tag] += 1
    users = Counter(tag for c in counts.values() for tag in c)
    n = len(nodes)
    vectors = {v: {t: c * math.log(n / users[t]) for t, c in counts[v].items()
                   if users[t] < n} for v in nodes}
    norms = {v: math.sqrt(sum(x * x for x in vec.values()))
             for v, vec in vectors.items()}
    weights = {}
    for a, b in edges:
        dot = sum(x * vectors[b].get(t, 0.0) for t, x in vectors[a].items())
        weights[(a, b)] = 0.0 if dot == 0.0 else min(1.0, dot / (norms[a] * norms[b]))
    return weights


def compare_table(name: str, got: dict, want: dict) -> list[str]:
    if set(got) != set(want):
        return [f"{name}: {len(set(got) ^ set(want))} edges differ from the graph"]
    bad = [e for e in sorted(want) if not close(got[e], want[e])]
    if bad:
        e = bad[0]
        return [f"{name}: {len(bad)} weights differ, first {e}: "
                f"{got[e]!r} != {want[e]!r}"]
    return []


def check_weights(weights_dir: Path, kept_edges, events, kept) -> list[str]:
    want = interaction_weights(kept_edges, events, kept)
    want["hashtag"] = hashtag_weights(kept_edges, events, kept)
    want["structural"] = {e: 1.0 for e in kept_edges}
    fails = []
    for scheme in sorted(want):
        fails += compare_table(f"weights_{scheme}.csv",
                               read_weights(weights_dir / f"weights_{scheme}.csv"),
                               want[scheme])
    return fails


# ------------------------------------------------------------------ transfer entropy


def activity_bits(events, nodes, bin_width=BIN_WIDTH) -> dict[str, list[int]]:
    """0/1 per bin: did the user post or retweet in it. The window runs from
    the first event of the whole log, floored to a bin, to the last."""
    stamps = [ev[2] for ev in events]
    origin = min(stamps) // bin_width * bin_width
    length = math.ceil((max(stamps) - origin + 1) / bin_width)
    bits = {v: [0] * length for v in nodes}
    for kind, actor, ts, _, _ in events:
        if kind != "mention" and actor in bits:
            bits[actor][(ts - origin) // bin_width] = 1
    return bits


def mm_entropy(counts: Counter, n: int) -> float:
    """Plug-in entropy in bits plus the Miller-Madow term (A - 1) / 2n."""
    h = -sum(c / n * math.log2(c / n) for c in counts.values())
    return h + (len(counts) - 1) / (2 * n)


def brute_force_te(x: list[int], y: list[int], k: int) -> float:
    """Schreiber's TE from y to x at lag k, each entropy Miller-Madow
    adjusted, over explicit past tuples; floored at zero."""
    xp, xfp, xyp, xfyp = Counter(), Counter(), Counter(), Counter()
    for t in range(k, len(x)):
        px, py = tuple(x[t - k:t]), tuple(y[t - k:t])
        xp[px] += 1
        xfp[(x[t], px)] += 1
        xyp[(px, py)] += 1
        xfyp[(x[t], px, py)] += 1
    n = len(x) - k
    te = (mm_entropy(xfp, n) - mm_entropy(xp, n)
          - mm_entropy(xfyp, n) + mm_entropy(xyp, n))
    return max(0.0, te)


def check_te(weights_dir: Path, kept_edges, bits, sample) -> list[str]:
    fails = []
    for k in range(1, MAX_LAG + 1):
        name = f"weights_te_lag{k}.csv"
        table = read_weights(weights_dir / name)
        if set(table) != kept_edges:
            fails.append(f"{name}: edge set differs from the graph")
            continue
        if any(w < 0 for w in table.values()):
            fails.append(f"{name}: negative weight")
        for followee, follower in sample:
            want = brute_force_te(bits[follower], bits[followee], k)
            got = table[(followee, follower)]
            if not close(got, want):
                fails.append(f"{name}: ({followee}, {follower}) {got!r} != "
                             f"brute force {want!r}")
    return fails


# ------------------------------------------------------------------ coverings


def positive_adjacency(weights):
    adj = defaultdict(dict)
    for (a, b), w in weights.items():
        if w > 0:
            adj[a][b] = adj[a].get(b, 0.0) + w
            adj[b][a] = adj[b].get(a, 0.0) + w
    return adj, {v: sum(nbrs.values()) for v, nbrs in adj.items()}


def fitness(w_in: float, w_bnd: float) -> float:
    """w_in / (w_in + w_bnd)^alpha at the pipeline's alpha = 1."""
    total = w_in + w_bnd
    return w_in / total if total > 0 else 0.0


def check_detected(name: str, lines, weights, universe) -> list[str]:
    """Detector output: listed communities have >= 2 members, appear once,
    hold no zero-strength node, and no outside neighbour raises fitness."""
    fails = []
    if any(len(c) < 2 for c in lines):
        fails.append(f"{name}: a community with fewer than 2 members")
    if len(set(lines)) != len(lines):
        fails.append(f"{name}: a repeated community")
    if any(not c <= universe for c in lines):
        fails.append(f"{name}: a member outside the kept nodes")
        return fails
    adj, strength = positive_adjacency(weights)
    for comm in lines:
        if any(strength.get(v, 0.0) == 0.0 for v in comm):
            fails.append(f"{name}: a zero-strength node is covered")
            continue
        w_in = sum(w for v in comm for u, w in adj[v].items() if u in comm) / 2
        w_bnd = sum(strength[v] for v in comm) - 2 * w_in
        current = fitness(w_in, w_bnd)
        links = Counter()
        for v in comm:
            for u, w in adj[v].items():
                if u not in comm:
                    links[u] += w
        for u, link in sorted(links.items()):
            gain = fitness(w_in + link, w_bnd - link + strength[u] - link) - current
            if gain > TOL * max(1.0, current):
                fails.append(f"{name}: adding {u} to a community of "
                             f"{len(comm)} raises fitness by {gain:.3g}")
                break
    return fails


# ------------------------------------------------------------------ NMI


def membership_rows(communities, universe) -> list[frozenset[str]]:
    covered = set().union(*communities) if communities else set()
    return list(communities) + [frozenset((v,)) for v in sorted(universe - covered)]


def _mean_conditional(xs, ys, n: int, h) -> float:
    """Mean normalized conditional entropy of the X rows given the Y rows.

    A Y row that shares no node with an X row has n11 = 0, so its term
    depends only on the two row sizes: one candidate per Y row size covers
    all the rows of that size that miss the X row.
    """
    rows_of = defaultdict(list)
    for j, row in enumerate(ys):
        for v in row:
            rows_of[v].append(j)
    y_size = [len(r) for r in ys]
    size_count = Counter(y_size)
    total = 0.0
    for row in xs:
        sx = len(row)
        hx = h[sx] + h[n - sx]
        if hx == 0.0:
            continue
        overlap = Counter(j for v in row for j in rows_of[v])
        candidates = [(n11, y_size[j]) for j, n11 in overlap.items()]
        touched = Counter(y_size[j] for j in overlap)
        candidates += [(0, s) for s, c in size_count.items() if c > touched[s]]
        best = None
        for n11, sy in candidates:
            n10, n01 = sx - n11, sy - n11
            n00 = n - n11 - n10 - n01
            if h[n11] + h[n00] > h[n01] + h[n10]:
                cond = max(0.0, (h[n11] + h[n10]) + (h[n01] + h[n00])
                           - (h[sy] + h[n - sy]))
                if best is None or cond < best:
                    best = cond
        total += min(1.0, (hx if best is None else best) / hx)
    return total / len(xs)


def cover_nmi(c1, c2, universe) -> float:
    """Overlapping-cover NMI (Lancichinetti, Fortunato & Kertesz 2009) with
    singletons as rows, as qocd defines it."""
    n = len(universe)
    h = [0.0] + [-(c / n) * math.log2(c / n) for c in range(1, n + 1)]
    xs, ys = membership_rows(c1, universe), membership_rows(c2, universe)
    return 1.0 - 0.5 * (_mean_conditional(xs, ys, n, h)
                        + _mean_conditional(ys, xs, n, h))


def check_nmi_matrix(path: Path, coverings: dict, universe) -> list[str]:
    rows = read_csv_rows(path)
    labels = sorted(coverings)
    if rows[0] != ["covering"] + labels or [r[0] for r in rows[1:]] != labels:
        return [f"{path.name}: labels differ from {labels}"]
    cells = [r[1:] for r in rows[1:]]
    fails = []
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            got = float(cells[i][j])
            if cells[i][j] != cells[j][i]:
                fails.append(f"{path.name}: ({a}, {b}) is not symmetric")
            if not 0.0 <= got <= 1.0:
                fails.append(f"{path.name}: ({a}, {b}) = {got} outside [0, 1]")
            if i == j and abs(got - 1.0) > 1e-12:
                fails.append(f"{path.name}: diagonal ({a}) = {got}")
            if j >= i:
                want = cover_nmi(coverings[a], coverings[b], universe)
                if not close(got, want):
                    fails.append(f"{path.name}: ({a}, {b}) = {got!r}, "
                                 f"recomputed {want!r}")
    return fails


def restrict(communities, keep) -> list[frozenset[str]]:
    return fold_covering([c & keep for c in communities])


def check_planted(planted_path: Path, coverings: dict, kept) -> list[str]:
    planted = restrict(covering_lines(planted_path), kept)
    fails = []
    for name in ("structural", "mention_retweet"):
        value = cover_nmi(planted, coverings[name], kept)
        if value < PLANTED_NMI_FLOOR:
            fails.append(f"planted-truth NMI of covering_{name} is {value:.4f}, "
                         f"below {PLANTED_NMI_FLOOR}")
    return fails


# ------------------------------------------------------------------ edges and report


def edge_classes(edges, communities, universe) -> dict:
    member = {v: set() for v in universe}
    for i, comm in enumerate(communities):
        for v in comm:
            member[v].add(i)
    for v, ids in member.items():
        if not ids:
            ids.add(("singleton", v))
    out = {}
    for a, b in edges:
        if not member[a] & member[b]:
            out[(a, b)] = "inter"
        elif member[a] == member[b]:
            out[(a, b)] = "intra"
        else:
            out[(a, b)] = "mixed"
    return out


def check_edges(edges_dir: Path, tables: dict, coverings: dict, universe) -> list[str]:
    featured = f"te_lag{FEATURED_LAG}"
    weights = (featured, "hashtag", "mention_retweet")
    pairs = [(c, w) for c in ("structural",) + weights for w in weights]
    found = sorted(p.name for p in edges_dir.iterdir())
    if found != sorted(f"{c}__{w}" for c, w in pairs):
        return [f"edges/: directories {found} differ from the featured pairs"]
    fails = []
    for cov, wt in pairs:
        classes = edge_classes(tables[wt], coverings[cov], universe)
        grouped = {"inter": [], "intra": [], "mixed": []}
        for e, cls in classes.items():
            grouped[cls].append(tables[wt][e])
        rows = read_csv_rows(edges_dir / f"{cov}__{wt}" / "summary.csv")
        got = {r[0]: r[1:] for r in rows[1:]}
        for cls, ws in grouped.items():
            count, median = got.get(cls, ("", ""))
            ws.sort()
            ok = count == str(len(ws)) and (
                median == "" if not ws else
                median != "" and close(float(median), ws[(len(ws) - 1) // 2]))
            if not ok:
                fails.append(f"edges/{cov}__{wt}: {cls} count/median "
                             f"{count}/{median} differ from the recount")
    return fails


def check_report(report_dir: Path, coverings: dict, universe,
                 tables: dict | None = None) -> list[str]:
    fails = []
    want = [["covering", "communities", "singletons"]]
    for name in sorted(coverings):
        covered = set().union(*coverings[name]) if coverings[name] else set()
        want.append([name, str(len(coverings[name])), str(len(universe - covered))])
        sizes = [len(c) for c in coverings[name]]
        rows = read_csv_rows(report_dir / f"size_ccdf_{name}.csv")
        ccdf = [(int(s), float(p)) for s, p in rows[1:]]
        if [s for s, _ in ccdf] != sorted(set(sizes)) or not all(
                close(p, sum(1 for x in sizes if x > s) / len(sizes))
                for s, p in ccdf):
            fails.append(f"report/size_ccdf_{name}.csv differs from the recount")
    if read_csv_rows(report_dir / "covering_stats.csv") != want:
        fails.append("report/covering_stats.csv differs from the recount")
    if tables is not None:
        want = [["scheme", "orphans"]]
        for name in sorted(tables):
            alive = {v for e, w in tables[name].items() if w > 0 for v in e}
            want.append([name, str(len(universe - alive))])
        if read_csv_rows(report_dir / "orphans.csv") != want:
            fails.append("report/orphans.csv differs from the recount")
    return fails


def check_manifest(path: Path, inputs: Path) -> list[str]:
    manifest = json.loads(path.read_text())
    want = {name: sha256(inputs / name) for name in ("events.jsonl", "follows.csv")}
    return [] if manifest.get("inputs") == want else \
        ["manifest.json: input digests differ from the inputs"]


# ------------------------------------------------------------------ per workload kind


def check_pipeline(inputs: Path, out: Path, seed: int, te_sample: int) -> list[str]:
    """Every check of one ``qocd pipeline`` output tree."""
    events = read_events(inputs / "events.jsonl")
    follows = read_follows(inputs / "follows.csv")
    nodes, active, kept, kept_edges = expected_ingest(events, follows)
    fails = check_ingest(nodes, active, kept, kept_edges, out)
    if fails:
        return fails  # every later table is keyed on the kept graph
    weights_dir = out / "weights"
    fails += check_weights(weights_dir, kept_edges, events, kept)
    sample = random.Random(seed).sample(sorted(kept_edges),
                                        min(te_sample, len(kept_edges)))
    fails += check_te(weights_dir, kept_edges, activity_bits(events, kept), sample)
    del events
    tables = {p.stem.removeprefix("weights_"): read_weights(p)
              for p in sorted(weights_dir.glob("weights_*.csv"))}
    lines = {p.stem.removeprefix("covering_"): covering_lines(p)
             for p in sorted((out / "coverings").glob("covering_*.txt"))}
    if sorted(lines) != sorted(tables):
        return fails + [f"coverings {sorted(lines)} do not match the weightings"]
    for name in sorted(lines):
        fails += check_detected(f"covering_{name}.txt", lines[name], tables[name], kept)
    coverings = {name: fold_covering(ls) for name, ls in lines.items()}
    fails += check_planted(inputs / "planted_covering.txt", coverings, kept)
    fails += check_nmi_matrix(out / "compare" / "nmi_matrix.csv", coverings, kept)
    fails += check_edges(out / "edges", tables, coverings, kept)
    fails += check_report(out / "report", coverings, kept, tables)
    fails += check_manifest(out / "manifest.json", inputs)
    return fails


def covers_universe(inputs: Path) -> set[str]:
    return {v for e in read_follows(inputs / "follows.csv") for v in e}


def read_covers(covers_dir: Path) -> dict:
    return {p.stem.removeprefix("covering_"): fold_covering(covering_lines(p))
            for p in sorted(covers_dir.glob("covering_*.txt"))}


def check_compare(inputs: Path, out: Path) -> list[str]:
    universe = covers_universe(inputs)
    return check_nmi_matrix(out / "nmi.csv", read_covers(inputs / "covers"), universe)


def check_covers_report(inputs: Path, out: Path) -> list[str]:
    universe = covers_universe(inputs)
    return check_report(out / "report", read_covers(inputs / "covers"), universe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=["pipeline", "covers"])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--te-sample", type=int, default=8)
    args = parser.parse_args(argv)
    if args.kind == "pipeline":
        result = {"pipeline": check_pipeline(args.inputs, args.out, args.seed,
                                             args.te_sample)}
    else:
        result = {"compare": check_compare(args.inputs, args.out),
                  "report": check_covers_report(args.inputs, args.out)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
