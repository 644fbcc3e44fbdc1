"""Covering files for the external_covers workload, derived from a planted
covering with the benchmark's own seeded code.

Two coverings look like the planted blocks (about 25 rows); two look like
the paper's transfer-entropy coverings, where most nodes are singletons
(about 900 rows at 1,200 nodes). The files use the features external tools
emit: a ``#`` header line, explicit one-node lines and a repeated community.

    python3 perfbench/covers.py INPUTS SEED    # writes INPUTS/covers/
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from checks import covering_lines, read_follows


def blocks_like(blocks, rng, moved: float, dropped: int):
    """The planted blocks with a share of nodes moved to another block and a
    few nodes dropped to singletons."""
    groups = [set(b) for b in blocks]
    nodes = sorted(set().union(*groups))
    for v in rng.sample(nodes, round(moved * len(nodes))):
        src = next(i for i, g in enumerate(groups) if v in g)
        groups[src].discard(v)
        groups[rng.choice([i for i in range(len(groups)) if i != src])].add(v)
    lonely = rng.sample(nodes, dropped)
    for g in groups:
        g.difference_update(lonely)
    return [sorted(g) for g in groups if len(g) >= 2], lonely


def singleton_heavy(blocks, rng, share: float):
    """Small groups of 2-5 nodes inside each block, covering about ``share``
    of the nodes; a few groups overlap by one node."""
    groups = []
    for block in blocks:
        members = sorted(block)
        rng.shuffle(members)
        chosen = members[:round(share * len(members))]
        i = 0
        while len(chosen) - i >= 2:
            size = min(rng.randint(2, 5), len(chosen) - i)
            group = chosen[i:i + size]
            if groups and rng.random() < 0.1:
                group = group + [groups[-1][0]]
            groups.append(sorted(set(group)))
            i += size
    lonely = sorted(set().union(*map(set, blocks)) - set().union(*map(set, groups)))
    return groups, rng.sample(lonely, 20)


def write_covering(path: Path, header: str, groups, explicit_singletons) -> None:
    lines = [f"# {header}"] + [" ".join(g) for g in groups]
    if groups:
        lines.append(lines[1])  # a repeated community
    lines += explicit_singletons
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def derive(inputs: Path, seed: int) -> None:
    universe = {v for e in read_follows(inputs / "follows.csv") for v in e}
    blocks = [sorted(c & universe) for c in covering_lines(inputs / "planted_covering.txt")]
    rng = random.Random(seed)
    out = inputs / "covers"
    out.mkdir(exist_ok=True)
    for name, moved, dropped in (("blocks_a", 0.03, 3), ("blocks_b", 0.08, 6)):
        groups, lonely = blocks_like(blocks, rng, moved, dropped)
        write_covering(out / f"covering_{name}.txt", "planted blocks, perturbed",
                       groups, lonely)
    for name, share in (("te_a", 0.3), ("te_b", 0.25)):
        groups, lonely = singleton_heavy(blocks, rng, share)
        write_covering(out / f"covering_{name}.txt", "mostly singletons",
                       groups, lonely)


if __name__ == "__main__":
    derive(Path(sys.argv[1]), int(sys.argv[2]))
