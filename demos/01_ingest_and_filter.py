"""Walk through ingestion: events in, filtered follow graph out.

Synthesizes a small dataset, then replays the standard preparation steps:
count each user's incoming and outgoing information events, drop users below
the activity threshold, and keep the giant strongly connected component.
"""

import numpy as np

from qocd import (SynthConfig, count_information_events, filter_active,
                  generate, giant_scc)
from qocd.ingest import EVENT_KINDS

log, graph, truth = generate(SynthConfig(
    nodes=60, communities=4, bins=400, p_in=0.4, p_out=0.05,
    rho=0.1, epsilon=0.3, mention_events=9, retweet_events=9, seed=42))
print(f"raw network: {len(graph.nodes)} users, {len(graph.edges)} follow edges")
# the log is columnar: log.kind holds one code per event into EVENT_KINDS
per_kind = np.bincount(log.kind, minlength=len(EVENT_KINDS)).tolist()
kinds = dict(zip(EVENT_KINDS, per_kind))
print(f"event log: {len(log)} events ({kinds['post']} posts, "
      f"{kinds['mention']} mentions, {kinds['retweet']} retweets)")

# an information event is an in-network mention or retweet; each one is
# outgoing for the user information left and incoming for the receiver
# the two counts are int64 arrays in graph.nodes order
counts = count_information_events(log, graph)
outgoing, incoming = counts
busiest = int(np.argmax(outgoing + incoming))  # the first, on a tie
print(f"busiest user {graph.nodes[busiest]}: outgoing/incoming = "
      f"{(int(outgoing[busiest]), int(incoming[busiest]))}")

# users need a minimum of both kinds to stay; then keep the giant SCC.
# Each step returns the induced subgraph, so its node tuple tells what left
active = filter_active(graph, counts, threshold=9)
print(f"activity filter (>=9 of each): kept {len(active.nodes)}, "
      f"removed {len(graph.nodes) - len(active.nodes)}")

final = giant_scc(active)
print(f"giant strongly connected component: {len(final.nodes)} users, "
      f"{len(final.edges)} edges "
      f"({len(active.nodes) - len(final.nodes)} peripheral users dropped)")
