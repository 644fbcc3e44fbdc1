"""Comparing coverings and dissecting edges across community boundaries.

Builds the family of coverings (structural, six transfer-entropy lags,
interaction, topic), prints their pairwise NMI matrix, then partitions edges
into inter/intra/mixed classes and reports conditional weight medians,
including the size CCDF of the detected communities.
"""

from qocd import (EDGE_CLASSES, SynthConfig, batch_coarsen, conditional_weights,
                  detect_communities, generate, hashtag_similarity_weights,
                  hashtag_tfidf_vectors, mention_retweet_weights,
                  mention_share_weights, nmi_matrix, partition_edges,
                  retweet_share_weights, size_ccdf, structural_weights,
                  transfer_entropy_weights)

cfg = SynthConfig(nodes=80, communities=4, bins=2000, p_in=0.35, p_out=0.05,
                  rho=0.05, epsilon=0.25, overlap_fraction=0.15,
                  influence_in_degree=2, mention_events=8, retweet_events=8,
                  interaction_intra_bias=0.75, hashtag_rate=0.4, seed=33)
log, graph, truth = generate(cfg)
activity = batch_coarsen(log, graph, bin_width=cfg.bin_width)

tables = {
    "structural": structural_weights(graph),
    "mention_retweet": mention_retweet_weights(
        mention_share_weights(graph, log), retweet_share_weights(graph, log)),
    "hashtag": hashtag_similarity_weights(
        graph, hashtag_tfidf_vectors(log, graph.nodes)),
}
for lag in range(1, 7):
    wg = transfer_entropy_weights(graph, activity, lag)
    tables[wg.scheme] = wg

coverings = {name: detect_communities(wg) for name, wg in tables.items()}
labels, matrix = nmi_matrix(coverings)

print("pairwise NMI between coverings:")
print(" " * 16 + "".join(f"{label[:7]:>9}" for label in labels))
for label, row in zip(labels, matrix):
    print(f"{label:<16}" + "".join(f"{v:>9.3f}" for v in row))

# edges by class, with conditional medians, under the lag-1 TE covering
wg = tables["te_lag1"]
classes = partition_edges(wg, coverings["te_lag1"])
summary = conditional_weights(wg, classes, bins=20)
print("\nTE lag-1 weights conditioned on edge class (own covering):")
for name in EDGE_CLASSES:
    stats = summary["classes"][name]
    median = "-" if stats["median"] is None else f"{stats['median']:.5f}"
    print(f"  {name:<6} count {stats['count']:>5}   median {median}")

print("\ncommunity size CCDF (te_lag1 covering):")
for size, proportion in size_ccdf(coverings["te_lag1"]):
    print(f"  P(size > {size:>2}) = {proportion:.3f}")
