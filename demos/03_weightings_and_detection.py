"""The four edge weightings and overlapping community detection.

One synthetic log, four views of the same follow graph: plain structure,
activity influence (transfer entropy), interaction shares (mentions and
retweets), and topic similarity (hashtag tf-idf cosine). Each weighting
feeds the greedy detector; coverings are scored against the planted truth.
"""

from qocd import (SynthConfig, batch_coarsen, covering_stats,
                  detect_communities, generate, hashtag_similarity_weights,
                  hashtag_tfidf_vectors, mention_retweet_weights,
                  mention_share_weights, nmi, orphans, retweet_share_weights,
                  structural_weights, transfer_entropy_weights)

cfg = SynthConfig(nodes=80, communities=4, bins=4000, p_in=0.35, p_out=0.03,
                  rho=0.05, epsilon=0.4, overlap_fraction=0.1, seed=21)
log, graph, truth = generate(cfg)
activity = batch_coarsen(log, graph, bin_width=cfg.bin_width)

weightings = {
    "structural": structural_weights(graph),
    "activity (TE lag 1)": transfer_entropy_weights(graph, activity, 1),
    "interaction (MR)": mention_retweet_weights(
        mention_share_weights(graph, log), retweet_share_weights(graph, log)),
    "topic (hashtags)": hashtag_similarity_weights(
        graph, hashtag_tfidf_vectors(log, graph.nodes)),
}

print(f"{'weighting':<22}{'pos.edges':>10}{'orphans':>9}"
      f"{'comms':>7}{'singles':>9}{'NMI vs truth':>14}")
for name, wg in weightings.items():
    covering = detect_communities(wg, alpha=1.0)
    stats = covering_stats(covering)
    positive = sum(1 for w in wg.weights.values() if w > 0)
    print(f"{name:<22}{positive:>10}{len(orphans(wg)):>9}"
          f"{stats['communities']:>7}{stats['singletons']:>9}"
          f"{nmi(covering, truth.covering):>14.3f}")

print("\nplanted communities:", sorted(len(c) for c in
                                       truth.covering.communities))
