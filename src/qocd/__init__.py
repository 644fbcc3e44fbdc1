"""Question-oriented community detection toolkit.

Builds activity-, interaction-, and topic-weighted directed networks on top
of a follower graph, detects overlapping communities on each, and compares
the resulting coverings and their edge-weight structure.
"""

__version__ = "0.1.0"

from .activity import ActivityMatrix, batch_coarsen
from .communities import (Covering, covering_stats, detect_communities,
                          read_covering, write_covering)
from .compare import nmi, nmi_matrix
from .edgestats import (EDGE_CLASSES, conditional_weights, partition_edges,
                        size_ccdf)
from .infotheory import (EntropyEstimate, pairwise_transfer_entropy,
                         plugin_entropy, transfer_entropy)
from .ingest import (EventLog, StructuralGraph, count_information_events,
                     filter_active, giant_scc, information_flow, parse_events,
                     read_events, read_follow_edges, write_follow_edges)
from .synth import PlantedTruth, SynthConfig, generate
from .weighting import (WeightedDigraph, cosine,
                        hashtag_similarity_weights, hashtag_tfidf_vectors,
                        mention_retweet_weights, mention_share_weights,
                        orphans, retweet_share_weights, structural_weights,
                        transfer_entropy_weights)

__all__ = [
    "ActivityMatrix", "Covering", "EDGE_CLASSES", "EntropyEstimate",
    "EventLog", "PlantedTruth", "StructuralGraph", "SynthConfig",
    "WeightedDigraph", "batch_coarsen", "conditional_weights",
    "count_information_events", "cosine", "covering_stats",
    "detect_communities", "filter_active", "generate", "giant_scc",
    "hashtag_similarity_weights", "hashtag_tfidf_vectors", "information_flow",
    "mention_retweet_weights", "mention_share_weights", "nmi", "nmi_matrix",
    "orphans", "pairwise_transfer_entropy", "parse_events", "partition_edges",
    "plugin_entropy", "read_covering", "read_events", "read_follow_edges",
    "retweet_share_weights", "size_ccdf", "structural_weights",
    "transfer_entropy", "transfer_entropy_weights", "write_covering",
    "write_follow_edges",
]
