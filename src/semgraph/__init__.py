"""semgraph: joint node/attribute embeddings of attributed graphs.

Pipeline: an attributed graph becomes one weighted adjacency over nodes
and attributes (`build_hetero_adjacency`: the topology, the attribute
weights blended with their `motif_relations` counts, and the attributes'
similarity), whose random-walk proximity matrix (`walk_matrix`) is
symmetric, stored as CSR, and factorized at rank k through its k
eigenpairs of largest magnitude by sparse Lanczos (`factorize`, or
`embed` for the whole chain).  `side_enhance` refines the
factors with modularity and attribute-similarity regularizers, whose
node Laplacian L it applies as a sparse-plus-low-rank operator; it
solves with I + L by preconditioned conjugate gradients and makes no
n-by-n array.
`evaluate` scores node vectors by clustering or classification, and
`describe_direct` / `describe_topics` turn communities into ranked
attribute keywords.  `semgraph.reference` holds the slow, dense forms
the fast paths are checked against; no pipeline module imports it.
"""

from .describe import (CommunityDescription, TopicDescription,
                       describe_direct, describe_topics,
                       format_descriptions)
from .embedding import EmbeddingModel, WalkMatrix, embed, factorize, \
    walk_matrix
from .evaluation import (Clustering, EvalReport, LinearClassifier, accuracy,
                         classify, clustering_accuracy, evaluate, kmeans,
                         macro_f1, match_clusters, nmi, train_classifier)
from .hetero import (DENSE_SIZE_CAP, HeteroAdjacency, attribute_similarity,
                     build_hetero_adjacency, motif_relations)
from .io import (AttributedGraph, EmbeddingFile, load_graph,
                 read_embeddings, write_embeddings)
from .sideinfo import (SideInfo, build_side_info, objective_value,
                       side_enhance, update_x, update_y)
from .synthetic import attribute_block, planted_attributed_sbm

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph", "Clustering", "CommunityDescription",
    "DENSE_SIZE_CAP", "EmbeddingFile", "EmbeddingModel", "EvalReport",
    "HeteroAdjacency", "LinearClassifier", "SideInfo", "TopicDescription",
    "WalkMatrix", "accuracy", "attribute_block", "attribute_similarity",
    "build_hetero_adjacency", "build_side_info", "classify",
    "clustering_accuracy", "describe_direct",
    "describe_topics", "embed", "evaluate", "factorize",
    "format_descriptions", "kmeans", "load_graph", "macro_f1",
    "match_clusters", "motif_relations", "nmi", "objective_value",
    "planted_attributed_sbm", "read_embeddings", "side_enhance",
    "train_classifier", "update_x", "update_y", "walk_matrix",
    "write_embeddings",
]
