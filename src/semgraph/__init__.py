"""semgraph: joint node/attribute embeddings of attributed graphs.

Pipeline: an attributed graph becomes one weighted adjacency over nodes
and attributes (`build_hetero_adjacency`), whose random-walk proximity
matrix (`walk_matrix`) is symmetric and is factorized at rank k through
its k eigenpairs of largest magnitude (`factorize`, or `embed` for the
whole chain): by sparse Lanczos when k is a small fraction of its size,
by a dense symmetric eigensolver otherwise.  `side_enhance` refines the
factors with modularity and attribute-similarity regularizers, whose
node Laplacian it applies as a sparse-plus-low-rank operator and solves
with by preconditioned conjugate gradients, making no n-by-n array.
`evaluate` scores node vectors by clustering or classification, and
`describe_direct` / `describe_topics` turn communities into ranked
attribute keywords.
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
                     build_hetero_adjacency, combine_relations, mnorm,
                     motif_relations)
from .io import (AttributedGraph, EmbeddingFile, load_graph,
                 read_embeddings, write_embeddings)
from .sideinfo import (SideInfo, attribute_cosine, build_side_info,
                       modularity_matrix, objective_value,
                       regularization_value, side_enhance, update_x, update_y)
from .synthetic import attribute_block, planted_attributed_sbm

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph", "Clustering", "CommunityDescription",
    "DENSE_SIZE_CAP", "EmbeddingFile", "EmbeddingModel", "EvalReport",
    "HeteroAdjacency", "LinearClassifier", "SideInfo", "TopicDescription",
    "WalkMatrix", "accuracy", "attribute_block", "attribute_cosine",
    "attribute_similarity", "build_hetero_adjacency", "build_side_info",
    "classify", "clustering_accuracy", "combine_relations",
    "describe_direct", "describe_topics", "embed", "evaluate", "factorize",
    "format_descriptions", "kmeans", "load_graph", "macro_f1",
    "match_clusters", "mnorm", "modularity_matrix", "motif_relations",
    "nmi", "objective_value", "planted_attributed_sbm", "read_embeddings",
    "regularization_value", "side_enhance", "train_classifier", "update_x",
    "update_y", "walk_matrix", "write_embeddings",
]
