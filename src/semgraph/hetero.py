"""Construction of the auxiliary heterogeneous weighted graph.

The combined graph places the original nodes and their attributes side by
side as entities; its weighted adjacency has the original topology in the
top-left block, normalized node-attribute relations off-diagonal, and
normalized attribute-attribute similarity in the bottom-right block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .io import AttributedGraph

DENSE_SIZE_CAP = 20_000


def mnorm(matrix) -> np.ndarray:
    """Rescale all entries jointly onto [0, 1] by the global min and max.

    A constant matrix (max == min) maps to all zeros: a constant block
    carries no relational signal.
    """
    return _mnorm_in_place(np.array(matrix, dtype=float))


def _mnorm_in_place(matrix: np.ndarray) -> np.ndarray:
    """`mnorm` that overwrites and returns its own float array."""
    if matrix.size == 0:
        return matrix
    if not np.all(np.isfinite(matrix)):
        raise ValueError("mnorm input must be finite")
    lo, hi = matrix.min(), matrix.max()
    if hi == lo:
        matrix.fill(0.0)
    else:
        matrix -= lo
        matrix /= hi - lo
    return matrix


def attribute_similarity(attr_weights) -> np.ndarray:
    """Normalized attribute-attribute similarity from shared node memberships.

    Columns are compared by cosine similarity, the resulting matrix is
    symmetrically scaled by its row sums, and the scaled matrix is mapped
    onto [0, 1] with mnorm.  numpy forms the product of an array with its
    own transpose by a symmetric rank-k update, so the Gram matrix is
    exactly symmetric, and so is its scaling by outer(scale, scale).
    """
    R0 = _to_dense(attr_weights)
    m = R0.shape[1]
    if m == 0:
        return np.zeros((0, 0))
    norms = np.linalg.norm(R0, axis=0)
    if np.any(norms == 0):
        raise ValueError("attribute column with zero norm")
    cols = R0 / norms
    gram = cols.T @ cols
    scale = 1.0 / np.sqrt(gram.sum(axis=1))
    gram *= np.outer(scale, scale)
    return _mnorm_in_place(gram)


def motif_relations(attr_weights, weighted: bool = False):
    """Co-occurrence counts of each (node, attribute) pair in the two
    higher-order motifs: two nodes sharing an attribute, and one node
    carrying two attributes.

    With weighted=True each count is multiplied by the pair's own weight,
    giving the cumulative-weight reading instead of the instance count.
    """
    R0 = _to_dense(attr_weights)
    support = (R0 > 0).astype(float)
    shared_nodes = support * (support.sum(axis=0)[None, :] - 1.0)
    shared_attrs = support * (support.sum(axis=1)[:, None] - 1.0)
    if weighted:
        shared_nodes = shared_nodes * R0
        shared_attrs = shared_attrs * R0
    return shared_nodes, shared_attrs


def combine_relations(R0, R1, R2, deltas) -> np.ndarray:
    """Blend the three relation matrices into one normalized block.

    Each input is mnorm-ed individually, combined with the delta weights,
    and the combination is mnorm-ed again.  The weighted parts are summed
    in place, one at a time.
    """
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) != 3 or not all(np.isfinite(d) and d >= 0 for d in deltas):
        raise ValueError(f"need three finite nonnegative deltas: {deltas}")
    combined = mnorm(_to_dense(R0))
    combined *= deltas[0]
    for d, R in zip(deltas[1:], (R1, R2)):
        part = mnorm(_to_dense(R))
        part *= d
        combined += part
        del part  # freed before the next part is made
    return _mnorm_in_place(combined)


@dataclass(frozen=True)
class HeteroAdjacency:
    """Symmetric weighted adjacency B over n node and m attribute entities.

    B is stored once, as a CSR array; its three blocks are sparse slices
    of it (copies): the topology B[:n, :n], the node-attribute relations
    B[:n, n:] and the attribute-attribute similarity B[n:, n:].
    """

    matrix: sparse.csr_array
    n: int

    @property
    def m(self) -> int:
        return self.matrix.shape[0] - self.n

    @property
    def adjacency_block(self) -> sparse.csr_array:
        return self.matrix[:self.n, :self.n]

    @property
    def relation_block(self) -> sparse.csr_array:
        return self.matrix[:self.n, self.n:]

    @property
    def similarity_block(self) -> sparse.csr_array:
        return self.matrix[self.n:, self.n:]


def build_hetero_adjacency(g: AttributedGraph, deltas=(1.0, 1.0, 1.0),
                           weighted_motifs: bool = False,
                           size_cap: int = DENSE_SIZE_CAP) -> HeteroAdjacency:
    """Assemble the combined entity adjacency from an attributed graph.

    A graph with no attribute columns gives B = A, the plain topology;
    `dataclasses.replace(g, attr_weights=sparse.csr_array((g.n, 0)),
    attr_ids=[])` is the topology-only ablation of `g`.  Attribute
    entities are also dropped when every relation and similarity weight
    is zero.  Entities left without any relation are rejected because
    the downstream random walk divides by entity degrees.

    B is assembled once, as CSR, from the sparse adjacency and the dense
    n-by-m relation and m-by-m similarity blocks; it keeps the nonzeros
    of each block, and no (n+m)-square dense array is made.
    """
    n, m = g.n, g.m
    if n + m > size_cap:
        raise ValueError(
            f"dense construction over {n + m} entities exceeds the size cap "
            f"of {size_cap}; raise size_cap explicitly to proceed")
    R0 = _to_dense(g.attr_weights)
    sim = attribute_similarity(R0)
    R1, R2 = motif_relations(R0, weighted=weighted_motifs)
    rel = combine_relations(R0, R1, R2, deltas)
    del R0, R1, R2
    if not rel.any() and not sim.any():
        # No attributes, or no weight on the attribute side (say, all-zero
        # deltas and a single attribute, whose 1-by-1 similarity block
        # mnorm zeroes): attribute entities are dropped, not left isolated.
        rel, sim = rel[:, :0], sim[:0, :0]

    # csr_array: `bmat` returns the older matrix type on scipy < 1.11.
    B = sparse.csr_array(sparse.bmat([[g.adjacency, rel], [rel.T, sim]],
                                     format="csr"))
    degrees = B.sum(axis=1)
    if np.any(degrees == 0):
        i = int(np.argmin(degrees))
        name = (f"node {g.node_ids[i]!r}" if i < n
                else f"attribute {g.attr_ids[i - n]!r}")
        raise ValueError(f"{name} is isolated in the combined graph")

    return HeteroAdjacency(matrix=B, n=n)


def _to_dense(matrix) -> np.ndarray:
    if sparse.issparse(matrix):
        return matrix.toarray().astype(float, copy=False)
    return np.asarray(matrix, dtype=float)
