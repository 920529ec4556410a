"""Construction of the auxiliary heterogeneous weighted graph.

The combined graph places the original nodes and their attributes side by
side as entities; its weighted adjacency has the original topology in the
top-left block, normalized node-attribute relations off-diagonal, and
normalized attribute-attribute similarity in the bottom-right block.  The
relations blend the attribute weights with their two motif counts; both
blocks, and the refinement's unit attribute rows, start from `_support`,
and both are mnorm-ed on their stored values: no dense array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .io import AttributedGraph

DENSE_SIZE_CAP = 20_000


def _mnorm_in_place(values: np.ndarray, full: bool) -> np.ndarray:
    """mnorm of a nonnegative matrix on its stored values: rescale them
    jointly onto [0, 1] by the matrix's min and max, in place.

    The minimum is the values' own when they cover every entry (`full`),
    and otherwise 0, the entries left out.  A constant matrix (max ==
    min) maps to all zeros: a constant block carries no signal.
    """
    if values.size == 0:
        return values
    if not np.all(np.isfinite(values)):
        raise ValueError("mnorm input must be finite")
    lo = values.min() if full else 0.0
    hi = values.max()
    if hi == lo:
        values.fill(0.0)
    else:
        values -= lo
        values /= hi - lo
    return values


def attribute_similarity(attr_weights) -> sparse.csr_array:
    """Normalized attribute-attribute similarity from shared node memberships.

    Columns are compared by cosine similarity, the resulting matrix is
    symmetrically scaled by its row sums, and the scaled matrix is mapped
    onto [0, 1] with mnorm.  The cosine is the sparse Gram of the unit
    columns, `_unit_rows` of the transposed weights; scipy sums its (i, j)
    and (j, i) entries over the shared nodes in one ascending order, as
    `_support` sorts the indices, so the Gram is exactly symmetric, and
    so is its scaling: entry (i, j) is multiplied by scale[i] * scale[j].
    All is done on the Gram's canonical CSR, without stored zeros.
    """
    unit = _unit_rows(sparse.csr_array(attr_weights).T)
    sim = unit @ unit.T
    sim.sum_duplicates()  # canonical: sorted indices
    if np.any(sim.diagonal() == 0):
        raise ValueError("attribute column with zero norm")
    scale = 1.0 / np.sqrt(sim.sum(axis=1))
    sim.data *= np.repeat(scale, np.diff(sim.indptr)) * scale[sim.indices]
    _mnorm_in_place(sim.data, sim.nnz == sim.shape[0] * sim.shape[1])
    sim.eliminate_zeros()
    return sim


def motif_relations(attr_weights, weighted: bool = False):
    """Co-occurrence counts of each (node, attribute) pair in the two
    higher-order motifs: two nodes sharing an attribute, and one node
    carrying two attributes.

    With weighted=True each count is multiplied by the pair's own weight,
    giving the cumulative-weight reading instead of the instance count.

    A pair with zero weight is in no motif, so both counts are CSR arrays
    on the support of the weights (their positive entries), the pattern
    `build_hetero_adjacency` blends them on; they share no buffers.  A zero
    count on the support is stored; `.toarray()` gives the dense counts.
    """
    R0 = _support(attr_weights)
    nodes_per_attr = np.bincount(R0.indices, minlength=R0.shape[1])
    attrs_per_node = np.diff(R0.indptr)
    shared_nodes = nodes_per_attr[R0.indices] - 1.0
    shared_attrs = np.repeat(attrs_per_node - 1.0, attrs_per_node)
    if weighted:
        shared_nodes *= R0.data
        shared_attrs *= R0.data
    return tuple(sparse.csr_array((counts, R0.indices.copy(),
                                   R0.indptr.copy()), shape=R0.shape)
                 for counts in (shared_nodes, shared_attrs))


def _relation_block(attr_weights, deltas, weighted: bool) -> sparse.csr_array:
    """`build_hetero_adjacency`'s relation block.

    The weights R0, their motif counts R1, R2 and the blend are zero off
    the support of the weights (their positive entries), so the work is
    done on their values there, the weighted parts summed in place one at
    a time: while the support leaves an entry out, every minimum mnorm
    takes is 0 and it is x / max; when it covers every entry, the minimum
    is the least value on it.  The result is a CSR array without stored
    zeros, bit-identical to the blend of the dense matrices.
    """
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) != 3 or not all(np.isfinite(d) and d >= 0 for d in deltas):
        raise ValueError(f"need three finite nonnegative deltas: {deltas}")
    R0 = _support(attr_weights)
    R1, R2 = motif_relations(attr_weights, weighted)
    full = R0.nnz == R0.shape[0] * R0.shape[1]
    blend = _mnorm_in_place(R0.data, full)
    blend *= deltas[0]
    for d, part in zip(deltas[1:], (R1.data, R2.data)):
        _mnorm_in_place(part, full)
        part *= d
        blend += part
    _mnorm_in_place(blend, full)
    R0.eliminate_zeros()
    return R0


def _support(weights) -> sparse.csr_array:
    """Canonical CSR copy of nonnegative weights with zeros dropped: its
    pattern is the set of positive entries."""
    R = sparse.csr_array(weights, dtype=float, copy=True)
    R.sum_duplicates()
    R.eliminate_zeros()
    if np.any(R.data < 0):
        raise ValueError("attribute weights must be nonnegative")
    return R


def _unit_rows(weights) -> sparse.csr_array:
    """The `_support` of the weights with each row scaled to unit norm; a
    row without a positive weight stays zero and stores nothing."""
    unit = _support(weights)
    norms = np.sqrt(np.ravel(unit.multiply(unit).sum(axis=1)))
    norms[norms == 0] = 1.0
    unit.data /= np.repeat(norms, np.diff(unit.indptr))
    return unit


@dataclass(frozen=True)
class HeteroAdjacency:
    """Symmetric weighted adjacency B over n node and m attribute entities.

    B is stored once, as a CSR array, in blocks: the topology B[:n, :n],
    the node-attribute relations B[:n, n:] and their transpose B[n:, :n],
    and the attribute-attribute similarity B[n:, n:].
    """

    matrix: sparse.csr_array
    n: int

    @property
    def m(self) -> int:
        return self.matrix.shape[0] - self.n


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

    The relation block is mnorm(d0 mnorm(R0) + d1 mnorm(R1) + d2 mnorm(R2))
    of the attribute weights R0 and their `motif_relations` counts, for
    `deltas` (d0, d1, d2) three finite nonnegative numbers.

    B is assembled once, as CSR, from the sparse adjacency, the sparse
    n-by-m relation block (built on the support of the attribute weights)
    and the sparse m-by-m similarity block (on the pairs of attributes
    sharing a node); it keeps the nonzeros of each block.
    """
    n, m = g.n, g.m
    if n + m > size_cap:
        raise ValueError(
            f"a combined graph of {n + m} entities exceeds the size cap "
            f"of {size_cap}; raise size_cap explicitly to proceed")
    sim = attribute_similarity(g.attr_weights)
    rel = _relation_block(g.attr_weights, deltas, weighted_motifs)
    if not rel.nnz and not sim.nnz:
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
