"""Random-walk proximity matrix and its truncated factorization.

The walk matrix is built by propagating column blocks through the sparse
transition matrix.  Each of its entries is computed once and written into
both triangles, so it is exactly symmetric by construction, and its best
rank-k factorization comes from the k eigenpairs of largest magnitude:
implicitly restarted Lanczos (ARPACK) on its sparse form when k is a
small fraction of its size, a dense symmetric eigensolver otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .hetero import DENSE_SIZE_CAP, HeteroAdjacency, build_hetero_adjacency
from .io import AttributedGraph

# `factorize` uses Lanczos when size >= LANCZOS_MIN_RATIO * dim, dense
# `eigh` otherwise.  On planted graphs of size 720-3000 at dim 32-128,
# Lanczos was 1.7x-5.4x faster at every size/dim >= 22.5; at size/dim
# <= 16.6 it was up to 2.3x slower, or within 0.02 s.
LANCZOS_MIN_RATIO = 20

# Width of the column blocks `walk_matrix` propagates.  Z does not depend
# on it.  On planted graphs of size 720-3000, widths 64 and 128 were
# fastest and 16 or 512 up to 1.7x slower (grid in CHANGES.md); 64 keeps
# the three N-by-width buffers smaller.
WALK_BLOCK = 64


@dataclass(frozen=True)
class WalkMatrix:
    """Log-transformed average of the first `order` walk-transition powers,
    exactly symmetric, over n nodes and m = size - n attributes."""

    matrix: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return self.matrix.shape[0] - self.n


@dataclass
class EmbeddingModel:
    """Factor matrices over node and attribute entities.

    `vectors` (the left factor) is the final embedding; rows 0..n are node
    vectors and rows n..n+m attribute vectors. `context` is the right factor
    kept for the refinement updates.  Only what cannot be derived is
    stored: `dim` and `m` are read off the shape of `vectors`.
    """

    vectors: np.ndarray
    context: np.ndarray
    n: int
    node_ids: list[str] = field(default_factory=list)
    attr_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.node_ids:
            self.node_ids = [str(i) for i in range(self.n)]
        if not self.attr_ids:
            self.attr_ids = [str(w) for w in range(self.m)]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[0] - self.n

    @property
    def node_vectors(self) -> np.ndarray:
        return self.vectors[:self.n]

    @property
    def attr_vectors(self) -> np.ndarray:
        return self.vectors[self.n:]


def walk_matrix(hetero: HeteroAdjacency, order: int = 4,
                negatives: int = 1) -> WalkMatrix:
    """Build the proximity matrix factored by skip-gram style embeddings.

    Averages the first `order` powers of the degree-normalized adjacency,
    rescales by graph volume, inverse degrees and the negative-sampling
    count, and applies the truncated logarithm log(max(., 1)) so entries
    below the sampling threshold vanish instead of diverging.

    B is read in its CSR form only: the transition matrix is a CSR copy
    of it with each row divided by its degree.  The powers are propagated
    over column blocks of WALK_BLOCK columns: the first power of a block
    is its columns of the transition matrix made dense, and each later
    power is the transition matrix times the previous one.  Each block is
    rescaled, truncated and logged on its own; the result is the only
    N-by-N array made.  The matrix M so computed is symmetric in exact
    arithmetic only, so each block writes its entries on and below the
    diagonal, M[i, j] with i >= j, into both triangles: entry (i, j) of
    the result is M[max(i, j), min(i, j)], exactly symmetric by
    construction, as `factorize` requires.  Every entry goes through the
    same operations whatever the block width, so the result does not
    depend on it.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    transition = sparse.csr_array(hetero.matrix, copy=True)
    degrees = transition.sum(axis=1)
    if np.any(degrees <= 0):
        raise ValueError("every entity must have positive degree")
    volume = float(degrees.sum())

    transition.data /= np.repeat(degrees, np.diff(transition.indptr))
    scale = volume / (order * negatives)
    size = transition.shape[0]
    Z = np.empty((size, size))
    for start in range(0, size, WALK_BLOCK):
        cols = slice(start, start + WALK_BLOCK)
        acc = transition[:, cols].toarray()
        power = acc  # read before acc is first updated
        for _ in range(order - 1):
            power = transition @ power
            acc += power
        acc *= scale
        acc /= degrees[None, cols]
        np.maximum(acc, 1.0, out=acc)
        np.log(acc, out=acc)
        Z[cols, start:] = acc[start:].T
        Z[start:, cols] = acc[start:]
        tile = Z[cols, cols]  # holds acc[cols]; mirror its lower triangle
        upper = np.triu_indices(tile.shape[0], 1)
        tile[upper] = tile.T[upper]
    return WalkMatrix(matrix=Z, n=hetero.n)


def factorize(walk: WalkMatrix, dim: int) -> EmbeddingModel:
    """Best rank-`dim` factorization of the exactly symmetric walk matrix.

    With Z = Q diag(lam) Q^T, the `dim` eigenpairs of largest |lam| give
    singular values |lam|, left vectors Q and right vectors Q * sign(lam).
    When the matrix is at least LANCZOS_MIN_RATIO times larger than
    `dim`, only those pairs are computed, by implicitly restarted Lanczos
    (ARPACK `eigsh`) on the sparse (CSR) matrix from a fixed-seed start
    vector; otherwise dense `eigh` computes all pairs.  Both give the
    same factors to rounding.  Both factors are scaled by the square
    root of the kept singular values; the right one is the left one
    times sign(lam).  Column signs make positive the first entry of each
    left column within 1e-9 relative of its largest magnitude, so entries
    tied in magnitude (structurally symmetric entities) cannot flip a
    column under rounding.  `eigh` reads only one triangle, so a matrix
    that is not exactly symmetric is rejected.
    """
    Z = walk.matrix
    size = Z.shape[0]
    if not 1 <= dim <= size:
        raise ValueError(f"dim must be in [1, {size}], got {dim}")
    if not np.array_equal(Z, Z.T):
        raise ValueError("walk matrix must be exactly symmetric")
    if size >= LANCZOS_MIN_RATIO * dim:
        lam, Q = _lanczos_pairs(Z, dim)
    else:
        lam, Q = _dense_pairs(Z)
    keep = np.argsort(-np.abs(lam), kind="stable")[:dim]
    lam, U = lam[keep], Q[:, keep]

    magnitude = np.abs(U)
    near_max = magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0)
    anchor = np.argmax(near_max, axis=0)
    U *= np.sign(U[anchor, np.arange(dim)])

    vectors = U * np.sqrt(np.abs(lam))
    return EmbeddingModel(vectors=vectors, context=vectors * np.sign(lam),
                          n=walk.n)


def _dense_pairs(Z):
    """All eigenpairs of Z, by dense `eigh`."""
    try:
        return np.linalg.eigh(Z)
    except np.linalg.LinAlgError as exc:
        raise _not_converged(Z) from exc


def _lanczos_pairs(Z, dim):
    """The `dim` eigenpairs of Z of largest magnitude, by ARPACK on CSR."""
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    size = Z.shape[0]
    csr = sparse.csr_array(Z)
    if csr.nnz == 0:  # ARPACK rejects a start vector that Z maps to zero
        return np.zeros(dim), np.eye(size, dim)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, size)
    try:
        return eigsh(csr, k=dim, which="LM", v0=v0)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise _not_converged(Z) from exc


def _not_converged(Z):
    size = Z.shape[0]
    return np.linalg.LinAlgError(
        f"factorization failed to converge on a {size}x{size} matrix "
        f"(norm {np.linalg.norm(Z):.3e}, finite={np.all(np.isfinite(Z))})")


def embed(g: AttributedGraph, dim: int = 64, order: int = 4,
          negatives: int = 1, deltas=(1.0, 1.0, 1.0),
          weighted_motifs: bool = False,
          size_cap: int = DENSE_SIZE_CAP) -> EmbeddingModel:
    """Full pipeline: combined adjacency, walk matrix, factorization."""
    hetero = build_hetero_adjacency(g, deltas=deltas,
                                    weighted_motifs=weighted_motifs,
                                    size_cap=size_cap)
    model = factorize(walk_matrix(hetero, order=order, negatives=negatives),
                      dim)
    model.node_ids = list(g.node_ids)
    if model.m == g.m:
        model.attr_ids = list(g.attr_ids)
    return model
