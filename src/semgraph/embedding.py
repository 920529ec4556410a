"""Random-walk proximity matrix and its truncated factorization.

The walk matrix is built by propagating column blocks through the sparse
transition matrix and stored as CSR.  Each of its entries is computed
once and written into both triangles, so it is exactly symmetric by
construction, and its best rank-k factorization comes from the k
eigenpairs of largest magnitude: thick-restart Lanczos, written with
numpy, on that CSR matrix.  Only those k pairs are computed, so no dense
N-by-N array and no LAPACK workspace of that size is made, and
scipy.linalg with its second OpenBLAS is never loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .hetero import HeteroAdjacency, build_hetero_adjacency
from .io import AttributedGraph

# Width of the column blocks `walk_matrix` propagates.  Z does not depend
# on it.  On planted graphs of size 720-3000, widths 64 and 128 were
# fastest and 16 or 512 up to 1.7x slower (grid in CHANGES.md); 64 keeps
# the three N-by-width buffers smaller.
WALK_BLOCK = 64

# Restarts `_lanczos_pairs` makes before it reports non-convergence.  On
# planted walks of size 720-4496 at dim 4-64 it converged within 18.
LANCZOS_MAX_RESTARTS = 1000


@dataclass(frozen=True)
class WalkMatrix:
    """Log-transformed average of the first `order` walk-transition powers,
    exactly symmetric, over n nodes and m = size - n attributes.

    `stored` is the matrix as a canonical CSR array: sorted indices, no
    duplicate entries, no stored zeros.  Construction makes any other
    input (dense, or sparse in another form) so on a copy, leaving the
    caller's arrays untouched, and raises ValueError unless the matrix
    is finite and equals its transpose entry for entry.  In canonical form a CSR
    matrix has one representation, and so has its transpose converted to
    CSR, so the two are compared by their index and value arrays.
    `matrix` is a dense copy for inspection and diagnostics, a fresh
    N-by-N allocation on every access.
    """

    stored: sparse.csr_array
    n: int

    def __post_init__(self):
        Z = self.stored
        if not (isinstance(Z, sparse.csr_array) and Z.has_canonical_format
                and np.count_nonzero(Z.data) == Z.data.size):
            Z = sparse.csr_array(Z, copy=True)
            Z.sum_duplicates()
            Z.eliminate_zeros()
            object.__setattr__(self, "stored", Z)
        if not np.all(np.isfinite(Z.data)):  # NaN would read as asymmetric
            raise ValueError("walk matrix contains non-finite entries")
        T = Z.T.tocsr()
        if not (np.array_equal(Z.indptr, T.indptr)
                and np.array_equal(Z.indices, T.indices)
                and np.array_equal(Z.data, T.data)):
            raise ValueError("walk matrix must be exactly symmetric")

    @property
    def matrix(self) -> np.ndarray:
        return self.stored.toarray()

    @property
    def m(self) -> int:
        return self.stored.shape[0] - self.n


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
    power is the transition matrix times the previous one.  The matrix M
    so computed is symmetric in exact arithmetic only, so only its
    entries on and below the diagonal, M[i, j] with i >= j, are kept, and
    entry (i, j) of the result is M[max(i, j), min(i, j)]: exactly
    symmetric by construction, as `WalkMatrix` checks.  A block starting
    at column `start` therefore needs rows `start:` only of its last
    power, and only those rows are computed, rescaled, truncated and
    logged.  Each kept entry goes through the same operations whatever
    the block width, so the result does not depend on it.

    The result is stored as CSR: each block adds the nonzeros of its
    columns on and below the diagonal, transposed, as rows of the upper
    triangle U, and Z is made once at the end as the entrywise max(U, U^T).
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
    upper_rows = []  # CSR pieces of the upper triangle, one per block
    for start in range(0, size, WALK_BLOCK):
        cols = slice(start, start + WALK_BLOCK)
        acc = transition[:, cols].toarray()
        power = acc  # read before acc is first updated
        for _ in range(order - 2):
            power = transition @ power
            acc += power
        acc = acc[start:]  # rows start: hold M[i, j] for i >= start
        if order > 1:
            acc += transition[start:] @ power
        acc *= scale
        acc /= degrees[None, cols]
        np.maximum(acc, 1.0, out=acc)
        np.log(acc, out=acc)
        width = acc.shape[1]
        acc[:width][np.triu_indices(width, 1)] = 0.0  # drop i < j
        piece = sparse.csr_array(acc.T)  # columns from start
        upper_rows.append(sparse.csr_array(
            (piece.data, piece.indices + start, piece.indptr),
            shape=(width, size)))
    # csr_array: `vstack` returns the older matrix type on scipy < 1.11.
    triangle = sparse.csr_array(sparse.vstack(upper_rows, format="csr"))
    del upper_rows  # freed before the mirror is made
    # exact: the two patterns meet only on the diagonal, with equal values
    # there, and every stored value is log x > 0, above an unstored zero
    Z = sparse.csr_array(triangle.maximum(triangle.T))
    del triangle
    return WalkMatrix(stored=Z, n=hetero.n)


def factorize(walk: WalkMatrix, dim: int) -> EmbeddingModel:
    """Best rank-`dim` factorization of the exactly symmetric walk matrix.

    With Z = Q diag(lam) Q^T, the `dim` eigenpairs of largest |lam| give
    singular values |lam|, left vectors Q and right vectors Q * sign(lam).
    Only those pairs are computed, by thick-restart Lanczos
    (`_lanczos_pairs`, ARPACK's method and settings in numpy) on the
    walk's CSR matrix from a fixed-seed start vector; Lanczos assumes
    the exact symmetry the walk checked when it was made.  Both factors
    are scaled by the square root of the singular values; the right one
    is the left one times sign(lam).  Column signs make positive the first
    entry of each left column within 1e-9 relative of its largest
    magnitude, so entries tied in magnitude (structurally symmetric
    entities) cannot flip a column under rounding.
    """
    Z = walk.stored
    size = Z.shape[0]
    if not 1 <= dim <= size:
        raise ValueError(f"dim must be in [1, {size}], got {dim}")
    lam, U = _lanczos_pairs(Z, dim)  # in order of decreasing |lam|

    magnitude = np.abs(U)
    near_max = magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0)
    anchor = np.argmax(near_max, axis=0)
    U *= np.sign(U[anchor, np.arange(dim)])

    vectors = U * np.sqrt(np.abs(lam))
    return EmbeddingModel(vectors=vectors, context=vectors * np.sign(lam),
                          n=walk.n)


def _lanczos_pairs(Z, dim):
    """The `dim` eigenpairs of largest magnitude of the symmetric CSR Z.

    Thick-restart (Krylov-Schur) Lanczos, which computes what ARPACK's
    implicitly restarted Lanczos does, with its settings: a fixed-seed
    start vector, NCV = min(size, max(2 dim + 1, 20)) basis vectors, and
    Ritz pair i taken as converged when its residual estimate
    |beta * s_i| is at most eps * max(|theta_i|, eps^(2/3)).  Each new
    vector is orthogonalized against the whole basis by classical
    Gram-Schmidt, twice.  Each restart keeps the residual direction and
    the dim + min(nconv, (NCV - dim) // 2) Ritz vectors of largest
    |theta|, nconv being how many of the wanted ones have converged,
    extended by each next one whose error interval, |theta - lambda| <=
    |beta * s_i|, overlaps the last one's, so that copies of one
    eigenvalue stay together; one basis vector is always left free.
    When the basis spans an invariant subspace (beta negligible against
    |Z v|), the basis continues from a fresh random vector orthogonal to
    it, drawn from the start vector's generator.  Pairs come in order of
    decreasing |theta|.
    """
    size = Z.shape[0]
    ncv = min(size, max(2 * dim + 1, 20))
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    V = np.zeros((ncv + 1, size))  # rows: the basis, then the residual
    T = np.zeros((ncv, ncv))  # Z projected on the basis
    v0 = rng.uniform(-1.0, 1.0, size)
    V[0] = v0 / np.linalg.norm(v0)
    start, norm_z = 0, 0.0  # norm_z: largest |Z v| seen, a bound <= ||Z||
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for j in range(start, ncv):
            w = Z @ V[j]
            norm_z = max(norm_z, float(np.linalg.norm(w)))
            basis = V[:j + 1]
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = basis @ w
                w -= h @ basis
                T[j, j] += h[j]
            beta = float(np.linalg.norm(w))
            if j + 1 == size:  # the basis spans the whole space
                beta = 0.0
            elif beta > eps * norm_z:
                V[j + 1] = w / beta
            else:  # the basis spans an invariant subspace
                beta = 0.0
                V[j + 1] = _orthonormal_to(basis,
                                           rng.uniform(-1.0, 1.0, size))
            if j + 1 < ncv:
                T[j, j + 1] = T[j + 1, j] = beta
        try:
            theta, S = np.linalg.eigh(T)
        except np.linalg.LinAlgError as exc:
            raise _not_converged(Z) from exc
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, S = theta[order], S[:, order]
        # Z (V^T S) = (V^T S) diag(theta) + V[ncv] (outer) coupling
        coupling = beta * S[-1]
        floor = eps * np.maximum(np.abs(theta[:dim]), eps ** (2.0 / 3.0))
        nconv = int(np.count_nonzero(np.abs(coupling[:dim]) <= floor))
        if nconv == dim:
            return theta[:dim], V[:ncv].T @ S[:, :dim]
        start = last = dim + min(nconv, (ncv - dim) // 2)
        # a cut through copies of one eigenvalue can stall the solver:
        # also keep each next Ritz value whose error interval
        # (|theta - lambda| <= |coupling|) overlaps that of the last one
        # kept above
        while (start < ncv - 1 and abs(theta[last - 1] - theta[start])
               <= abs(coupling[last - 1]) + abs(coupling[start])):
            start += 1
        V[:start] = S[:, :start].T @ V[:ncv]
        V[start] = V[ncv]
        T[:] = 0.0
        T[:start, :start] = np.diag(theta[:start])
        T[start, :start] = T[:start, start] = coupling[:start]
    raise _not_converged(Z)


def _orthonormal_to(basis, x):
    """x made orthogonal to the orthonormal rows of `basis` by classical
    Gram-Schmidt, twice, and normalized."""
    for _ in range(2):
        x -= (basis @ x) @ basis
    return x / np.linalg.norm(x)


def _not_converged(Z):
    """The solver's error, with the norm of the CSR Z's stored values."""
    size = Z.shape[0]
    return np.linalg.LinAlgError(
        f"factorization failed to converge on a {size}x{size} matrix "
        f"(norm {np.linalg.norm(Z.data):.3e})")


def embed(g: AttributedGraph, dim: int = 64,
          order: int = 4) -> EmbeddingModel:
    """Full pipeline: combined adjacency, walk matrix, factorization, each
    with its defaults but for `dim` and `order` (the CLI's flags set all).
    A `dim` below 1 is rejected before anything is built."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    hetero = build_hetero_adjacency(g)
    walk = walk_matrix(hetero, order=order)
    del hetero  # B is not read past the walk
    model = factorize(walk, dim)
    model.node_ids = list(g.node_ids)
    model.attr_ids = list(g.attr_ids[:model.m])  # all of g's, or none
    return model
