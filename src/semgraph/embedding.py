"""Random-walk proximity matrix and its truncated factorization.

The walk matrix is built by propagating column blocks through the sparse
transition matrix.  Each of its entries is computed once and written into
both triangles, so it is exactly symmetric by construction, and its best
rank-k factorization comes from the k eigenpairs of largest magnitude:
thick-restart Lanczos, written with numpy, on its sparse form when k is
a small fraction of its size, numpy's dense symmetric eigensolver
otherwise.  The walk is stored in the form that solver reads: CSR for
Lanczos, a dense array for the dense solver.  Neither solver loads
scipy.linalg or its second OpenBLAS.
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

# Restarts `_lanczos_pairs` makes before it reports non-convergence.  On
# planted walks of size 720-4496 at dim 4-64 it converged within 18.
LANCZOS_MAX_RESTARTS = 1000


def _takes_lanczos(size: int, dim: int) -> bool:
    """Whether `factorize` at rank `dim` runs Lanczos on a size-by-size Z."""
    return size >= LANCZOS_MIN_RATIO * dim


@dataclass(frozen=True)
class WalkMatrix:
    """Log-transformed average of the first `order` walk-transition powers,
    exactly symmetric, over n nodes and m = size - n attributes.

    `stored` is the matrix as built: a CSR array (sorted int32 indices,
    no stored zeros) when `factorize` is to run Lanczos on it, a dense
    array otherwise.  The package reads `stored` only.  `matrix` is a
    dense view for inspection: the stored array itself, or a fresh
    `toarray()` of the CSR, an N-by-N allocation on every access.
    """

    stored: np.ndarray | sparse.csr_array
    n: int

    @property
    def matrix(self) -> np.ndarray:
        Z = self.stored
        return Z.toarray() if sparse.issparse(Z) else Z

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
                negatives: int = 1, dim: int | None = None) -> WalkMatrix:
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
    rescaled, truncated and logged on its own.  The matrix M so computed
    is symmetric in exact arithmetic only, so only its entries on and
    below the diagonal, M[i, j] with i >= j, are kept, and entry (i, j)
    of the result is M[max(i, j), min(i, j)]: exactly symmetric by
    construction, as `factorize` requires.  Every entry goes through the
    same operations whatever the block width, so the result does not
    depend on it.

    `dim` is the rank `factorize` will be asked for.  When it is given
    and `factorize` will run Lanczos at that rank, the result is stored
    as CSR: each block adds the nonzeros of its columns on and below the
    diagonal, transposed, as rows of the upper triangle, and the strict
    upper triangle is mirrored once at the end.  Otherwise each block
    writes both triangles of a dense array, the only N-by-N array made.
    The two forms hold the same values.
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
    as_csr = dim is not None and _takes_lanczos(size, dim)
    Z = None if as_csr else np.empty((size, size))
    upper_rows = []  # CSR pieces of the upper triangle, one per block
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
        width = acc.shape[1]
        if as_csr:
            # rows start: of acc hold M[i, j] for i >= start; drop i < j
            acc[cols][np.triu_indices(width, 1)] = 0.0
            piece = sparse.csr_array(acc[start:].T)  # columns from start
            upper_rows.append(sparse.csr_array(
                (piece.data, piece.indices + start, piece.indptr),
                shape=(width, size)))
        else:
            Z[cols, start:] = acc[start:].T
            Z[start:, cols] = acc[start:]
            tile = Z[cols, cols]  # holds acc[cols]; mirror its lower triangle
            upper = np.triu_indices(width, 1)
            tile[upper] = tile.T[upper]
    if as_csr:
        # csr_array: `vstack` and `triu` return the older matrix types on
        # scipy < 1.11.
        triangle = sparse.csr_array(sparse.vstack(upper_rows, format="csr"))
        del upper_rows  # freed before the mirror is made
        # disjoint patterns: each entry of the sum is one stored value + 0
        Z = sparse.csr_array(triangle + sparse.triu(triangle, k=1).T)
    return WalkMatrix(stored=Z, n=hetero.n)


def factorize(walk: WalkMatrix, dim: int) -> EmbeddingModel:
    """Best rank-`dim` factorization of the exactly symmetric walk matrix.

    With Z = Q diag(lam) Q^T, the `dim` eigenpairs of largest |lam| give
    singular values |lam|, left vectors Q and right vectors Q * sign(lam).
    When the matrix is at least LANCZOS_MIN_RATIO times larger than
    `dim`, only those pairs are computed, by thick-restart Lanczos
    (`_lanczos_pairs`, ARPACK's method and settings in numpy) on the
    sparse (CSR) matrix from a fixed-seed start vector; otherwise dense
    `eigh` computes all pairs.  Both give the same factors to rounding.
    Each solver reads the walk's stored form
    when it is the one it needs (the form `walk_matrix` builds for this
    `dim`); any other form is converted.  Both factors are scaled by the
    square root of the kept singular values; the right one is the left
    one times sign(lam).  Column signs make positive the first entry of
    each left column within 1e-9 relative of its largest magnitude, so
    entries tied in magnitude (structurally symmetric entities) cannot
    flip a column under rounding.  `eigh` reads only one triangle, so a
    matrix that is not exactly symmetric is rejected; a CSR one is
    compared with its transpose on the stored entries.
    """
    Z = walk.stored
    size = Z.shape[0]
    if not 1 <= dim <= size:
        raise ValueError(f"dim must be in [1, {size}], got {dim}")
    symmetric = ((Z != Z.T).nnz == 0 if sparse.issparse(Z)
                 else np.array_equal(Z, Z.T))
    if not symmetric:
        raise ValueError("walk matrix must be exactly symmetric")
    if _takes_lanczos(size, dim):
        lam, Q = _lanczos_pairs(sparse.csr_array(Z), dim)
    else:
        lam, Q = _dense_pairs(Z.toarray() if sparse.issparse(Z) else Z)
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
    """All eigenpairs of the dense Z, by `eigh`."""
    try:
        return np.linalg.eigh(Z)
    except np.linalg.LinAlgError as exc:
        raise _not_converged(Z) from exc


def _lanczos_pairs(Z, dim):
    """The `dim` eigenpairs of largest magnitude of the symmetric CSR Z.

    Thick-restart (Krylov-Schur) Lanczos, which computes what ARPACK's
    implicitly restarted Lanczos does, with its settings: a fixed-seed
    start vector, NCV = min(size, max(2 dim + 1, 20)) basis vectors, and
    Ritz pair i taken as converged when its residual estimate
    |beta * s_i| is at most eps * max(|theta_i|, eps^(2/3)).  Each new
    vector is orthogonalized against the whole basis by classical
    Gram-Schmidt, twice.  Each restart keeps the dim + min(nconv,
    (NCV - dim) // 2) Ritz vectors of largest |theta|, nconv being how
    many of the wanted ones have converged, and the residual direction.
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
        start = dim + min(nconv, (ncv - dim) // 2)
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
    """The solver's error, with the norm and finiteness of Z read from its
    stored values, dense or CSR."""
    size = Z.shape[0]
    values = Z.data if sparse.issparse(Z) else Z
    return np.linalg.LinAlgError(
        f"factorization failed to converge on a {size}x{size} matrix "
        f"(norm {np.linalg.norm(values):.3e}, "
        f"finite={np.all(np.isfinite(values))})")


def embed(g: AttributedGraph, dim: int = 64, order: int = 4,
          negatives: int = 1, deltas=(1.0, 1.0, 1.0),
          weighted_motifs: bool = False,
          size_cap: int = DENSE_SIZE_CAP) -> EmbeddingModel:
    """Full pipeline: combined adjacency, walk matrix, factorization."""
    hetero = build_hetero_adjacency(g, deltas=deltas,
                                    weighted_motifs=weighted_motifs,
                                    size_cap=size_cap)
    walk = walk_matrix(hetero, order=order, negatives=negatives, dim=dim)
    del hetero  # B is not read past the walk
    model = factorize(walk, dim)
    model.node_ids = list(g.node_ids)
    if model.m == g.m:
        model.attr_ids = list(g.attr_ids)
    return model
