"""Side-information regularizers and the refinement updates they drive.

Two pairwise-similarity sources — a modularity matrix from node topology
and a cosine similarity over attribute usage rows — are normalized and
turned into graph Laplacians over the nodes; attribute entities feel no
pull.  Their weighted sum enters a ridge-like objective whose alternating
updates have closed forms.  The sum is applied as a structured operator
in O(nnz) per column, and the entity update solves with it by
preconditioned conjugate gradients, so a round makes no n-by-n array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .embedding import EmbeddingModel, WalkMatrix
from .hetero import _mnorm_in_place
from .io import AttributedGraph

log = logging.getLogger(__name__)

_PINV_RCOND = 1e-12

# Iterations `update_x`'s conjugate gradients make before reporting
# non-convergence.  On the refine-cluster benchmark input (n = 900,
# k = 64, seed 1) they took 15-36 at lambda in {(1, 1), (10, 10), (1, 0),
# (0, 1)} and 32 at (1e6, 1e6); on the embed-sparse input, 15.
REFINE_MAX_ITERATIONS = 1000

# Relative residual ||R_j|| / ||B_j|| at which a column of the
# refinement solve stops.
_CG_TOL = 1e-13

# Rows of the sparse Gram formed at a time while looking for a node pair
# that shares no attribute.
_GRAM_BLOCK = 256


@dataclass(frozen=True)
class SideInfo:
    """The graph whose two similarity sources regularize, and their weights.

    Nothing n-by-n is stored.  q_norm and s_norm, the mnorm-ed modularity
    matrix and attribute cosine, are built densely on each access as the
    reference the tests read; no pipeline path reads them.
    `node_laplacian` is lambda1*L(q_norm) + lambda2*L(s_norm) as a
    `NodeLaplacian` operator, made from the graph without any n-by-n
    array; it is the `L` of `update_x` and `objective_value`, which read
    it as zero on the `size` - n attribute rows.
    """

    graph: AttributedGraph
    lambdas: tuple[float, float]

    @property
    def size(self) -> int:
        return self.graph.n + self.graph.m

    @property
    def q_norm(self) -> np.ndarray:
        return _mnorm_in_place(modularity_matrix(self.graph))

    @property
    def s_norm(self) -> np.ndarray:
        return _mnorm_in_place(attribute_cosine(self.graph))

    @property
    def node_laplacian(self) -> NodeLaplacian:
        return NodeLaplacian(self.graph, self.lambdas)


class NodeLaplacian:
    """L = D_T - T over the n nodes, T = lambda1*mnorm(Q) + lambda2*mnorm(S),
    held in O(nnz(A) + nnz(U)) memory.

    Q = A - d d^T / (2e) is the modularity matrix of the adjacency A with
    degrees d, and S = U U^T the cosine of the unit attribute rows U.
    Each mnorm is the rank-1 shift by the source's minimum and a scale by
    1 / (max - min), so T X costs one product with A and two with U, and
    rank-1 terms.  The extremes come from the structure: `_modularity_range`
    gives the dense `mnorm`'s exactly, `_cosine_range` to rounding.  A
    source with zero weight, or with max == min (which mnorm maps to
    zeros), contributes nothing.  D_T is T applied to the ones vector, so
    L annihilates it exactly.  Supports `L @ X` for X of n rows (one or
    two dimensions), `shape` and `diagonal()`.
    """

    def __init__(self, g: AttributedGraph, lambdas):
        lam1, lam2 = lambdas
        n = g.n
        self.shape = (n, n)
        adjacency, self._d, self._two_e = _modularity_parts(g)
        self._adjacency = sparse.csr_array(adjacency)
        self._unit = _unit_rows(g.attr_weights)
        self._unit_t = self._unit.T.tocsr()
        self._q = self._scale(lam1, _modularity_range(adjacency, self._d,
                                                      self._two_e))
        self._s = self._scale(lam2, _cosine_range(self._unit))
        self._shift = self._q[1] + self._s[1]
        self._degrees_t = self._similarity(np.ones(n))
        self._diagonal = self._degrees_t - self._similarity_diagonal()

    @staticmethod
    def _scale(lam, extremes):
        """(c, c * min) for the source's term c * (M - min) of T."""
        lo, hi = extremes
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("mnorm input must be finite")
        if lam == 0 or hi == lo:
            return 0.0, 0.0
        c = lam / (hi - lo)
        return c, c * lo

    def _similarity(self, X: np.ndarray) -> np.ndarray:
        """T X, with X of n rows."""
        c_q, c_s = self._q[0], self._s[0]
        if c_q:
            TX = self._adjacency @ X
            TX *= c_q
            TX -= np.multiply.outer(
                self._d, (c_q / self._two_e) * (self._d @ X))
        else:
            TX = np.zeros(X.shape)
        if c_s:
            UX = self._unit @ (self._unit_t @ X)
            UX *= c_s
            TX += UX
        TX -= self._shift * X.sum(axis=0)
        return TX

    def _similarity_diagonal(self) -> np.ndarray:
        """T's diagonal, from A's self-loops and the row norms of U."""
        c_q, c_s = self._q[0], self._s[0]
        self_loops = self._adjacency.diagonal()
        diag = c_q * (self_loops - self._d * self._d / self._two_e)
        if c_s:
            diag += c_s * _row_sums(self._unit.multiply(self._unit))
        diag -= self._shift
        return diag

    def diagonal(self) -> np.ndarray:
        return self._diagonal.copy()

    def __matmul__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[0] != self.shape[1]:
            raise ValueError(f"L covers {self.shape[1]} rows, "
                             f"X has {X.shape[0]}")
        degrees = self._degrees_t if X.ndim == 1 else self._degrees_t[:, None]
        TX = self._similarity(X)
        return np.subtract(degrees * X, TX, out=TX)


def _modularity_parts(g: AttributedGraph):
    """The adjacency as COO, its degrees and 2e: what the modularity
    matrix is made of.  g.e is read first: counting the edges of a CSR
    array with duplicate entries sums them in place, which would change
    the arrays a COO view taken before it shares."""
    _require_edges(g)
    two_e = 2.0 * g.e
    adjacency = g.adjacency.tocoo()
    return adjacency, _row_sums(adjacency), two_e


def _row_sums(M) -> np.ndarray:
    return np.ravel(M.sum(axis=1))


def _unit_rows(weights) -> sparse.csr_array:
    """The attribute rows scaled to unit norm; a row without a positive
    weight stays zero and stores nothing."""
    unit = sparse.csr_array(weights, dtype=float, copy=True)
    unit.sum_duplicates()
    unit.eliminate_zeros()
    norms = np.sqrt(_row_sums(unit.multiply(unit)))
    norms[norms == 0] = 1.0
    unit.data /= np.repeat(norms, np.diff(unit.indptr))
    return unit


def _modularity_range(adjacency, d, two_e):
    """(min, max) of the dense `modularity_matrix`, bit for bit, without
    forming it.

    A stored entry (an edge or a self-loop) is -fl(fl(d_i d_j) / 2e) with
    the adjacency's values added in its COO order, the dense matrix's own
    operations.  Every unstored entry, the diagonal included, is
    -fl(fl(d_i d_j) / 2e), monotone in the product, so its extremes are
    at the smallest and the largest degree product over unstored pairs.
    With the degrees ranked in ascending order, row i's unstored columns
    with the largest and the smallest degree are the highest and the
    lowest ranks its stored entries leave free; which of them gives the
    row's largest product depends on the sign of d_i.
    """
    n = adjacency.shape[0]
    row, col = adjacency.row.astype(np.int64), adjacency.col.astype(np.int64)
    keys, first = np.unique(row * n + col, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    stored = d[rows] * d[cols]
    stored /= two_e
    np.negative(stored, out=stored)
    np.add.at(stored, np.ravel(first), adjacency.data)
    lo, hi = stored.min(), stored.max()

    order = np.argsort(d, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ranks = np.sort(rows * n + rank[cols]) % n  # ascending in each row
    counts = np.bincount(rows, minlength=n)
    start = np.repeat(np.cumsum(counts) - counts, counts)
    t = np.arange(len(ranks)) - start  # position within the row
    lowest = np.bincount(rows[ranks == t], minlength=n)
    top = np.bincount(rows[ranks == n - np.repeat(counts, counts) + t],
                      minlength=n)
    free = counts < n
    if free.any():
        d_i = d[free]
        small = d[order[lowest[free]]]
        large = d[order[n - 1 - top[free]]]
        products = np.concatenate([d_i * small, d_i * large])
        lo = min(lo, -(products.max() / two_e))
        hi = max(hi, -(products.min() / two_e))
    return lo, hi


def _cosine_range(unit: sparse.csr_array):
    """(min, max) of the attribute cosine U U^T, to rounding.

    The minimum is 0 when some pair of nodes shares no attribute (a node
    without attributes shares none), and the maximum is then the largest
    squared unit norm.  Otherwise both come from the sparse Gram, formed
    `_GRAM_BLOCK` rows at a time and abandoned at the first block that
    leaves a pair out; rows that are all parallel then give equal
    extremes, as the dense cosine's constant entries do.
    """
    n = unit.shape[0]
    lo, hi = np.inf, -np.inf
    for begin in range(0, n, _GRAM_BLOCK):
        gram = unit[begin:begin + _GRAM_BLOCK] @ unit.T
        if gram.nnz < gram.shape[0] * n:
            return 0.0, float(_row_sums(unit.multiply(unit)).max())
        lo = min(lo, float(gram.data.min()))
        hi = max(hi, float(gram.data.max()))
    return lo, hi


def modularity_matrix(g: AttributedGraph) -> np.ndarray:
    """Q = A - d d^T / (2e) over nodes; every row sums to zero to rounding.

    Q is the one n-by-n array made: -d d^T / (2e) is filled in place and
    the adjacency's stored entries are added to it.
    """
    adjacency, d, two_e = _modularity_parts(g)
    Q = np.outer(d, d)
    Q /= two_e
    np.negative(Q, out=Q)
    np.add.at(Q, (adjacency.row, adjacency.col), adjacency.data)
    return Q


def attribute_cosine(g: AttributedGraph) -> np.ndarray:
    """Cosine similarity between node rows of the attribute matrix.

    A node with no attributes has zero similarity to everything, itself
    included, rather than propagating division by zero.  numpy forms
    `unit @ unit.T` by a symmetric rank-k update: it is exactly symmetric.
    """
    unit = g.attr_weights.toarray().astype(float, copy=False)
    norms = np.linalg.norm(unit, axis=1)
    unit /= np.where(norms > 0, norms, 1.0)[:, None]
    return unit @ unit.T


def _laplacian(T: np.ndarray) -> np.ndarray:
    """D_T - T, written over T, which must be an array the caller owns."""
    degrees = T.sum(axis=1)
    np.negative(T, out=T)
    T[np.diag_indices_from(T)] += degrees
    return T


def _require_edges(g: AttributedGraph) -> None:
    if g.e == 0:
        raise ValueError("modularity is undefined for an edgeless graph")


def build_side_info(g: AttributedGraph, lambdas=(1.0, 1.0)) -> SideInfo:
    """Check the weights and the graph; the sources are built on use."""
    if len(lambdas) != 2:
        raise ValueError("exactly two source weights expected")
    lam = (float(lambdas[0]), float(lambdas[1]))
    if not all(np.isfinite(x) and x >= 0 for x in lam):
        raise ValueError(f"lambdas must be finite and non-negative: {lam}")
    _require_edges(g)
    return SideInfo(graph=g, lambdas=lam)


def _penalty(X: np.ndarray, L) -> float:
    """tr(X^T L X), summed entrywise as sum(X * (L X))."""
    return float(np.sum(X * (L @ X)))


def _covered_rows(L, size: int) -> int:
    """Rows p of a square L that may cover only the leading p <= size."""
    p = L.shape[0]
    if L.shape != (p, p) or p > size:
        raise ValueError(f"L must be square and cover at most {size} rows, "
                         f"got shape {L.shape}")
    return p


def regularization_value(X: np.ndarray, T: np.ndarray) -> float:
    """Half-sum of T[i,j] * ||x_i - x_j||^2 over ordered pairs.

    Evaluated as the trace form tr(X^T (D_T - T) X) that `objective_value`
    adds; the tests cross-check it against a literal pairwise sum.
    """
    T = np.array(T, dtype=float)
    if not np.array_equal(T, T.T):
        raise ValueError("similarity matrix must be symmetric")
    return _penalty(X, _laplacian(T))


def objective_value(Z, X: np.ndarray, Y: np.ndarray, L=None) -> float:
    """||Z - X Y^T||_F^2 + tr(X_p^T L X_p), with X_p = X[:p].

    Z is dense or CSR (a `WalkMatrix.stored`).  L, a dense array or a
    `NodeLaplacian`, follows `update_x`: it may cover only the leading
    p <= size rows (the n nodes, for `SideInfo.node_laplacian`) and then
    stands for L padded with zeros.  The residual is formed 256 rows at a
    time, in each block's own product buffer, with a CSR Z's rows made
    dense one block at a time, so no size-by-size array is made.
    """
    value = 0.0
    for start in range(0, Z.shape[0], 256):
        residual = X[start:start + 256] @ Y.T
        rows = Z[start:start + 256]
        if sparse.issparse(rows):
            rows = rows.toarray()
        np.subtract(rows, residual, out=residual)
        value += float(np.vdot(residual, residual))
        del residual  # freed before the next block's product is made
    if L is not None:
        value += _penalty(X[:_covered_rows(L, Z.shape[0])], L)
    return value


def update_x(Z, Y: np.ndarray, L) -> np.ndarray:
    """Regularized update of the entity factor:
    X' = (I + L)^-1 Z Y (Y^T Y + I_k)^-1.

    Z is dense or CSR (a `WalkMatrix.stored`); Z Y is a dense or a sparse
    product accordingly.  L is a dense array or a `NodeLaplacian`: either
    is read only through `L @ X`, `shape` and `diagonal()`.

    L is a Laplacian of non-negative weights, so I + L is symmetric
    positive definite, and `_solve_shifted` applies its inverse to the k
    columns by Jacobi-preconditioned conjugate gradients.  An I + L that
    turns out not to be positive definite raises LinAlgError, and so
    does a solve that has not converged in `REFINE_MAX_ITERATIONS`.
    The k-by-k ridge system is applied by `numpy.linalg.solve`.

    L may cover only the leading p <= size rows and columns: it then
    stands for L padded with zeros, and I + L is block diagonal with an
    identity block.  Only I_p + L is solved; rows p: of the first solve
    are just (Z Y)[p:].
    """
    checked = (("Z", Z), ("Y", Y))
    if not isinstance(L, NodeLaplacian):  # that one is built finite
        checked += (("L", L),)
    for name, M in checked:
        if not _finite(M):
            raise ValueError(f"{name} contains non-finite entries")
    p = _covered_rows(L, Z.shape[0])
    k = Y.shape[1]
    left = Z @ Y
    left[:p] = _solve_shifted(L, left[:p])
    return np.linalg.solve(Y.T @ Y + np.eye(k), left.T).T


def _solve_shifted(L, B: np.ndarray) -> np.ndarray:
    """(I + L)^-1 B for a symmetric positive definite I + L.

    Conjugate gradients with the Jacobi preconditioner diag(I + L), on
    all columns of B at once, each with its own step lengths.  A column
    stops when its residual is at most `_CG_TOL` times its norm in B, and
    leaves the working set.  A diagonal entry of I + L or a curvature
    p^T (I + L) p that is not positive shows I + L is not positive
    definite.
    """
    jacobi = 1.0 + L.diagonal()
    if not np.all(jacobi > 0):
        raise np.linalg.LinAlgError(
            "refinement system I + L is not positive definite "
            f"(least diagonal entry {jacobi.min():.3e})")
    X = np.zeros(B.shape)
    cols = np.arange(B.shape[1])  # the working set
    norms = np.linalg.norm(B, axis=0)
    R = B.copy()
    W = R / jacobi[:, None]
    P = W.copy()
    rw = np.einsum("ij,ij->j", R, W)
    Xa = X
    for iteration in range(REFINE_MAX_ITERATIONS + 1):
        going = np.linalg.norm(R, axis=0) > _CG_TOL * norms
        if not going.all():
            X[:, cols] = Xa
            cols, norms = cols[going], norms[going]
            R, P, rw = R[:, going], P[:, going], rw[going]
            Xa = X[:, cols]
        if not cols.size:
            return X
        if iteration == REFINE_MAX_ITERATIONS:
            worst = float(np.max(np.linalg.norm(R, axis=0) / norms))
            raise np.linalg.LinAlgError(
                f"refinement solve failed to converge in {iteration} "
                f"iterations (relative residual {worst:.3e})")
        Q = L @ P
        Q += P
        curvature = np.einsum("ij,ij->j", P, Q)
        if not np.all(curvature > 0):
            raise np.linalg.LinAlgError(
                "refinement system I + L is not positive definite")
        alpha = rw / curvature
        Xa += alpha * P
        R -= alpha * Q
        W = R / jacobi[:, None]
        rw_next = np.einsum("ij,ij->j", R, W)
        P *= rw_next / rw
        P += W
        rw = rw_next


def update_y(Z, X: np.ndarray) -> np.ndarray:
    """Exact least-squares context factor: Y' = Z^T X (X^T X)^+, with Z
    dense or CSR."""
    if not (_finite(Z) and _finite(X)):
        raise ValueError("non-finite entries")
    return Z.T @ X @ np.linalg.pinv(X.T @ X, rcond=_PINV_RCOND)


def _finite(M) -> bool:
    """Whether every entry of M, dense or sparse, is finite."""
    return bool(np.all(np.isfinite(M.data if sparse.issparse(M) else M)))


def side_enhance(model: EmbeddingModel, walk: WalkMatrix,
                 side: SideInfo) -> EmbeddingModel:
    """Refine a factorization by one round against the regularized objective.

    The round builds the node Laplacian L once as a `NodeLaplacian`
    operator (the penalties act on node rows only), recomputes X with the
    current Y by a conjugate-gradient solve with I + L and a k-by-k
    ridge solve (`update_x`), then Y with the fresh X by the exact
    least-squares update (`update_y`).  The objective with the same L is
    logged before and after the round, and it can rise: `update_x` is the
    literal (I + L)^-1 Z Y (Y^T Y + I_k)^-1, whose X solves
    (I + L) X (Y^T Y + I_k) = Z Y, not the stationarity condition
    X Y^T Y + L X = Z Y of ||Z - X Y^T||_F^2 + tr(X_n^T L X_n).  Z is
    read in the walk's stored form; a CSR one is never made dense whole,
    and no n-by-n array is made.
    """
    size = model.vectors.shape[0]
    Z = walk.stored
    if Z.shape[0] != size:
        raise ValueError("walk matrix and model sizes disagree")
    if side.size != size:
        raise ValueError(
            f"side info covers {side.size} entities, model has {size}")
    X, Y = model.vectors, model.context
    L = side.node_laplacian
    log.info("refinement start: objective %.6e", objective_value(Z, X, Y, L))
    X = update_x(Z, Y, L)
    Y = update_y(Z, X)
    log.info("refinement round 1: objective %.6e",
             objective_value(Z, X, Y, L))
    return EmbeddingModel(vectors=X, context=Y, n=model.n,
                          node_ids=list(model.node_ids),
                          attr_ids=list(model.attr_ids))
