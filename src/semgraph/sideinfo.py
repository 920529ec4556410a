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
from .hetero import _unit_rows
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

# Rows of the cosine's sparse Gram, or of the objective's residual, at once.
_GRAM_BLOCK = 256


@dataclass(frozen=True)
class SideInfo:
    """The graph whose two similarity sources regularize, and their weights.

    Nothing n-by-n is stored.  `node_laplacian` is the weighted sum of
    the two sources' Laplacians as a `NodeLaplacian` operator, made from
    the graph on each access; it is the `L` of `update_x` and
    `objective_value`, which read it as zero on the attribute rows past
    the n nodes.  `semgraph.reference` holds the dense sources it is
    checked against.  Construction alone checks that there are exactly two
    finite, nonnegative lambdas, stored as floats, and that the graph has
    an edge if lambda1 > 0, for modularity; it raises ValueError otherwise.
    """

    graph: AttributedGraph
    lambdas: tuple[float, float]

    def __post_init__(self):
        if len(self.lambdas) != 2:
            raise ValueError("exactly two source weights expected")
        lam = (float(self.lambdas[0]), float(self.lambdas[1]))
        if not all(np.isfinite(x) and x >= 0 for x in lam):
            raise ValueError(f"lambdas must be finite and non-negative: {lam}")
        if lam[0] and self.graph.e == 0:
            raise ValueError("modularity is undefined for an edgeless graph")
        object.__setattr__(self, "lambdas", lam)

    @property
    def node_laplacian(self) -> NodeLaplacian:
        return NodeLaplacian(self.graph, self.lambdas)


class NodeLaplacian:
    """L = D_T - T over the n nodes, T = lambda1*mnorm(Q) + lambda2*mnorm(S),
    held in O(nnz(A) + nnz(U)) memory.

    Q = A - d d^T / (2e) is the modularity matrix of the adjacency A with
    degrees d, and S = U U^T the cosine of the unit attribute rows U.
    A is the graph's checked 0/1 adjacency, whose diagonal is zero, so
    Q's diagonal is -d_i^2 / 2e.
    Each mnorm is the rank-1 shift by the source's minimum and a scale by
    1 / (max - min), so T X costs one product with A and two with U, and
    rank-1 terms.  The extremes come from the structure: `_modularity_range`
    gives the dense `mnorm`'s exactly, `_cosine_range` to rounding.  A
    source with zero weight, or with max == min (which mnorm maps to
    zeros), contributes nothing, and lambda1 = 0 needs no edge.  D_T is T
    applied to the ones vector, so L annihilates it exactly.  Supports
    `L @ X` for X of n rows (one or two dimensions), `shape`, `diagonal()`.
    Its graph and lambdas are the ones `SideInfo` checked; it checks neither.
    """

    def __init__(self, g: AttributedGraph, lambdas):
        lam1, lam2 = lambdas
        n = g.n
        self.shape = (n, n)
        self._adjacency = g.adjacency
        self._d = _row_sums(self._adjacency)
        self._two_e = self._d.sum()
        self._unit = _unit_rows(g.attr_weights)
        self._q = (self._scale(lam1, _modularity_range(self._adjacency))
                   if lam1 else (0.0, 0.0))  # Q is 0/0 without an edge
        self._s = self._scale(lam2, _cosine_range(self._unit))
        self._shift = self._q[1] + self._s[1]
        self._degrees_t = self._similarity(np.ones(n))
        self._diagonal = self._degrees_t - self._similarity_diagonal()

    @staticmethod
    def _scale(lam, extremes):
        """(c, c * min) for the source's term c * (M - min) of T."""
        lo, hi = extremes
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
            UX = self._unit @ (self._unit.T @ X)
            UX *= c_s
            TX += UX
        TX -= self._shift * X.sum(axis=0)
        return TX

    def _similarity_diagonal(self) -> np.ndarray:
        """T's diagonal, from the degrees (A's diagonal is zero) and the
        row norms of U."""
        c_q, c_s = self._q[0], self._s[0]
        diag = (c_q * (0.0 - self._d * self._d / self._two_e) if c_q
                else np.zeros(self.shape[0]))
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


def _row_sums(M) -> np.ndarray:
    return np.ravel(M.sum(axis=1))


def _modularity_range(adjacency: sparse.csr_array):
    """(min, max) of the dense modularity matrix A - d d^T / 2e of the
    adjacency A, with degrees d and 2e their total, bit for bit, without
    forming it.

    The adjacency is the canonical CSR array of a checked graph with an
    edge: its entries are 0 or 1, none on the diagonal, so the degrees
    are nonnegative and 2e > 0.  A stored entry is fl(a_ij - fl(fl(d_i
    d_j) / 2e)), the dense matrix's own operations.  Every unstored entry
    is fl(0 - fl(fl(d_i d_j) / 2e)), as a stored zero is, and falls as
    the product d_i d_j grows.  Over all pairs that product is least at
    d_min^2 and largest at d_max^2, both on the diagonal, which holds no
    edge: those two diagonal entries are the unstored extremes.
    """
    d = _row_sums(adjacency)
    two_e = d.sum()
    stored = np.repeat(d, np.diff(adjacency.indptr)) * d[adjacency.indices]
    stored /= two_e
    np.subtract(adjacency.data, stored, out=stored)
    squares = np.square([d.max(), d.min()])
    squares /= two_e
    lo, hi = np.subtract(0.0, squares)
    return min(stored.min(), lo), max(stored.max(), hi)


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


def build_side_info(g: AttributedGraph, lambdas=(1.0, 1.0)) -> SideInfo:
    """The checked `SideInfo` of g; the sources are built on use."""
    return SideInfo(g, lambdas)


def _covered_rows(L, size: int) -> int:
    """Rows p of a square L that may cover only the leading p <= size."""
    p = L.shape[0]
    if L.shape != (p, p) or p > size:
        raise ValueError(f"L must be square and cover at most {size} rows, "
                         f"got shape {L.shape}")
    return p


def objective_value(Z, X: np.ndarray, Y: np.ndarray, L=None) -> float:
    """||Z - X Y^T||_F^2 + tr(X_p^T L X_p), with X_p = X[:p].

    Z is read as a CSR array (a `WalkMatrix.stored` is one; anything else
    is converted first).  L, a dense array or a `NodeLaplacian`, follows
    `update_x`: it may cover only the leading p <= size rows (the n
    nodes, for `SideInfo.node_laplacian`) and then stands for L padded
    with zeros.  The residual is formed `_GRAM_BLOCK` rows at a time, in
    each block's own product buffer, into which Z's stored entries of
    those rows are added, so no size-by-size array is made.
    """
    Z = sparse.csr_array(Z)
    value = 0.0
    size = Z.shape[0]
    for start in range(0, size, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, size)
        residual = X[start:stop] @ Y.T
        np.negative(residual, out=residual)  # -X Y^T + Z: Z - X Y^T
        span = slice(Z.indptr[start], Z.indptr[stop])
        at = np.repeat(np.arange(stop - start) * Z.shape[1],
                       np.diff(Z.indptr[start:stop + 1]))
        at += Z.indices[span]
        np.add.at(residual.ravel(), at, Z.data[span])
        del at
        value += float(np.vdot(residual, residual))
        del residual  # freed before the next block's product is made
    if L is not None:
        X_p = X[:_covered_rows(L, size)]
        value += float(np.sum(X_p * (L @ X_p)))  # tr(X_p^T L X_p)
    return value


def update_x(Z, Y: np.ndarray, L) -> np.ndarray:
    """Regularized update of the entity factor:
    X' = (I + L)^-1 Z Y (Y^T Y + I_k)^-1.

    Z is read as a CSR array (a `WalkMatrix.stored` is one; anything else
    is converted first), so Z Y is a sparse product.  L is a dense array
    or a `NodeLaplacian`: either is read only through `L @ X`, `shape`
    and `diagonal()`.

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
    Z = sparse.csr_array(Z)
    checked = (("Z", Z.data), ("Y", Y))
    if not isinstance(L, NodeLaplacian):  # that one is built finite
        checked += (("L", L),)
    for name, M in checked:
        if not np.all(np.isfinite(M)):
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
    read as a CSR array."""
    Z = sparse.csr_array(Z)
    if not (np.all(np.isfinite(Z.data)) and np.all(np.isfinite(X))):
        raise ValueError("non-finite entries")
    return Z.T @ X @ np.linalg.pinv(X.T @ X, rcond=_PINV_RCOND)


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
    read in the walk's stored CSR form, never made dense whole, and no
    n-by-n array is made.  The side info's graph must have the
    model's n nodes, and may have attributes the model's build dropped.
    """
    size = model.vectors.shape[0]
    Z = walk.stored
    if Z.shape[0] != size:
        raise ValueError("walk matrix and model sizes disagree")
    if side.graph.n != model.n:
        raise ValueError(
            f"side info covers {side.graph.n} nodes, model has {model.n}")
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
