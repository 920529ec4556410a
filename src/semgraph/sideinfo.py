"""Side-information regularizers and the refinement updates they drive.

Two pairwise-similarity sources — a modularity matrix from node topology
and a cosine similarity over attribute usage rows — are normalized and
turned into graph Laplacians over the nodes; attribute entities feel no
pull.  Their weighted sum enters a ridge-like objective whose alternating
updates have closed forms.
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


@dataclass(frozen=True)
class SideInfo:
    """The graph whose two similarity sources regularize, and their weights.

    Nothing n-by-n is stored.  q_norm and s_norm, the mnorm-ed modularity
    matrix and attribute cosine, are built on each access, and so is
    `node_laplacian` = lambda1*L(q_norm) + lambda2*L(s_norm), with at most
    two n-by-n arrays alive; it is the `L` of `update_x` and
    `objective_value`, which read it as zero on the `size` - n attribute
    rows.
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
    def node_laplacian(self) -> np.ndarray:
        lam1, lam2 = self.lambdas
        # s first, so its n-by-m temporaries are freed before q is made
        S, T = self.s_norm, self.q_norm
        T *= lam1
        S *= lam2
        T += S
        return _laplacian(T)


def modularity_matrix(g: AttributedGraph) -> np.ndarray:
    """Q = A - d d^T / (2e) over nodes; every row sums to zero to rounding.

    Q is the one n-by-n array made: -d d^T / (2e) is filled in place and
    the adjacency's stored entries are added to it.
    """
    _require_edges(g)
    adjacency = g.adjacency.tocoo()
    d = adjacency.sum(axis=1)
    Q = np.outer(d, d)
    Q /= 2.0 * g.e
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


def _penalty(X: np.ndarray, L: np.ndarray) -> float:
    """tr(X^T L X), summed entrywise as sum(X * (L X))."""
    return float(np.sum(X * (L @ X)))


def _covered_rows(L: np.ndarray, size: int) -> int:
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


def objective_value(Z, X: np.ndarray, Y: np.ndarray,
                    L: np.ndarray | None = None) -> float:
    """||Z - X Y^T||_F^2 + tr(X_p^T L X_p), with X_p = X[:p].

    Z is dense or CSR (a `WalkMatrix.stored`).  L follows `update_x`: it
    may cover only the leading p <= size rows (the n nodes, for
    `SideInfo.node_laplacian`) and then stands for L padded with zeros.
    The residual is formed 256 rows at a time, in each block's own
    product buffer, with a CSR Z's rows made dense one block at a time,
    so no size-by-size array is made.
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


def update_x(Z, Y: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Regularized update of the entity factor:
    X' = (I + L)^-1 Z Y (Y^T Y + I_k)^-1.

    Z is dense or CSR (a `WalkMatrix.stored`); Z Y is a dense or a sparse
    product accordingly.

    L is a Laplacian of non-negative weights, so I + L is symmetric and
    strictly diagonally dominant: its LU factorization with partial
    pivoting swaps no rows and its growth factor is at most 2.  Each
    system is applied by `numpy.linalg.solve` instead of an explicit
    inverse.  A singular I + L raises LinAlgError; an indefinite but
    nonsingular one is solved without complaint, which cannot happen for
    a Laplacian of non-negative weights.

    L may cover only the leading p <= size rows and columns: it then
    stands for L padded with zeros, and I + L is block diagonal with an
    identity block.  Only I_p + L is solved; rows p: of the first solve
    are just (Z Y)[p:].
    """
    for name, M in (("Z", Z), ("Y", Y), ("L", L)):
        if not _finite(M):
            raise ValueError(f"{name} contains non-finite entries")
    p = _covered_rows(L, Z.shape[0])
    k = Y.shape[1]
    system = np.eye(p)
    system += L
    left = Z @ Y
    left[:p] = np.linalg.solve(system, left[:p])
    return np.linalg.solve(Y.T @ Y + np.eye(k), left.T).T


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

    The round builds the n-by-n `side.node_laplacian` L once (the
    penalties act on node rows only), recomputes X with the current Y by
    two dense linear solves (`update_x`), then Y with the fresh X by the exact
    least-squares update (`update_y`).  The objective with the same L is
    logged before and after the round, and it can rise: `update_x` is the
    literal (I + L)^-1 Z Y (Y^T Y + I_k)^-1, whose X solves
    (I + L) X (Y^T Y + I_k) = Z Y, not the stationarity condition
    X Y^T Y + L X = Z Y of ||Z - X Y^T||_F^2 + tr(X_n^T L X_n).  Z is
    read in the walk's stored form; a CSR one is never made dense whole.
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
