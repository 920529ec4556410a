"""Random-walk proximity matrix and its truncated factorization.

The walk matrix is symmetric, so its best rank-k factorization comes from
the k eigenpairs of largest magnitude (a dense symmetric eigensolver).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hetero import DENSE_SIZE_CAP, HeteroAdjacency, build_hetero_adjacency
from .io import AttributedGraph


@dataclass(frozen=True)
class WalkMatrix:
    """Log-transformed average of the first `order` walk-transition powers."""

    matrix: np.ndarray
    volume: float
    degrees: np.ndarray
    n: int
    m: int
    order: int
    negatives: int


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
    below the sampling threshold vanish instead of diverging.  The result
    is symmetric in exact arithmetic; it is symmetrized so it is exactly
    symmetric in floating point too, as `factorize` requires.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    B = hetero.matrix
    degrees = B.sum(axis=1)
    if np.any(degrees <= 0):
        raise ValueError("every entity must have positive degree")
    volume = float(degrees.sum())

    transition = B / degrees[:, None]
    power = transition
    acc = transition.copy()
    for _ in range(order - 1):
        power = power @ transition
        acc += power

    scaled = (volume / (order * negatives)) * acc / degrees[None, :]
    Z = np.log(np.maximum(scaled, 1.0))
    Z = (Z + Z.T) / 2.0  # exact symmetry despite BLAS rounding
    return WalkMatrix(matrix=Z, volume=volume, degrees=degrees,
                      n=hetero.n, m=hetero.m, order=order,
                      negatives=negatives)


def factorize(walk: WalkMatrix, dim: int) -> EmbeddingModel:
    """Best rank-`dim` factorization of the exactly symmetric walk matrix.

    Dense `eigh` gives Z = Q diag(lam) Q^T; the `dim` eigenpairs of
    largest |lam| give singular values |lam|, left vectors Q and right
    vectors Q * sign(lam).  Left and right factors are both scaled by the
    square root of the kept singular values; column signs are fixed so
    the largest-magnitude entry of each left singular vector is positive,
    making output reproducible.  `eigh` reads only one triangle, so a
    matrix that is not exactly symmetric is rejected.
    """
    Z = walk.matrix
    size = Z.shape[0]
    if not 1 <= dim <= size:
        raise ValueError(f"dim must be in [1, {size}], got {dim}")
    if not np.array_equal(Z, Z.T):
        raise ValueError("walk matrix must be exactly symmetric")
    try:
        lam, Q = np.linalg.eigh(Z)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"factorization failed to converge on a {size}x{size} matrix "
            f"(norm {np.linalg.norm(Z):.3e}, "
            f"finite={np.all(np.isfinite(Z))})") from exc
    keep = np.argsort(-np.abs(lam), kind="stable")[:dim]
    lam, U = lam[keep], Q[:, keep]
    s = np.abs(lam)
    Vt = (U * np.where(lam < 0, -1.0, 1.0)[None, :]).T

    anchor = np.argmax(np.abs(U), axis=0)
    signs = np.where(U[anchor, np.arange(dim)] < 0, -1.0, 1.0)
    U = U * signs[None, :]
    Vt = Vt * signs[:, None]

    root = np.sqrt(s)
    return EmbeddingModel(vectors=U * root[None, :],
                          context=Vt.T * root[None, :], n=walk.n)


def embed(g: AttributedGraph, dim: int = 64, order: int = 4,
          negatives: int = 1, deltas=(1.0, 1.0, 1.0),
          weighted_motifs: bool = False, attr_similarity: bool = True,
          size_cap: int = DENSE_SIZE_CAP) -> EmbeddingModel:
    """Full pipeline: combined adjacency, walk matrix, factorization."""
    hetero = build_hetero_adjacency(g, deltas=deltas,
                                    weighted_motifs=weighted_motifs,
                                    attr_similarity=attr_similarity,
                                    size_cap=size_cap)
    model = factorize(walk_matrix(hetero, order=order, negatives=negatives),
                      dim)
    model.node_ids = list(g.node_ids)
    if model.m == g.m:
        model.attr_ids = list(g.attr_ids)
    return model
