"""Slow, literal reference implementations: the one home of the oracles
that both `semgraph selftest` and the test suite check the fast paths
against.

Everything here trades speed for obviousness: walk proximity is assembled
power by power from the definition, motif counts come from explicit
instance enumeration, the combined graph is a dense block layout whose
similarity block is summed entry by entry, the refinement's similarity
sources and their Laplacian are dense n-by-n arrays, the best matching
of a table comes from trying every permutation, and random instances
are drawn edge by edge.  The production code paths must agree with
these on random inputs, so this module imports nothing from the rest
of semgraph: a shared helper would let one bug pass both sides of the
comparison.  Only `selftest` imports it; no pipeline module does.
"""

from __future__ import annotations

import itertools

import numpy as np


def walk_oracle(B, order, negatives):
    """Literal power sum: volume * mean of transition powers * D^-1 / b,
    truncated log."""
    B = np.asarray(B, dtype=float)
    size = B.shape[0]
    d = np.array([B[i].sum() for i in range(size)])
    vol = d.sum()
    P = np.diag(1.0 / d) @ B
    total = np.zeros((size, size))
    current = np.eye(size)
    for _ in range(order):
        current = current @ P
        total = total + current
    M = vol * (total / order) @ np.diag(1.0 / d) / negatives
    Z = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            Z[i, j] = np.log(M[i, j]) if M[i, j] > 1.0 else 0.0
    return Z


def motif_enumeration(R0):
    """Count actual motif instances: every two-carrier pair on one
    attribute, every two-attribute pair on one carrier."""
    R0 = np.asarray(R0)
    n, m = R0.shape
    R1 = np.zeros((n, m))
    R2 = np.zeros((n, m))
    for w in range(m):
        carriers = [i for i in range(n) if R0[i, w] > 0]
        for i, j in itertools.combinations(carriers, 2):
            R1[i, w] += 1
            R1[j, w] += 1
    for i in range(n):
        carried = [w for w in range(m) if R0[i, w] > 0]
        for w, s in itertools.combinations(carried, 2):
            R2[i, w] += 1
            R2[i, s] += 1
    return R1, R2


def mnorm(M):
    """Entries rescaled jointly onto [0, 1] by the global min and max; a
    constant or empty matrix maps to zeros."""
    M = np.asarray(M, dtype=float)
    if not M.size or M.max() == M.min():
        return np.zeros(M.shape)
    return (M - M.min()) / (M.max() - M.min())


def similarity_oracle(R0):
    """Column cosine -> symmetric degree scaling -> mnorm, by the book."""
    R0 = np.asarray(R0, dtype=float)
    m = R0.shape[1]
    P0 = np.zeros((m, m))
    for w in range(m):
        for s in range(m):
            nw = np.sqrt((R0[:, w] ** 2).sum())
            ns = np.sqrt((R0[:, s] ** 2).sum())
            P0[w, s] = (R0[:, w] * R0[:, s]).sum() / (nw * ns)
    d = P0.sum(axis=1)
    P = np.zeros((m, m))
    for w in range(m):
        for s in range(m):
            P[w, s] = P0[w, s] / np.sqrt(d[w] * d[s])
    return mnorm(P)


def assemble_b(A, R0, deltas, weighted=False):
    """Full block assembly of the combined graph from the definitions:
    [[A, rel], [rel^T, sim]] with rel = mnorm(d0 mnorm(R0) + d1 mnorm(R1)
    + d2 mnorm(R2)) and sim the `similarity_oracle`."""
    A = np.asarray(A, dtype=float)
    R0 = np.asarray(R0, dtype=float)
    n, m = R0.shape
    R1, R2 = motif_enumeration(R0)
    if weighted:
        R1 = R1 * R0
        R2 = R2 * R0
    combined = (deltas[0] * mnorm(R0)
                + deltas[1] * mnorm(R1)
                + deltas[2] * mnorm(R2))
    Rt = mnorm(combined)
    Pt = similarity_oracle(R0)
    B = np.zeros((n + m, n + m))
    B[:n, :n] = A
    B[:n, n:] = Rt
    B[n:, :n] = Rt.T
    B[n:, n:] = Pt
    return B


def modularity_matrix(A):
    """Q = A - d d^T / 2e, with d the row sums of A and 2e their total."""
    A = np.asarray(A, dtype=float)
    d = A.sum(axis=1)
    return A - np.outer(d, d) / d.sum()


def attribute_cosine(W):
    """Cosine between the rows of W; a zero row has cosine 0 with every
    row, itself included."""
    W = np.asarray(W, dtype=float)
    norms = np.linalg.norm(W, axis=1)
    unit = W / np.where(norms > 0, norms, 1.0)[:, None]
    return unit @ unit.T


def laplacian(T):
    """D_T - T, with D_T the diagonal of T's row sums."""
    return np.diag(T.sum(axis=1)) - T


def regularization_value(X, T):
    """tr(X^T (D_T - T) X) for a symmetric T: half the sum of
    T[i, j] ||x_i - x_j||^2 over ordered pairs."""
    T = np.asarray(T, dtype=float)
    if not np.array_equal(T, T.T):
        raise ValueError("similarity matrix must be symmetric")
    return float(np.sum(X * (laplacian(T) @ X)))


def max_matching_bruteforce(table):
    """Largest total of min(rows, cols) cells of a nonnegative table, no
    two in one row or column: every permutation of the zero-padded square."""
    table = np.asarray(table, dtype=float)
    size = max(table.shape)
    square = np.zeros((size, size))
    square[:table.shape[0], :table.shape[1]] = table
    best = 0.0
    for perm in itertools.permutations(range(size)):
        best = max(best, sum(square[i, perm[i]] for i in range(size)))
    return best


def random_connected_graph(rng, max_n=8, max_m=5):
    """(A, R0) with connected topology and fully-carried binary columns."""
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    A = np.zeros((n, n))
    order = rng.permutation(n)
    for pos in range(1, n):
        anchor = order[int(rng.integers(pos))]
        A[order[pos], anchor] = A[anchor, order[pos]] = 1.0
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            A[i, j] = A[j, i] = 1.0
    R0 = (rng.random((n, m)) < 0.4).astype(float)
    for w in range(m):
        if R0[:, w].sum() == 0:
            R0[int(rng.integers(n)), w] = 1.0
    return A, R0
