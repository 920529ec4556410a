"""Slow, literal reference implementations: the one home of the oracles
that both `semgraph selftest` and the test suite check the fast paths
against.

Everything here trades speed for obviousness: walk proximity is assembled
power by power from the definition, motif counts come from explicit
instance enumeration, and random instances are drawn edge by edge.  The
production code paths must agree with these on random inputs, so this
module imports nothing from the rest of semgraph: a shared helper would
let one bug pass both sides of the comparison.
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
