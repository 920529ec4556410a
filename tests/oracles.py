"""Independent brute-force implementations used to cross-check the package.

Every computation is written from the definitions, the slow way, so
agreement with the fast paths is meaningful.  The oracles that
`semgraph selftest` also runs (`walk_oracle`, `motif_enumeration`,
`max_matching_bruteforce`, `random_connected_graph`, the dense block
assembly of the combined graph `assemble_b` with its `similarity_oracle`,
and the dense refinement sources `mnorm`, `modularity_matrix`,
`attribute_cosine` and `laplacian`) live once, in `semgraph.reference`,
and are re-exported from there, with `regularization_value`, the dense
penalty the objective's term is checked against.  That module imports
nothing else from semgraph, and no pipeline module imports it
(`tests/test_reference.py` checks both), so it stays as independent of
the fast paths as the code below.  `max_matching_lapjv` keeps scipy's
solver as a second reference for tables too large to enumerate; nothing
in semgraph imports it.
"""

from collections import Counter

import numpy as np
from scipy import sparse

from semgraph.reference import (  # noqa: F401  (re-exported oracles)
    assemble_b, attribute_cosine, laplacian, max_matching_bruteforce, mnorm,
    modularity_matrix, motif_enumeration, random_connected_graph,
    regularization_value, similarity_oracle, walk_oracle)


# ---------------------------------------------------------- inputs

def symmetry_cases():
    """Attribute matrices, by name, for the exact-symmetry checks of
    `attribute_similarity` and the attribute cosine: small edge shapes, a
    Fortran-ordered array, Gram products large enough for blocked BLAS
    kernels, and weights with every entry positive."""
    rng = np.random.default_rng(12)
    weights = rng.uniform(0.1, 5.0, (300, 40)) * (rng.random((300, 40)) < 0.2)
    weights[0, weights.sum(axis=0) == 0] = 1.0  # no zero-norm column
    bare = weights.copy()
    bare[7] = 0.0
    bare[8, bare.sum(axis=0) == 0] = 1.0
    return {"one attribute": rng.random((9, 1)) + 0.1,
            "one node": rng.random((1, 6)) + 0.1,
            "fortran order": np.asfortranarray(weights),
            "non-binary weights": weights,
            "node without attributes": bare,
            "full support": rng.uniform(0.1, 1.0, (6, 4))}


def stored_twice(A):
    """A's entries each stored twice, as 0.25 and 0.75 of their value: a
    CSR array that is not in canonical form."""
    edges = sparse.csr_array(A)
    rows = [slice(a, b) for a, b in zip(edges.indptr[:-1], edges.indptr[1:])]
    cols = np.concatenate([np.tile(edges.indices[r], 2) for r in rows])
    values = np.concatenate([np.r_[0.25 * edges.data[r],
                                   0.75 * edges.data[r]] for r in rows])
    return sparse.csr_array((values, cols, 2 * edges.indptr), shape=A.shape)


# ------------------------------------------------------------ side info

def pairwise_penalty(X, T):
    """Literal half-sum of T[i,j] * squared row distance."""
    X = np.asarray(X, dtype=float)
    total = 0.0
    for i in range(X.shape[0]):
        for j in range(X.shape[0]):
            diff = X[i] - X[j]
            total += T[i, j] * float(diff @ diff)
    return 0.5 * total


def pinv_by_svd(M, tol=1e-12):
    """Hand-rolled pseudo-inverse, independent of np.linalg.pinv."""
    U, s, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    keep = s > (tol * s[0] if s.size else 0.0)
    inv = np.zeros((M.shape[1], M.shape[0]))
    for i in np.flatnonzero(keep):
        inv += np.outer(Vt[i], U[:, i]) / s[i]
    return inv


def regularized_x_oracle(Z, Y, L):
    """Literal dense evaluation of the regularized X update formula."""
    size = Z.shape[0]
    k = Y.shape[1]
    return (pinv_by_svd(np.eye(size) + L) @ Z @ Y
            @ pinv_by_svd(Y.T @ Y + np.eye(k)))


def objective_grad_x(Z, X, Y, L=None):
    """Analytic gradient in X of ||Z - X Y^T||^2 + tr(X^T L X), L symmetric;
    checked against `numeric_grad` by criterion 5."""
    G = 2.0 * (X @ (Y.T @ Y) - Z @ Y)
    if L is not None:
        G = G + 2.0 * L @ X
    return G


def objective_grad_y(Z, X, Y):
    """Analytic gradient in Y of ||Z - X Y^T||^2."""
    return 2.0 * (Y @ (X.T @ X) - Z.T @ X)


def numeric_grad(f, X, step=1e-6):
    """Central differences with per-entry magnitude-scaled steps."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        h = step * max(1.0, abs(X[idx]))
        up = X.copy()
        up[idx] += h
        down = X.copy()
        down[idx] -= h
        G[idx] = (f(up) - f(down)) / (2.0 * h)
    return G


# --------------------------------------------------------------- k-means

def _pp_centers(points, k, rng):
    # distance-weighted seeding: first uniform, rest proportional to D^2
    N = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(N)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(N, p=d2 / total)
        else:
            idx = rng.integers(N)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _sqdist(points, centers, sq_norms):
    """Squared distances; sq_norms is (points ** 2).sum(axis=1)."""
    d2 = sq_norms[:, None] \
        - 2.0 * points @ centers.T \
        + (centers ** 2).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0)


def kmeans_per_restart(points, k, seed, restarts=10, max_iter=300):
    """`semgraph.kmeans` one restart at a time, as it was written before
    the restarts were batched: seeding and Lloyd alternate per restart,
    each center is the mean of its members, and a restart settles when
    its assignment repeats the last one or the one before.  Returns the
    best restart's (assignment, centers, inertia) and the count of
    restarts that stopped at max_iter, which the package logs instead."""
    points = np.asarray(points, dtype=float)
    N = points.shape[0]
    sq_norms = (points ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    unconverged = 0
    for _ in range(restarts):
        centers = _pp_centers(points, k, rng)
        assignment = previous = None
        for _ in range(max_iter):
            d2 = _sqdist(points, centers, sq_norms)
            new_assignment = np.argmin(d2, axis=1)
            counts = np.bincount(new_assignment, minlength=k)
            while (counts == 0).any():
                empty = int(np.flatnonzero(counts == 0)[0])
                big = int(np.argmax(counts))
                members = np.flatnonzero(new_assignment == big)
                victim = members[np.argmax(d2[members, big])]
                new_assignment[victim] = empty
                counts[big] -= 1
                counts[empty] += 1
            # settled: the assignment repeats the last one or the one
            # before, and would only cycle from here
            if any(a is not None and np.array_equal(new_assignment, a)
                   for a in (assignment, previous)):
                break
            previous, assignment = assignment, new_assignment
            for j in range(k):
                centers[j] = points[assignment == j].mean(axis=0)
        else:
            unconverged += 1
        d2 = _sqdist(points, centers, sq_norms)
        inertia = float(d2[np.arange(N), assignment].sum())
        if best is None or inertia < best[2]:
            best = (assignment.copy(), centers.copy(), inertia)
    return best, unconverged


# --------------------------------------------------------------- metrics

def nmi_oracle(a, b):
    a = list(a)
    b = list(b)
    n = len(a)
    ca = Counter(a)
    cb = Counter(b)
    cab = Counter(zip(a, b))
    if len(cab) == len(ca) == len(cb):
        return 1.0  # bijective relabeling
    ha = -sum((c / n) * np.log(c / n) for c in ca.values())
    hb = -sum((c / n) * np.log(c / n) for c in cb.values())
    if ha == 0 or hb == 0:
        return 0.0
    info = sum((c / n) * np.log((c / n) / ((ca[x] / n) * (cb[y] / n)))
               for (x, y), c in cab.items())
    return min(1.0, max(0.0, info / ((ha + hb) / 2)))


def max_matching_lapjv(table):
    """Row and column indices of a maximum-weight matching of min(rows,
    cols) pairs, from scipy.sparse.csgraph's LAPJVsp (Jonker-Volgenant's
    shortest-augmenting-path method for sparse graphs).  LAPJVsp matches
    only stored entries, so it runs on table + 1, where every pair is one;
    every full matching has min(rows, cols) pairs, so the shift adds one
    constant to all of them and keeps the optimum."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    return min_weight_full_bipartite_matching(
        csr_array(np.asarray(table, dtype=float) + 1.0), maximize=True)


def matched_accuracy_bruteforce(pred, truth):
    """Try every injective cluster-to-class assignment."""
    pred = list(pred)
    truth = list(truth)
    clusters = sorted(set(pred))
    classes = sorted(set(truth))
    table = np.zeros((len(clusters), len(classes)))
    for p, t in zip(pred, truth):
        table[clusters.index(p), classes.index(t)] += 1
    return max_matching_bruteforce(table) / len(pred)


def macro_f1_oracle(pred, truth):
    pred = list(pred)
    truth = list(truth)
    scores = []
    for cls in sorted(set(pred) | set(truth)):
        tp = sum(1 for p, t in zip(pred, truth) if p == cls and t == cls)
        fp = sum(1 for p, t in zip(pred, truth) if p == cls and t != cls)
        fn = sum(1 for p, t in zip(pred, truth) if p != cls and t == cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


def nearest_q_bruteforce(center, vectors, q):
    """Ascending (distance, index) pairs by exhaustive sort."""
    scored = []
    for i, v in enumerate(vectors):
        scored.append((float(np.sqrt(((v - center) ** 2).sum())), i))
    scored.sort(key=lambda pair: (pair[0], pair[1]))
    return scored[:q]

