"""Independent brute-force implementations used to cross-check the package.

Every computation is written from the definitions, the slow way, so
agreement with the fast paths is meaningful.  `walk_oracle`,
`motif_enumeration`, `max_matching_bruteforce` and
`random_connected_graph` are also what `semgraph selftest` runs, so they
live once, in `semgraph.reference`, and are imported from there.  That
module imports nothing else from semgraph (`tests/test_reference.py`
checks this), so it stays as independent of the fast paths as the code
below.  `max_matching_lapjv` keeps scipy's solver as a second reference
for tables too large to enumerate; nothing in semgraph imports it.
"""

from collections import Counter

import numpy as np

from semgraph.reference import (  # noqa: F401  (re-exported oracles)
    max_matching_bruteforce, motif_enumeration, random_connected_graph,
    walk_oracle)


# ------------------------------------------- exact-symmetry inputs

def symmetry_cases():
    """Attribute matrices, by name, for the exact-symmetry checks of
    `attribute_similarity` and `attribute_cosine`: small edge shapes, a
    Fortran-ordered array, and Gram products large enough for blocked
    BLAS kernels."""
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
            "node without attributes": bare}


# ---------------------------------------------------------------- mnorm

def mnorm_oracle(M):
    M = np.asarray(M, dtype=float)
    lo = M.min()
    hi = M.max()
    if hi == lo:
        return np.zeros(M.shape)
    out = np.empty(M.shape)
    for idx in np.ndindex(M.shape):
        out[idx] = (M[idx] - lo) / (hi - lo)
    return out


# ------------------------------------------------- auxiliary graph blocks

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
    return mnorm_oracle(P)


def assemble_b(A, R0, deltas, weighted=False):
    """Full block assembly from the definitions."""
    A = np.asarray(A, dtype=float)
    R0 = np.asarray(R0, dtype=float)
    n, m = R0.shape
    R1, R2 = motif_enumeration(R0)
    if weighted:
        R1 = R1 * R0
        R2 = R2 * R0
    combined = (deltas[0] * mnorm_oracle(R0)
                + deltas[1] * mnorm_oracle(R1)
                + deltas[2] * mnorm_oracle(R2))
    Rt = mnorm_oracle(combined)
    Pt = similarity_oracle(R0)
    B = np.zeros((n + m, n + m))
    B[:n, :n] = A
    B[:n, n:] = Rt
    B[n:, :n] = Rt.T
    B[n:, n:] = Pt
    return B


# ------------------------------------------------------------ side info

def modularity_oracle(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    d = A.sum(axis=1)
    two_e = d.sum()
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            Q[i, j] = A[i, j] - d[i] * d[j] / two_e
    return Q


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
    and each center is the mean of its members.  Returns the best
    restart's (assignment, centers, inertia) and the count of restarts
    that stopped at max_iter, which the package logs instead."""
    points = np.asarray(points, dtype=float)
    N = points.shape[0]
    sq_norms = (points ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    unconverged = 0
    for _ in range(restarts):
        centers = _pp_centers(points, k, rng)
        assignment = None
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
            if assignment is not None and np.array_equal(new_assignment,
                                                         assignment):
                break
            assignment = new_assignment
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

