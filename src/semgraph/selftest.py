"""Built-in cross-checks of the fast paths against reference code.

Run via the CLI `selftest` command.  Each suite draws many random small
instances, compares the production implementation with the literal one in
`reference`, and reports one line; any discrepancy fails the whole run.
The walk and motif suites draw their instances and their expected values,
and the metric suite its optimal matchings, from the same `reference`
oracles the test suite uses, so a deployed binary can be sanity-checked
without a test harness present.  The refinement suite checks the
structured node Laplacian and its conjugate-gradient solve against the
dense Laplacian and an LU solve.
"""

from __future__ import annotations

import sys

import numpy as np

from . import reference
from .embedding import LANCZOS_MIN_RATIO, WalkMatrix, factorize, walk_matrix
from .evaluation import classify, clustering_accuracy, nmi, train_classifier
from .hetero import build_hetero_adjacency, motif_relations
from .io import AttributedGraph
from .sideinfo import (SideInfo, _laplacian, _modularity_parts,
                       _modularity_range, modularity_matrix, update_x)


def _check_walk(rng, rounds):
    worst = 0.0
    for _ in range(rounds):
        g = AttributedGraph.from_dense(*reference.random_connected_graph(rng))
        hetero = build_hetero_adjacency(g)
        order = int(rng.integers(1, 5))
        ours = walk_matrix(hetero, order=order, negatives=1).stored
        ref = reference.walk_oracle(hetero.matrix.toarray(), order, 1)
        scale = max(1.0, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(ours - ref).max()) / scale)
    return worst, 1e-10


def _check_motifs(rng, rounds):
    worst = 0.0
    for _ in range(rounds):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        R = (rng.random((n, m)) < 0.5).astype(float)
        ours = [counts.toarray() for counts in motif_relations(R)]
        ref = reference.motif_enumeration(R)
        worst = max(worst,
                    float(np.abs(ours[0] - ref[0]).max()),
                    float(np.abs(ours[1] - ref[1]).max()))
    return worst, 0.0


def _check_factorization(rng, rounds):
    """Eckart-Young tail norms on random symmetric matrices like the walk
    matrix; their singular values are the |eigenvalues|.  Every rank of
    small matrices, which take the dense solver, then one rank of three
    larger ones, which take the Lanczos solver: a mostly zero one, one
    whose largest eigenvalues alternate in sign, and one of rank below
    the rank asked for."""
    worst = 0.0
    for _ in range(rounds):
        size = int(rng.integers(2, 10))
        Z = rng.normal(size=(size, size))
        target = (Z + Z.T) / 2.0
        for k in range(1, size + 1):
            worst = max(worst, _tail_gap(target, k))
    k = 8
    size = LANCZOS_MIN_RATIO * k
    Z = rng.normal(size=(size, size)) * (rng.random((size, size)) < 0.15)
    Q = np.linalg.qr(rng.normal(size=(size, size)))[0]
    mixed = np.linspace(2.0, 1.0, size) * (-1.0) ** np.arange(size)
    low_rank = np.zeros(size)
    low_rank[:4] = [3.0, -2.0, 1.5, -1.0]
    for target in (Z, (Q * mixed) @ Q.T, (Q * low_rank) @ Q.T):
        worst = max(worst, _tail_gap((target + target.T) / 2.0, k))
    return worst, 1e-8


def _tail_gap(target, k):
    """|rank-k residual of `factorize` - tail norm from `eigvalsh`|."""
    size = target.shape[0]
    model = factorize(WalkMatrix(stored=target, n=size), k)
    s = np.sort(np.abs(np.linalg.eigvalsh(target)))[::-1]
    resid = np.linalg.norm(target - model.vectors @ model.context.T)
    return abs(resid - float(np.sqrt((s[k:] ** 2).sum())))


def _check_refinement(rng, rounds):
    """The node Laplacian operator against the dense D_T - T, relative to
    ||T|| ||X||, and `update_x` with it against the literal update with an
    LU solve; modularity's extremes must be the dense ones exactly."""
    worst = 0.0
    for _ in range(rounds):
        g = AttributedGraph.from_dense(
            *reference.random_connected_graph(rng, max_n=30, max_m=8))
        side = SideInfo(g, tuple(rng.uniform(0.0, 3.0, size=2)))
        Q = modularity_matrix(g)
        if _modularity_range(*_modularity_parts(g)) != (Q.min(), Q.max()):
            return 1.0, 1e-10
        T = side.lambdas[0] * side.q_norm + side.lambdas[1] * side.s_norm
        scale = max(float(np.linalg.norm(T)), 1e-300)
        dense = _laplacian(T)
        L = side.node_laplacian
        X = rng.normal(size=(g.n, 3))
        worst = max(worst, float(np.linalg.norm(L @ X - dense @ X))
                    / (scale * float(np.linalg.norm(X))))
        Z = rng.normal(size=(side.size, side.size))
        Y = rng.normal(size=(side.size, 3))
        left = Z @ Y
        left[:g.n] = np.linalg.solve(np.eye(g.n) + dense, left[:g.n])
        expect = np.linalg.solve(Y.T @ Y + np.eye(3), left.T).T
        worst = max(worst, float(np.abs(update_x(Z, Y, L) - expect).max())
                    / float(np.abs(expect).max()))
    return worst, 1e-10


def _check_metrics(rng, rounds):
    for _ in range(rounds):
        n = int(rng.integers(4, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        if abs(nmi(a, a) - 1.0) > 0:
            return 1.0, 0.0
        if abs(nmi(a, b) - nmi(b, a)) > 1e-12:
            return 1.0, 0.0
        perm = rng.permutation(4)
        ac = clustering_accuracy(a, b)
        if abs(ac - clustering_accuracy(perm[a], b)) > 1e-12:
            return 1.0, 0.0
        # invariance alone passes a matcher that is not optimal
        table = np.zeros((4, 3))
        np.add.at(table, (a, b), 1.0)
        if abs(ac - reference.max_matching_bruteforce(table) / n) > 1e-12:
            return 1.0, 0.0
    X = np.vstack([rng.normal(size=(20, 3)) + 6.0,
                   rng.normal(size=(20, 3)) - 6.0])
    y = np.repeat([0, 1], 20)
    clf = train_classifier(X, y)
    train_acc = float(np.mean(classify(clf, X) == y))
    return 0.0 if train_acc == 1.0 else 1.0, 0.0


_SUITES = (
    ("walk-matrix vs dense oracle", _check_walk, 200),
    ("motif counts vs enumeration", _check_motifs, 200),
    ("factorization tail norms", _check_factorization, 40),
    ("refinement operator and solve vs dense LU", _check_refinement, 100),
    ("metric sanity", _check_metrics, 100),
)


def run_selftest(seed: int = 0, out=None) -> bool:
    """Run every suite; print one ok/FAIL line each; True when all pass."""
    if out is None:  # resolve lazily so stream redirection works
        out = sys.stdout
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, check, rounds in _SUITES:
        worst, tol = check(rng, rounds)
        ok = worst <= tol
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} "
              f"({rounds} rounds, worst {worst:.3g}, tol {tol:g})",
              file=out)
    return all_ok
