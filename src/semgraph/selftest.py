"""Built-in cross-checks of the fast paths against reference code.

Run via the CLI `selftest` command.  Each suite draws many random small
instances, compares the production implementation with the literal one in
`reference`, and reports one line; any discrepancy fails the whole run.
The walk and motif suites draw their instances and their expected values,
and the metric suite its optimal matchings, from the same `reference`
oracles the test suite uses, so a deployed binary can be sanity-checked
without a test harness present.
"""

from __future__ import annotations

import sys

import numpy as np

from . import reference
from .embedding import LANCZOS_MIN_RATIO, WalkMatrix, factorize, walk_matrix
from .evaluation import classify, clustering_accuracy, nmi, train_classifier
from .hetero import build_hetero_adjacency, motif_relations
from .io import AttributedGraph


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
    small matrices, which take the dense solver, then one rank of a
    larger, mostly zero one, which takes the Lanczos solver."""
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
    return max(worst, _tail_gap((Z + Z.T) / 2.0, k)), 1e-8


def _tail_gap(target, k):
    """|rank-k residual of `factorize` - tail norm from `eigvalsh`|."""
    size = target.shape[0]
    model = factorize(WalkMatrix(stored=target, n=size), k)
    s = np.sort(np.abs(np.linalg.eigvalsh(target)))[::-1]
    resid = np.linalg.norm(target - model.vectors @ model.context.T)
    return abs(resid - float(np.sqrt((s[k:] ** 2).sum())))


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
