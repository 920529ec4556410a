"""Release gate: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured worst case against its stated tolerance.

Criteria 1-9 are gating.  Criterion 10 needs an external dataset and is
skipped unless SEMGRAPH_CORA_DIR points at edges/attrs/labels TSV files.
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy import sparse

import oracles
from semgraph import (AttributedGraph, WalkMatrix, build_hetero_adjacency,
                      build_side_info, clustering_accuracy, describe_direct,
                      embed, evaluate, factorize, kmeans, load_graph,
                      match_clusters, motif_relations, nmi, objective_value,
                      planted_attributed_sbm, reference, train_classifier,
                      classify, update_x, update_y, walk_matrix)
from semgraph.synthetic import attribute_block


def _report(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _graph_from(A, R0):
    return AttributedGraph.from_dense(A, R0)


class TestCriterion01WalkMatrixOracle:
    def test_walk_matrix_vs_bruteforce(self):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for round_ in range(200):
            A, R0 = oracles.random_connected_graph(rng, max_n=8, max_m=5)
            order = int(rng.integers(1, 5))
            hetero = build_hetero_adjacency(_graph_from(A, R0))
            got = walk_matrix(hetero, order=order, negatives=1).matrix
            if hetero.m == 0:  # constant R0: attribute block normalizes away
                want = oracles.walk_oracle(A, order, 1)
            else:
                want = oracles.walk_oracle(
                    oracles.assemble_b(A, R0, (1.0, 1.0, 1.0)), order, 1)
            scale = max(1.0, float(np.linalg.norm(want)))
            worst = max(worst, float(np.linalg.norm(got - want)) / scale)
        elapsed = time.perf_counter() - start
        _report(1, worst <= 1e-10 and elapsed < 30.0,
                f"walk matrix vs oracle over 200 graphs, worst rel err "
                f"{worst:.3g} (tol 1e-10), {elapsed:.1f}s (< 30s)")


class TestCriterion02MotifOracle:
    def test_motif_counts_vs_enumeration(self):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        worst = 0.0
        for round_ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            R0 = (rng.random((n, m)) < 0.5).astype(float)
            got1, got2 = (R.toarray() for R in motif_relations(R0))
            want1, want2 = oracles.motif_enumeration(R0)
            worst = max(worst, float(np.abs(got1 - want1).max()),
                        float(np.abs(got2 - want2).max()))
        elapsed = time.perf_counter() - start
        _report(2, worst == 0.0 and elapsed < 10.0,
                f"motif counts vs enumeration over 200 matrices, worst "
                f"abs diff {worst:g} (exact), {elapsed:.1f}s (< 10s)")


class TestCriterion03Factorization:
    def test_tail_norm_identity_every_rank(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for size, width in ((9, 9), (12, 12), (7, 7)):
            Z = rng.normal(size=(size, width))
            Z = (Z + Z.T) / 2.0  # factorization target is square symmetric
            walk = WalkMatrix(stored=Z, n=size)
            theta = np.linalg.svd(Z, compute_uv=False)
            for k in range(1, size + 1):
                model = factorize(walk, k)
                resid = float(np.linalg.norm(
                    Z - model.vectors @ model.context.T))
                tail = float(np.sqrt((theta[k:] ** 2).sum()))
                worst = max(worst, abs(resid - tail))
            full = factorize(walk, size)
            rel = (float(np.linalg.norm(Z - full.vectors @ full.context.T))
                   / float(np.linalg.norm(Z)))
            worst = max(worst, rel)
        _report(3, worst <= 1e-8,
                f"Eckart-Young tail norms + full-rank reconstruction, "
                f"worst err {worst:.3g} (tol 1e-8)")


class TestCriterion04StructuralIdentities:
    def test_symmetry_ranges_and_kernels(self):
        rng = np.random.default_rng(104)
        worst_sym = worst_row = worst_kernel = worst_pair = 0.0
        range_ok = True
        for round_ in range(30):
            A, R0 = oracles.random_connected_graph(rng, max_n=8, max_m=5)
            g = _graph_from(A, R0)
            hetero = build_hetero_adjacency(g)
            worst_sym = max(worst_sym, float(np.abs(
                hetero.matrix - hetero.matrix.T).max()))
            n = g.n
            similarity = hetero.matrix[n:, n:]
            worst_sym = max(worst_sym, float(np.abs(
                similarity - similarity.T).max()))
            q_norm = reference.mnorm(reference.modularity_matrix(A))
            s_norm = reference.mnorm(reference.attribute_cosine(R0))
            worst_sym = max(worst_sym,
                            float(np.abs(q_norm - q_norm.T).max()),
                            float(np.abs(s_norm - s_norm.T).max()))
            for M in (hetero.matrix[:n, n:], similarity, q_norm, s_norm,
                      reference.mnorm(rng.normal(size=(5, 7)))):
                range_ok &= bool(M.min() >= 0.0 and M.max() <= 1.0)
            worst_row = max(worst_row, float(np.abs(
                reference.modularity_matrix(A).sum(axis=1)).max()))
            ones = np.ones(g.n)
            # L(q_norm), L(s_norm) and their unit-weight sum
            for lambdas in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
                L = build_side_info(g, lambdas=lambdas).node_laplacian
                worst_kernel = max(worst_kernel,
                                   float(np.linalg.norm(L @ ones)))
            # the penalties act on node rows only
            X = rng.normal(size=(g.n + g.m, 3))[:g.n]
            for T in (q_norm, s_norm):
                worst_pair = max(worst_pair, abs(
                    reference.regularization_value(X, T)
                    - oracles.pairwise_penalty(X, T)))
        ok = (worst_sym <= 1e-12 and range_ok and worst_row <= 1e-10
              and worst_kernel <= 1e-10 and worst_pair <= 1e-8)
        _report(4, ok,
                f"symmetry {worst_sym:.3g} (1e-12), mnorm range "
                f"{'ok' if range_ok else 'VIOLATED'}, modularity row sums "
                f"{worst_row:.3g} (1e-10), Laplacian kernel "
                f"{worst_kernel:.3g} (1e-10), pairwise-vs-trace "
                f"{worst_pair:.3g} (1e-8)")


class TestCriterion05GradientChecks:
    def test_analytic_vs_central_differences(self):
        rng = np.random.default_rng(105)
        worst = 0.0
        for round_ in range(50):
            size = int(rng.integers(3, 13))
            k = int(rng.integers(1, 5))
            Z = rng.normal(size=(size, size))
            X = rng.normal(size=(size, k))
            Y = rng.normal(size=(size, k))
            T = reference.mnorm(np.abs(rng.normal(size=(size, size))))
            T = (T + T.T) / 2.0
            L = np.diag(T.sum(axis=1)) - T

            def f_x(Xv):
                return (float(np.linalg.norm(Z - Xv @ Y.T) ** 2)
                        + float(np.trace(Xv.T @ L @ Xv)))

            def f_y(Yv):
                return float(np.linalg.norm(Z - X @ Yv.T) ** 2)

            for grad, num in ((oracles.objective_grad_x(Z, X, Y, L),
                               oracles.numeric_grad(f_x, X)),
                              (oracles.objective_grad_y(Z, X, Y),
                               oracles.numeric_grad(f_y, Y))):
                scale = max(1.0, float(np.linalg.norm(num)))
                worst = max(worst,
                            float(np.linalg.norm(grad - num)) / scale)
        _report(5, worst <= 1e-5,
                f"entity/context gradients vs central differences over 50 "
                f"instances, worst rel err {worst:.3g} (tol 1e-5)")


class TestCriterion06UpdateOptimality:
    def test_stationarity_and_formula(self):
        rng = np.random.default_rng(106)
        worst_y = worst_x0 = worst_ls = worst_lit = 0.0
        for round_ in range(30):
            size = int(rng.integers(4, 13))
            k = int(rng.integers(1, min(5, size)))
            Z = rng.normal(size=(size, size))
            X = rng.normal(size=(size, k))
            Y = rng.normal(size=(size, k))
            T = reference.mnorm(np.abs(rng.normal(size=(size, size))))
            T = (T + T.T) / 2.0
            L = np.diag(T.sum(axis=1)) - T

            Y_new = update_y(Z, X)
            tol_scale = 1.0 + float(np.linalg.norm(Z.T @ X))
            worst_y = max(worst_y, float(np.linalg.norm(
                oracles.objective_grad_y(Z, X, Y_new))) / tol_scale)

            X0 = update_x(Z, Y, np.zeros((size, size)))
            scale_x = 1.0 + float(np.linalg.norm(Z @ Y))
            worst_x0 = max(worst_x0, float(np.linalg.norm(
                X0 @ (Y.T @ Y + np.eye(k)) - Z @ Y)) / scale_x)

            X_ls = update_y(Z.T, Y)  # transposed problem: exact LS in X
            worst_ls = max(worst_ls, float(np.linalg.norm(
                X_ls @ (Y.T @ Y) - Z @ Y)) / scale_x)

            X_reg = update_x(Z, Y, L)
            worst_lit = max(worst_lit, float(np.abs(
                X_reg - oracles.regularized_x_oracle(Z, Y, L)).max()))
        ok = (worst_y <= 1e-8 and worst_x0 <= 1e-8 and worst_ls <= 1e-8
              and worst_lit <= 1e-10)
        _report(6, ok,
                f"context stationarity {worst_y:.3g}, ridge normal eqs "
                f"{worst_x0:.3g}, exact-LS normal eqs {worst_ls:.3g} "
                f"(all 1e-8), literal update vs dense oracle "
                f"{worst_lit:.3g} (1e-10)")


class TestCriterion07MetricSanity:
    def test_metric_properties(self):
        rng = np.random.default_rng(107)
        ok = True
        for round_ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            perm = rng.permutation(4)
            ok &= nmi(a, a) == 1.0
            ok &= nmi(perm[a], a) == 1.0
            ok &= nmi(a, b) == nmi(b, a)
            ok &= (clustering_accuracy(perm[a], b)
                   == clustering_accuracy(a, b))
        X = np.vstack([rng.normal(loc=(-4, -4), size=(20, 2)),
                       rng.normal(loc=(4, 4), size=(20, 2))])
        y = np.repeat([0, 1], 20)
        clf = train_classifier(X, y)
        ok &= bool(np.mean(classify(clf, X) == y) == 1.0)
        _report(7, ok,
                "nmi(identical)=1, exact nmi symmetry, matched-accuracy "
                "permutation invariance, separable train accuracy 1.0")


@pytest.fixture(scope="module")
def planted():
    g = planted_attributed_sbm(nodes=200, blocks=4, intra=0.10, inter=0.02,
                               attrs_per_block=10, inclusion=0.5, seed=0)
    model = embed(g)  # defaults: dim 64, order 4, one negative, unit deltas
    return g, model


class TestCriterion08PlantedStructure:
    def test_attributes_beat_topology_alone(self, planted):
        g, model = planted
        start = time.perf_counter()
        # topology only: the same graph with no attribute columns
        bare = embed(dataclasses.replace(
            g, attr_weights=sparse.csr_array((g.n, 0)), attr_ids=[]))
        labels = np.asarray(g.labels)
        full_scores, bare_scores = [], []
        for seed in range(20):
            full_scores.append(nmi(
                kmeans(model.node_vectors, 4, seed).assignment, labels))
            bare_scores.append(nmi(
                kmeans(bare.node_vectors, 4, seed).assignment, labels))
        elapsed = time.perf_counter() - start
        full_mean = float(np.mean(full_scores))
        bare_mean = float(np.mean(bare_scores))
        _report(8, full_mean >= bare_mean + 0.10 and elapsed < 120.0,
                f"planted 4-block SBM, mean NMI over 20 seeds: full "
                f"{full_mean:.4f} vs topology-only {bare_mean:.4f} "
                f"(margin {full_mean - bare_mean:+.4f} >= 0.10), "
                f"{elapsed:.1f}s (< 2min)")


class TestCriterion09DescriptionFidelity:
    def test_keywords_match_planted_blocks(self, planted):
        g, model = planted
        labels = np.asarray(g.labels)
        worst = 10
        for seed in range(10):
            clus = kmeans(model.node_vectors, 4, seed)
            mapping = match_clusters(clus.assignment, labels)
            for desc in describe_direct(model, clus, q=10):
                block = mapping[desc.community_id]
                names = [a for a, _ in desc.topics[0].keywords]
                own = sum(attribute_block(a) == block for a in names)
                worst = min(worst, own)
        _report(9, worst >= 8,
                f"10 seeds x 4 communities, worst block-exclusive count in "
                f"top-10 keywords: {worst} (>= 8)")


class TestCriterion10CoraOptional:
    def test_cora_clustering_nmi(self):
        root = os.environ.get("SEMGRAPH_CORA_DIR")
        if not root:
            pytest.skip("SEMGRAPH_CORA_DIR not set; optional dataset check")
        paths = [os.path.join(root, f"{name}.tsv")
                 for name in ("edges", "attrs", "labels")]
        if not all(os.path.exists(p) for p in paths):
            pytest.skip(f"dataset files missing under {root}")
        start = time.perf_counter()
        g = load_graph(paths[0], paths[1], labels_path=paths[2])
        assert (g.n, g.e, g.m, g.c) == (2708, 5278, 1432, 7), \
            "dataset shape differs from the documented preprocessing"
        best = (-1.0, None)
        for order in range(1, 11):
            model = embed(g, dim=64, order=order)
            quick = evaluate(model, g, task="clustering", repeats=10, seed=0)
            if quick.nmi > best[0]:
                best = (quick.nmi, order)
        model = embed(g, dim=64, order=best[1])
        report = evaluate(model, g, task="clustering", repeats=100, seed=0)
        elapsed = time.perf_counter() - start
        score = 100.0 * report.nmi
        _report(10, abs(score - 49.33) <= 7.0 and elapsed < 900.0,
                f"cora clustering NMI {score:.2f} at order {best[1]} "
                f"(target 49.33 +/- 7), {elapsed:.0f}s (< 15min)")
