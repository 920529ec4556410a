import logging

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from semgraph import (AttributedGraph, EmbeddingModel, accuracy, classify,
                      clustering_accuracy, embed, evaluate, kmeans, macro_f1,
                      match_clusters, nmi, planted_attributed_sbm,
                      train_classifier)
from semgraph import evaluation
from semgraph.evaluation import _max_matching, logistic_grad, logistic_loss


class TestKmeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(size=(15, 2)) + 10.0,
                         rng.normal(size=(15, 2)) - 10.0])
        cl = kmeans(pts, 2, seed=1)
        first, second = cl.assignment[:15], cl.assignment[15:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_n_equals_k(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        cl = kmeans(pts, 3, seed=2)
        assert sorted(cl.assignment.tolist()) == [0, 1, 2]
        assert cl.inertia == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centers, b.centers)

    def test_iteration_cap_warns_once_and_keeps_result(self, caplog):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        with caplog.at_level(logging.WARNING, logger="semgraph.evaluation"):
            full = kmeans(pts, 4, seed=9)
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="semgraph.evaluation"):
            capped = kmeans(pts, 4, seed=9, max_iter=1)
        assert len(caplog.records) == 1
        assert "10 of 10 restarts" in caplog.records[0].getMessage()
        # one Lloyd step from the same seeding: a valid, worse clustering
        assert np.array_equal(np.unique(capped.assignment), np.arange(4))
        assert capped.inertia >= full.inertia

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 2))
        for k in (2, 5, 9):
            cl = kmeans(pts, k, seed=k)
            assert np.array_equal(np.unique(cl.assignment), np.arange(k))

    def test_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 4, seed=0)
        with pytest.raises(ValueError, match="finite"):
            kmeans(np.array([[np.nan, 0.0]]), 1, seed=0)

    def test_no_restart_rejected(self):
        pts = np.random.default_rng(5).normal(size=(10, 2))
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, 2, seed=0, restarts=0)

    def test_no_iteration_rejected(self):
        pts = np.random.default_rng(5).normal(size=(10, 2))
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(pts, 2, seed=0, max_iter=0)


def _blobs(seed):
    """Well-separated Gaussian blobs; k, dimension and sizes from seed."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    centers = rng.normal(scale=20.0, size=(k, int(rng.integers(2, 10))))
    pts = np.vstack([c + rng.normal(size=(int(rng.integers(5, 40)), c.size))
                     for c in centers])
    return pts, k


class TestKmeansMatchesPerRestart:
    """The batched restarts against `oracles.kmeans_per_restart`, the
    restarts run one by one: same assignment, same SSQ to 1e-12."""

    @staticmethod
    def _check(points, k, seed, **kwargs):
        cl = kmeans(points, k, seed, **kwargs)
        (assignment, _, inertia), unconverged = oracles.kmeans_per_restart(
            points, k, seed, **kwargs)
        assert np.array_equal(cl.assignment, assignment)
        assert abs(cl.inertia - inertia) <= 1e-12 * inertia
        return cl, unconverged

    @pytest.mark.parametrize("restarts", [1, 10, 50])
    @pytest.mark.parametrize("seed", range(30))
    def test_separated_blobs(self, seed, restarts):
        # many restarts reach the same partition here, each labeled its
        # own way; the first of them has to win, as it did one by one
        pts, k = _blobs(seed)
        self._check(pts, k, seed, restarts=restarts)

    def test_planted_embedding(self):
        model = embed(planted_attributed_sbm(nodes=400, blocks=5, seed=3))
        for seed in range(3):
            self._check(model.node_vectors, 5, seed)
            self._check(model.attr_vectors, 5, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_points_repair_empty_clusters(self, seed,
                                                     monkeypatch):
        """Fewer distinct points than clusters.  Coordinates are small
        integers, so every distance is exact in both implementations and
        coincident centers tie exactly; both must break those ties, and
        refill the clusters they empty, the same way."""
        repairs = []
        real = evaluation._repair_empty

        def counted(*args):
            repairs.append(1)
            real(*args)

        monkeypatch.setattr(evaluation, "_repair_empty", counted)
        rng = np.random.default_rng(seed)
        distinct = rng.integers(-3, 4, size=(3, 2)).astype(float)
        distinct[:, 0] += 10.0 * np.arange(3)  # three distinct points
        pts = distinct[rng.integers(0, 3, size=20)]
        cl, _ = self._check(pts, 5, seed)
        assert repairs
        assert np.array_equal(np.unique(cl.assignment), np.arange(5))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_cluster_and_one_per_point(self, seed):
        pts = np.random.default_rng(seed).normal(size=(12, 3))
        self._check(pts, 1, seed)
        cl, _ = self._check(pts, 12, seed)
        assert np.array_equal(np.unique(cl.assignment), np.arange(12))

    def test_iteration_cap_warns_the_same_count(self, caplog):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 4))
        counts = set()
        for max_iter in (1, 2, 4, 8, 16, 300):
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="semgraph.evaluation"):
                _, unconverged = self._check(pts, 6, 5, restarts=10,
                                             max_iter=max_iter)
            messages = [r.getMessage() for r in caplog.records]
            assert messages == ([f"kmeans: {unconverged} of 10 restarts "
                                 f"stopped at max_iter={max_iter} before "
                                 "the assignment settled"]
                                if unconverged else [])
            counts.add(unconverged)
        assert {0, 10} < counts  # and some caps stop part of the restarts


class TestNmi:
    def test_identical(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabel_invariance(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_degenerate_entropy(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            ab = nmi(a, b)
            assert ab == nmi(b, a)
            assert 0.0 <= ab <= 1.0
            assert abs(ab - oracles.nmi_oracle(a, b)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            nmi([0, 1], [0, 1, 2])


class TestClusteringAccuracy:
    def test_permuted_labels_full_credit(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert clustering_accuracy(pred, truth) == 1.0

    def test_single_cluster_best_match(self):
        truth = [0, 0, 1, 1, 2, 2]
        assert clustering_accuracy([0] * 6, truth) == pytest.approx(1 / 3)

    def test_worked_example(self):
        assert clustering_accuracy([0, 0, 1, 1], [1, 1, 1, 0]) == 0.75
        assert match_clusters([0, 0, 1, 1], [1, 1, 1, 0]) == {0: 1, 1: 0}

    def test_relabel_invariance_and_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 25))
            pred = rng.integers(0, 4, size=n)
            truth = rng.integers(0, 3, size=n)
            base = clustering_accuracy(pred, truth)
            perm_p = rng.permutation(4)
            perm_t = rng.permutation(3)
            assert clustering_accuracy(perm_p[pred],
                                       perm_t[truth]) == base
            assert base == pytest.approx(
                oracles.matched_accuracy_bruteforce(pred, truth))
            # the optimal matching dominates any single cluster/class pair
            table = np.zeros((4, 3))
            np.add.at(table, (pred, truth), 1)
            assert base >= table.max() / n - 1e-12

    def test_single_cluster_gets_largest_class(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            truth = rng.integers(0, 4, size=n)
            frac = np.bincount(truth).max() / n
            assert clustering_accuracy([0] * n, truth) == pytest.approx(frac)


class TestMatching:
    @staticmethod
    def _tables():
        """Small random contingency tables: square, wide and tall, some
        with an all-zero row or column."""
        rng = np.random.default_rng(8)
        for rows, cols in [(1, 1), (3, 3), (4, 4), (2, 5), (3, 6), (5, 2),
                           (6, 3), (1, 4), (4, 1)]:
            for _ in range(6):
                table = rng.integers(0, 6, size=(rows, cols)).astype(float)
                if rng.random() < 0.4:
                    table[rng.integers(rows)] = 0.0
                if rng.random() < 0.4:
                    table[:, rng.integers(cols)] = 0.0
                yield table

    @staticmethod
    def _total(table):
        """Total of `_max_matching`'s pairs, after checking their form:
        min(rows, cols) of them, rows ascending, columns distinct.  Tied
        optima may pair differently from an oracle, so only the total is
        compared."""
        rows, cols = _max_matching(table)
        assert rows.size == cols.size == min(table.shape)
        assert np.all(np.diff(rows) > 0)
        assert np.unique(cols).size == cols.size
        return table[rows, cols].sum()

    def test_total_matches_bruteforce(self):
        for table in self._tables():
            assert self._total(table) == \
                oracles.max_matching_bruteforce(table)

    @pytest.mark.parametrize("rows", range(1, 7))
    @pytest.mark.parametrize("cols", range(1, 7))
    def test_every_shape_with_ties_matches_bruteforce(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        dup_rows = rng.integers(0, 3, size=(rows, cols)).astype(float)
        dup_rows[-1] = dup_rows[0]
        dup_cols = rng.integers(0, 3, size=(rows, cols)).astype(float)
        dup_cols[:, -1] = dup_cols[:, 0]
        tables = [np.zeros((rows, cols)), np.full((rows, cols), 4.0),
                  dup_rows, dup_cols,
                  *rng.integers(0, 3, size=(4, rows, cols)).astype(float)]
        for table in tables:
            assert self._total(table) == \
                oracles.max_matching_bruteforce(table)

    def test_real_weights_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for rows in range(1, 7):
            for cols in range(1, 7):
                table = rng.random((rows, cols)) * 10.0 ** rng.integers(-3, 4)
                assert self._total(table) == pytest.approx(
                    oracles.max_matching_bruteforce(table), rel=1e-12)

    def test_total_matches_lapjv_up_to_40(self):
        rng = np.random.default_rng(12)
        for case in range(200):
            side = int(rng.integers(1, 41))
            other = int(rng.integers(1, 41))
            shape = [(side, side), (side, max(side, other)),
                     (max(side, other), side)][case % 3]
            table = rng.integers(0, [3, 50][case % 2],
                                 size=shape).astype(float)
            rows, cols = oracles.max_matching_lapjv(table)
            assert self._total(table) == table[rows, cols].sum()

    def test_match_clusters_one_to_one_with_optimal_total(self):
        rng = np.random.default_rng(9)
        for clusters, classes in [(3, 3), (2, 4), (5, 2)]:
            for _ in range(10):
                pred = rng.integers(0, clusters, size=25) * 10 + 7
                truth = rng.integers(0, classes, size=25) - 3
                mapping = match_clusters(pred, truth)
                assert len(mapping) == min(np.unique(pred).size,
                                           np.unique(truth).size)
                assert len(set(mapping.values())) == len(mapping)
                assert list(mapping) == sorted(mapping)
                total = sum(np.sum((pred == p) & (truth == t))
                            for p, t in mapping.items())
                assert total / 25 == pytest.approx(
                    oracles.matched_accuracy_bruteforce(pred, truth))
                assert clustering_accuracy(pred, truth) == total / 25


class TestPointMetrics:
    def test_perfect_prediction(self):
        y = [0, 1, 2, 1]
        assert accuracy(y, y) == 1.0
        assert macro_f1(y, y) == 1.0

    def test_all_zero_on_balanced_binary(self):
        truth = [0, 0, 1, 1]
        pred = [0, 0, 0, 0]
        assert accuracy(pred, truth) == 0.5
        assert macro_f1(pred, truth) == pytest.approx(1 / 3)

    def test_class_absent_from_both_counts_zero(self):
        truth = [0, 0]
        pred = [0, 0]
        assert macro_f1(pred, truth, classes=[0, 1]) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            truth = rng.integers(0, 3, size=n)
            pred = rng.integers(0, 3, size=n)
            assert macro_f1(pred, truth) == pytest.approx(
                oracles.macro_f1_oracle(pred, truth))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0], [0, 1])
        with pytest.raises(ValueError):
            macro_f1([0], [0, 1])

    def test_empty_rejected(self):
        for score in (accuracy, macro_f1):
            with pytest.raises(ValueError, match="empty"):
                score([], [])


class TestClassifier:
    def test_linearly_separable(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(size=(20, 2)) + 5.0,
                       rng.normal(size=(20, 2)) - 5.0])
        y = np.repeat([0, 1], 20)
        clf = train_classifier(X, y)
        assert accuracy(classify(clf, X), y) == 1.0

    def test_three_blobs(self):
        rng = np.random.default_rng(9)
        centers = np.array([[8.0, 0.0], [-8.0, 8.0], [-8.0, -8.0]])
        X = np.vstack([rng.normal(size=(15, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 15)
        clf = train_classifier(X, y)
        assert accuracy(classify(clf, X), y) == 1.0

    def test_loss_gradient_check(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            N, d = int(rng.integers(4, 12)), int(rng.integers(1, 4))
            Xa = np.hstack([rng.normal(size=(N, d)), np.ones((N, 1))])
            t = rng.integers(0, 2, size=N).astype(float)
            w = rng.normal(size=d + 1)
            l2 = 10 ** rng.uniform(-4, -1)
            analytic = logistic_grad(w, Xa, t, l2)
            numeric = oracles.numeric_grad(
                lambda v: logistic_loss(v, Xa, t, l2), w)
            rel = np.linalg.norm(analytic - numeric) / \
                np.linalg.norm(numeric)
            assert rel <= 1e-5

    def test_unseen_class_scores(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5, 5, 9, 9])
        clf = train_classifier(X, y)
        pred = classify(clf, np.array([[-1.0], [4.0]]))
        assert pred.tolist() == [5, 9]

    def test_unregularized_separable_terminates_with_warning(self, caplog):
        """With l2 = 0 separable data has no minimizer: the gradient only
        tends to 0 as the weights grow, so tol = 0 is never reached.  The
        solve must still stop, with finite weights, and say so."""
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(size=(20, 2)) + 5.0,
                       rng.normal(size=(20, 2)) - 5.0])
        y = np.repeat([0, 1], 20)
        with caplog.at_level(logging.WARNING, logger="semgraph.evaluation"):
            clf = train_classifier(X, y, l2=0.0, tol=0.0)
        assert np.all(np.isfinite(clf.weights))
        assert accuracy(classify(clf, X), y) == 1.0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "2 of 2" in warnings[0].getMessage()

    def test_unregularized_zero_feature_does_not_break_solve(self):
        """An all-zero feature with l2 = 0 makes the Hessian exactly
        singular; training still finishes and separates the classes."""
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(size=(10, 2)) + 4.0,
                       rng.normal(size=(10, 2)) - 4.0])
        X[:, 1] = 0.0
        y = np.repeat([0, 1], 10)
        clf = train_classifier(X, y, l2=0.0)
        assert np.all(np.isfinite(clf.weights))
        assert accuracy(classify(clf, X), y) == 1.0

    def test_planted_converges_without_warning(self, planted, caplog):
        g, model = planted
        with caplog.at_level(logging.WARNING, logger="semgraph.evaluation"):
            report = evaluate(model, g, task="classification", repeats=3,
                              train_fraction=0.2, seed=0)
        assert report.ac > 0.5
        assert not [r for r in caplog.records
                    if r.levelno >= logging.WARNING]

    def test_planted_fit_is_optimal(self, planted):
        """Each one-vs-rest row meets tol and matches an independent
        L-BFGS-B minimization of the same loss."""
        g, model = planted
        labels = np.asarray(g.labels)
        train = np.random.default_rng(0).permutation(g.n)[:g.n // 5]
        assert np.unique(labels[train]).size == 4
        X = model.node_vectors[train]
        y = labels[train]
        tol = 1e-6
        clf = train_classifier(X, y, tol=tol)
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        for cls, w in zip(clf.classes, clf.weights):
            t = (y == cls).astype(float)
            assert np.linalg.norm(logistic_grad(w, Xa, t, clf.l2)) <= tol
            ref = minimize(logistic_loss, np.zeros(Xa.shape[1]),
                           args=(Xa, t, clf.l2), jac=logistic_grad,
                           method="L-BFGS-B",
                           options={"maxiter": 100000, "gtol": 1e-12,
                                    "ftol": 1e-15})
            assert abs(logistic_loss(w, Xa, t, clf.l2) - ref.fun) <= 1e-9


@pytest.fixture(scope="module")
def planted():
    g = planted_attributed_sbm(nodes=200, blocks=4, intra=0.10, inter=0.02,
                               attrs_per_block=10, inclusion=0.5, seed=0)
    return g, embed(g)


def _model_from_labels(labels, dim=4, seed=0):
    """Embedding whose node vectors perfectly encode the labels."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    base = np.eye(labels.max() + 1, dim) * 10.0
    vectors = base[labels] + rng.normal(scale=0.01,
                                        size=(labels.size, dim))
    return EmbeddingModel(vectors=vectors, context=vectors.copy(),
                          n=labels.size)


def _labeled_graph(labels):
    labels = np.asarray(labels)
    n = labels.size
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return AttributedGraph.from_dense(A, np.ones((n, 1)), labels=labels)


class TestEvaluate:
    def test_perfect_embedding_clustering(self):
        labels = np.repeat([0, 1, 2], 8)
        report = evaluate(_model_from_labels(labels),
                          _labeled_graph(labels), task="clustering",
                          repeats=1, seed=0)
        assert report.nmi == 1.0 and report.ac == 1.0

    def test_reports_deterministic(self):
        labels = np.repeat([0, 1], 10)
        model = _model_from_labels(labels)
        g = _labeled_graph(labels)
        for task in ("clustering", "classification"):
            a = evaluate(model, g, task=task, repeats=3, seed=42)
            b = evaluate(model, g, task=task, repeats=3, seed=42)
            assert a.records() == b.records()

    def test_classification_scores_high_on_separable(self):
        labels = np.repeat([0, 1], 20)
        report = evaluate(_model_from_labels(labels),
                          _labeled_graph(labels), task="classification",
                          repeats=4, train_fraction=0.2, seed=1)
        assert report.ac > 0.95 and report.macro_f1 > 0.95

    def test_records_format(self):
        labels = np.repeat([0, 1], 8)
        report = evaluate(_model_from_labels(labels),
                          _labeled_graph(labels), task="clustering",
                          repeats=2, seed=0)
        for line in report.records():
            name, value = line.split("\t")
            float(value)
        assert "nmi" in report.table()

    def test_missing_labels_rejected(self):
        labels = np.repeat([0, 1], 8)
        g = _labeled_graph(labels)
        unlabeled = AttributedGraph(adjacency=g.adjacency,
                                    attr_weights=g.attr_weights,
                                    node_ids=g.node_ids,
                                    attr_ids=g.attr_ids)
        with pytest.raises(ValueError, match="labels"):
            evaluate(_model_from_labels(labels), unlabeled)

    def test_impossible_split_errors_after_retries(self):
        labels = np.arange(10) % 3  # 10 nodes, 3 classes
        model = _model_from_labels(labels)
        g = _labeled_graph(labels)
        with pytest.raises(ValueError, match="20 attempts"):
            evaluate(model, g, task="classification", repeats=1,
                     train_fraction=0.1, seed=0)  # train size 1 < 3 classes

    def test_unknown_task(self):
        labels = np.repeat([0, 1], 8)
        with pytest.raises(ValueError, match="task"):
            evaluate(_model_from_labels(labels), _labeled_graph(labels),
                     task="regression")
