import dataclasses
import logging
import re

import numpy as np
import pytest
from scipy import sparse

import oracles
from semgraph import sideinfo
from semgraph import (AttributedGraph, SideInfo, WalkMatrix, attribute_cosine,
                      build_side_info, embed, modularity_matrix,
                      objective_value, regularization_value, side_enhance,
                      update_x, update_y)


def _graph(A, R, **kwargs):
    return AttributedGraph.from_dense(A, R, **kwargs)


def _dense_laplacian(side):
    """The reference node Laplacian: D_T - T of the dense weighted sum T
    of the mnorm-ed sources."""
    lam1, lam2 = side.lambdas
    return sideinfo._laplacian(lam1 * side.q_norm + lam2 * side.s_norm)


def _close(got, expect, scale=None):
    """Within 1e-12 of `expect`, relative to its norm or to `scale`."""
    if scale is None:
        scale = np.linalg.norm(expect)
    return np.linalg.norm(got - expect) <= 1e-12 * scale


def _matches_reference(L, side, X):
    """L @ X and L's diagonal agree with the dense reference within
    1e-12 of ||T|| ||X||: where the reference L is exactly zero (T
    diagonal), the operator's D_T - T cancels to rounding."""
    lam1, lam2 = side.lambdas
    T = lam1 * side.q_norm + lam2 * side.s_norm
    dense = _dense_laplacian(side)
    scale = np.linalg.norm(T)
    return (_close(L @ X, dense @ X, scale * np.linalg.norm(X))
            and _close(L.diagonal(), np.diag(dense), scale))


def _triangle(attrs=None):
    A = np.ones((3, 3)) - np.eye(3)
    R = np.eye(3) if attrs is None else attrs
    return _graph(A, R)


class TestModularity:
    def test_triangle(self):
        Q = modularity_matrix(_triangle())
        assert np.allclose(Q - np.diag(np.diag(Q)),
                           (1 / 3) * (np.ones((3, 3)) - np.eye(3)))
        assert np.allclose(np.diag(Q), -2 / 3)

    def test_single_edge(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = modularity_matrix(_graph(A, np.ones((2, 1))))
        assert np.allclose(Q, [[-0.5, 0.5], [0.5, -0.5]])

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A, R0 = oracles.random_connected_graph(rng)
            g = _graph(A, R0)
            Q = modularity_matrix(g)
            assert np.abs(Q.sum(axis=1)).max() <= 1e-10
            assert np.allclose(Q, oracles.modularity_oracle(A), atol=1e-12)

    def test_edgeless_rejected(self):
        A = np.zeros((2, 2))
        g = _graph(A, np.ones((2, 1)))
        with pytest.raises(ValueError, match="edge"):
            modularity_matrix(g)


class TestAttributeCosine:
    def test_identical_rows(self):
        R = np.array([[1.0, 2.0], [1.0, 2.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = attribute_cosine(_graph(A, R))
        assert abs(S[0, 1] - 1.0) < 1e-12

    def test_disjoint_supports(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert attribute_cosine(_graph(A, R))[0, 1] == 0.0

    def test_half_overlap(self):
        R = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(attribute_cosine(_graph(A, R))[0, 1] - 0.5) < 1e-12

    def test_zero_rows_zero_everywhere(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        A[1, 2] = A[2, 1] = 1.0
        R = np.array([[1.0], [0.0], [0.0]])
        S = attribute_cosine(_graph(A, R))
        assert S[1, 1] == 0.0 and S[1, 0] == 0.0 and S[2, 2] == 0.0

    @pytest.mark.parametrize("case", sorted(oracles.symmetry_cases()))
    def test_exactly_symmetric(self, case):
        # no symmetrizing pass: the product of the unit rows is exact
        R = oracles.symmetry_cases()[case]
        n = R.shape[0]
        A = np.zeros((n, n))
        if n > 1:  # a ring, so the node without attributes has edges
            ring = np.arange(n)
            A[ring, (ring + 1) % n] = A[(ring + 1) % n, ring] = 1.0
        S = attribute_cosine(_graph(A, R))
        assert np.array_equal(S, S.T)


class TestBuildSideInfo:
    def test_zero_lambdas_zero_laplacian(self):
        side = build_side_info(_triangle(), lambdas=(0.0, 0.0))
        L = side.node_laplacian
        assert not (L @ np.eye(3)).any() and not L.diagonal().any()

    def test_single_source_pads_attribute_rows(self):
        """One source: L is that source's Laplacian over the n nodes, and
        the refinement leaves the m attribute rows unpenalised."""
        g = _triangle()
        side = build_side_info(g, lambdas=(1.0, 0.0))
        L = side.node_laplacian
        q = side.q_norm
        dense = _dense_laplacian(side)
        assert np.array_equal(dense, np.diag(q.sum(axis=1)) - q)
        assert _matches_reference(L, side, np.eye(g.n))
        assert L.shape == (g.n, g.n) and side.size == g.n + g.m and g.m > 0
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(side.size, side.size))
        Y = rng.normal(size=(side.size, 2))
        attrs = (Z @ Y)[g.n:] @ np.linalg.inv(Y.T @ Y + np.eye(2))
        assert np.abs(update_x(Z, Y, L)[g.n:] - attrs).max() <= 1e-12

    def test_laplacian_kernel(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A, R0 = oracles.random_connected_graph(rng)
            g = _graph(A, R0)
            ones = np.ones(g.n)
            for lambdas in ((1.0, 0.0), (0.0, 1.0),
                            (rng.uniform(0, 2), rng.uniform(0, 2))):
                side = build_side_info(g, lambdas=lambdas)
                L = side.node_laplacian
                assert L.shape == (g.n, g.n)
                assert np.linalg.norm(L @ ones) <= 1e-10
                dense = _dense_laplacian(side)
                assert np.linalg.norm(dense @ ones) <= 1e-10
                assert np.abs(dense.sum(axis=1)).max() <= 1e-10

    def test_combined_is_padded_node_laplacian(self):
        """node_laplacian is exactly D_T - T, and update_x treats it as
        that Laplacian zero-padded to all n+m entities."""
        rng = np.random.default_rng(2)
        A, R0 = oracles.random_connected_graph(rng)
        g = _graph(A, R0)
        side = build_side_info(g, lambdas=(0.7, 1.3))
        L = side.node_laplacian
        T = 0.7 * side.q_norm + 1.3 * side.s_norm
        dense = _dense_laplacian(side)
        assert np.array_equal(dense, np.diag(T.sum(axis=1)) - T)
        assert _matches_reference(L, side, np.eye(g.n))
        padded = np.zeros((side.size, side.size))
        padded[:g.n, :g.n] = dense
        Z = rng.normal(size=(side.size, side.size))
        Y = rng.normal(size=(side.size, 3))
        assert (np.abs(update_x(Z, Y, L) - update_x(Z, Y, padded)).max()
                <= 1e-12)

    def test_node_laplacian_linear_in_lambdas(self):
        """L(a, b) = a L(1, 0) + b L(0, 1), each with the ones vector in
        its kernel, and the dense reference L(a, b) is exactly D_T - T for
        the weighted sum T of the two sources."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            A, R0 = oracles.random_connected_graph(rng)
            g = _graph(A, R0)
            a, b = rng.uniform(0, 2, size=2)
            side = SideInfo(g, (a, b))
            L = side.node_laplacian
            L_q = SideInfo(g, (1.0, 0.0)).node_laplacian
            L_s = SideInfo(g, (0.0, 1.0)).node_laplacian
            X = rng.normal(size=(g.n, 3))
            assert _close(L @ X, a * (L_q @ X) + b * (L_s @ X))
            ones = np.ones(g.n)
            for M in (L, L_q, L_s):
                assert np.linalg.norm(M @ ones) <= 1e-10
            T = a * side.q_norm + b * side.s_norm
            dense = _dense_laplacian(side)
            assert np.array_equal(dense, np.diag(T.sum(axis=1)) - T)
            assert _matches_reference(L, side, X)

    def test_similarity_sources_symmetric_and_unstored(self):
        g = _triangle()
        side = build_side_info(g)
        for T in (side.q_norm, side.s_norm):
            assert T.shape == (g.n, g.n)
            assert np.array_equal(T, T.T)
            assert T.min() >= 0.0 and T.max() <= 1.0
        stored = [getattr(side, f.name) for f in dataclasses.fields(side)]
        assert not any(isinstance(v, np.ndarray) for v in stored)

    def test_negative_lambda_rejected(self):
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            for lambdas in ((bad, 0.0), (1.0, bad)):
                with pytest.raises(ValueError, match="lambdas"):
                    build_side_info(_triangle(), lambdas=lambdas)

    def test_two_weights_required(self):
        with pytest.raises(ValueError):
            build_side_info(_triangle(), lambdas=(1.0, 1.0, 1.0))

    def test_edgeless_rejected(self):
        g = _graph(np.zeros((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError) as raised:
            modularity_matrix(g)
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            build_side_info(g)


def _variants(rng):
    """Graphs on a `random_connected_graph` instance, by name.  Weighted
    edges and self-loops are outside what `validate` accepts, so they are
    built without it."""
    A, R0 = oracles.random_connected_graph(rng)
    n = A.shape[0]
    weighted = np.triu(A * rng.uniform(0.5, 3.0, size=(n, n)))
    # heavy weights and a self-loop on every node: each stored entry can
    # fall below the non-edges', so the largest entry is a non-edge's
    heavy = 50.0 * (weighted + weighted.T + np.eye(n))
    # degrees of either sign, and no unstored diagonal entry to stand in
    # for the non-edge of extreme degree product
    signed = (weighted + np.eye(n)) * rng.choice([-1.0, 1.0], size=(n, n))
    loops = A.copy()
    loops[np.diag_indices(n)] = rng.random(n) < 0.5
    loops[0, 0] = 1.0
    isolated = np.zeros((n + 2, n + 2))  # two nodes without edges
    isolated[:n, :n] = A
    shared = R0.copy()
    shared[:, 0] = 1.0  # every pair shares attribute 0
    bare = R0.copy()
    bare[0] = 0.0
    cases = {
        "plain": (A, R0),
        "weighted": (weighted + weighted.T, R0),
        "heavy weights and self-loops": (heavy, R0),
        "signed weights and self-loops": (signed + signed.T, R0),
        "self-loops": (loops, R0),
        "isolated nodes": (isolated, np.vstack([R0, R0[:2]])),
        "complete": (np.ones((n, n)) - np.eye(n), R0),
        "complete with self-loops": (np.ones((n, n)), R0),
        "full overlap": (A, shared),
        "nodes without attributes": (A, bare),
        "no attributes": (A, np.zeros((n, 0))),
    }
    graphs = {name: AttributedGraph(
        adjacency=sparse.csr_array(adj), attr_weights=sparse.csr_array(R),
        node_ids=[str(i) for i in range(adj.shape[0])],
        attr_ids=[str(w) for w in range(R.shape[1])])
        for name, (adj, R) in cases.items()}
    # every edge stored twice, as 0.25 and 0.75: a CSR array that is not
    # in canonical form, which `validate` accepts
    edges = sparse.csr_array(A)
    rows = [slice(a, b) for a, b in zip(edges.indptr[:-1], edges.indptr[1:])]
    cols = np.concatenate([np.tile(edges.indices[r], 2) for r in rows])
    values = np.concatenate([np.r_[0.25 * edges.data[r],
                                   0.75 * edges.data[r]] for r in rows])
    twice = sparse.csr_array((values, cols, 2 * edges.indptr), shape=(n, n))
    graphs["duplicate entries"] = dataclasses.replace(graphs["plain"],
                                                      adjacency=twice)
    return graphs


class TestNodeLaplacian:
    """The structured operator against the dense reference D_T - T."""

    @pytest.mark.parametrize("block", [sideinfo._GRAM_BLOCK, 3])
    def test_source_ranges(self, block, monkeypatch):
        """Modularity's extremes are the dense mnorm's bit for bit; the
        cosine's agree to rounding, and are 0 exactly when it is."""
        monkeypatch.setattr(sideinfo, "_GRAM_BLOCK", block)
        rng = np.random.default_rng(20)
        seen = set()
        for _ in range(20):
            for name, g in _variants(rng).items():
                got = sideinfo._modularity_range(
                    *sideinfo._modularity_parts(g))
                Q = modularity_matrix(g)
                assert got == (Q.min(), Q.max()), name
                lo, hi = sideinfo._cosine_range(
                    sideinfo._unit_rows(g.attr_weights))
                S = attribute_cosine(g)
                assert abs(lo - S.min()) <= 4e-16
                assert abs(hi - S.max()) <= 4e-16
                assert (lo == 0.0) == (S.min() == 0.0)
                seen.add((name, lo == 0.0))
        assert ("full overlap", False) in seen
        assert ("nodes without attributes", True) in seen

    def test_operator_matches_dense_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            for name, g in _variants(rng).items():
                for lambdas in ((1.0, 0.0), (0.0, 1.0),
                                tuple(rng.uniform(0, 3, size=2))):
                    side = SideInfo(g, lambdas)
                    L = side.node_laplacian
                    assert L.shape == (g.n, g.n)
                    X = rng.normal(size=(g.n, 4))
                    assert _matches_reference(L, side, X), name
                    assert _matches_reference(L, side, X[:, 0]), name
                    assert not (L @ np.ones(g.n)).any(), name

    def test_update_x_matches_lu(self):
        """`update_x` with the operator matches the literal formula with
        the dense reference, solved by LU."""
        rng = np.random.default_rng(22)
        for _ in range(5):
            for name, g in _variants(rng).items():
                side = SideInfo(g, tuple(rng.uniform(0, 3, size=2)))
                Z = rng.normal(size=(side.size, side.size))
                Y = rng.normal(size=(side.size, 3))
                left = Z @ Y
                left[:g.n] = np.linalg.solve(
                    np.eye(g.n) + _dense_laplacian(side), left[:g.n])
                expect = np.linalg.solve(Y.T @ Y + np.eye(3), left.T).T
                got = update_x(Z, Y, side.node_laplacian)
                assert (np.abs(got - expect).max()
                        <= 1e-10 * np.abs(expect).max()), name


class TestRegularizationValue:
    def test_constant_rows_no_penalty(self):
        X = np.ones((4, 3))
        T = np.random.default_rng(2).random((4, 4))
        T = (T + T.T) / 2
        assert abs(regularization_value(X, T)) <= 1e-12

    def test_zero_similarity_no_penalty(self):
        X = np.random.default_rng(3).normal(size=(4, 2))
        assert regularization_value(X, np.zeros((4, 4))) == 0.0

    def test_trace_equals_pairwise_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(6, 3))
            T = rng.random((6, 6))
            T = (T + T.T) / 2
            ours = regularization_value(X, T)
            ref = oracles.pairwise_penalty(X, T)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_asymmetric_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError, match="symmetric"):
            regularization_value(X, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_similarity_left_unchanged(self):
        rng = np.random.default_rng(5)
        T = rng.random((5, 5))
        T = (T + T.T) / 2
        before = T.copy()
        regularization_value(rng.normal(size=(5, 2)), T)
        assert np.array_equal(T, before)


class TestUpdates:
    def test_identity_case(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(6, 6))
        Y, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        got = update_x(Z, Y, np.zeros((6, 6)))
        assert np.allclose(got, Z @ Y / 2.0, atol=1e-10)

    def test_zero_target(self):
        Y = np.random.default_rng(6).normal(size=(5, 2))
        X = np.random.default_rng(7).normal(size=(5, 2))
        assert not update_x(np.zeros((5, 5)), Y, np.zeros((5, 5))).any()
        assert not update_y(np.zeros((5, 5)), X).any()

    def test_update_y_normal_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            Z = rng.normal(size=(7, 7))
            X = rng.normal(size=(7, 3))  # full column rank a.s.
            Y = update_y(Z, X)
            resid = np.linalg.norm(Y @ (X.T @ X) - Z.T @ X)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(Z.T @ X))
            grad = oracles.objective_grad_y(Z, X, Y)
            assert np.linalg.norm(grad) <= 1e-8 * (
                1.0 + np.linalg.norm(Z.T @ X))

    def test_update_x_matches_literal_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            size, k = 8, 3
            Z = rng.normal(size=(size, size))
            Y = rng.normal(size=(size, k))
            T = rng.random((size, size))
            T = (T + T.T) / 2
            L = np.diag(T.sum(axis=1)) - T
            ours = update_x(Z, Y, L)
            ref = oracles.regularized_x_oracle(Z, Y, L)
            assert np.abs(ours - ref).max() <= 1e-10

    def test_update_x_node_block_laplacian(self):
        rng = np.random.default_rng(12)
        size, n, k = 11, 7, 3
        for _ in range(10):
            Z = rng.normal(size=(size, size))
            Y = rng.normal(size=(size, k))
            T = rng.random((n, n))
            T = (T + T.T) / 2
            L = np.diag(T.sum(axis=1)) - T
            padded = np.zeros((size, size))
            padded[:n, :n] = L
            ours = update_x(Z, Y, L)
            assert np.abs(ours - update_x(Z, Y, padded)).max() <= 1e-12
            attrs = (Z @ Y)[n:] @ np.linalg.inv(Y.T @ Y + np.eye(k))
            assert np.abs(ours[n:] - attrs).max() <= 1e-12
        with pytest.raises(ValueError, match="L must"):
            update_x(Z, Y, np.zeros((size + 1, size + 1)))
        with pytest.raises(ValueError, match="L must"):
            update_x(Z, Y, np.zeros((n, n + 1)))

    def test_update_x_singular_system_raises(self):
        """L = -I_p makes I_p + L zero: the solve must fail, not return."""
        rng = np.random.default_rng(13)
        Z = rng.normal(size=(6, 6))
        Y = rng.normal(size=(6, 2))
        for p in (4, 6):
            with pytest.raises(np.linalg.LinAlgError):
                update_x(Z, Y, -np.eye(p))

    def test_update_x_indefinite_system_raises(self):
        """I + L = [[1, 2], [2, 1]] has a positive diagonal but is
        indefinite: conjugate gradients meet p^T (I + L) p < 0."""
        L = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            update_x(np.eye(2), np.array([[1.0], [0.0]]), L)

    def test_update_x_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(14)
        T = rng.random((8, 8))
        T = (T + T.T) / 2
        L = np.diag(T.sum(axis=1)) - T
        Z, Y = rng.normal(size=(8, 8)), rng.normal(size=(8, 2))
        monkeypatch.setattr(sideinfo, "REFINE_MAX_ITERATIONS", 1)
        with pytest.raises(np.linalg.LinAlgError,
                           match="refinement solve failed to converge"):
            update_x(Z, Y, L)

    def test_solve_columns_converge_separately(self):
        """A zero column, the ones vector (which I + L fixes) and generic
        columns leave the working set at different iterations; each is
        the LU solution."""
        rng = np.random.default_rng(15)
        T = rng.random((30, 30))
        T = (T + T.T) / 2
        L = np.diag(T.sum(axis=1)) - T
        B = rng.normal(size=(30, 5))
        B[:, 1] = 0.0
        B[:, 3] = np.ones(30)  # L's kernel: (I + L)^-1 1 = 1
        got = sideinfo._solve_shifted(L, B)
        expect = np.linalg.solve(np.eye(30) + L, B)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        assert not got[:, 1].any()

    def test_exact_least_squares_variant(self):
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(6, 6))
        Y = rng.normal(size=(6, 2))
        X_ls = Z @ Y @ np.linalg.pinv(Y.T @ Y)
        resid = np.linalg.norm(X_ls @ (Y.T @ Y) - Z @ Y)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(Z @ Y))

    def test_non_finite_rejected(self):
        Z = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            update_x(Z, np.zeros((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            update_y(Z, np.zeros((2, 1)))


class TestGradients:
    def test_against_central_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            size = int(rng.integers(3, 8))
            k = int(rng.integers(1, 4))
            Z = rng.normal(size=(size, size))
            X = rng.normal(size=(size, k))
            Y = rng.normal(size=(size, k))
            T = rng.random((size, size))
            T = (T + T.T) / 2
            L = np.diag(T.sum(axis=1)) - T

            def f_x(M):
                return (np.linalg.norm(Z - M @ Y.T) ** 2
                        + np.trace(M.T @ L @ M))

            def f_y(M):
                return np.linalg.norm(Z - X @ M.T) ** 2

            gx = oracles.objective_grad_x(Z, X, Y, L)
            gy = oracles.objective_grad_y(Z, X, Y)
            nx = oracles.numeric_grad(f_x, X)
            ny = oracles.numeric_grad(f_y, Y)
            assert np.linalg.norm(gx - nx) / np.linalg.norm(nx) <= 1e-5
            assert np.linalg.norm(gy - ny) / np.linalg.norm(ny) <= 1e-5


class TestSideEnhance:
    def _setup(self, lambdas=(1.0, 1.0)):
        rng = np.random.default_rng(12)
        A, R0 = oracles.random_connected_graph(rng, max_n=6, max_m=3)
        g = _graph(A, R0)
        from semgraph import build_hetero_adjacency, factorize, walk_matrix
        hetero = build_hetero_adjacency(g)
        walk = walk_matrix(hetero)
        model = factorize(walk, min(3, g.n + g.m))
        side = build_side_info(g, lambdas=lambdas)
        return g, walk, model, side

    def test_zero_lambda_normal_equations(self):
        _, walk, model, side = self._setup(lambdas=(0.0, 0.0))
        out = side_enhance(model, walk, side)
        Z, Y = walk.matrix, model.context
        k = model.dim
        resid = np.linalg.norm(out.vectors @ (Y.T @ Y + np.eye(k)) - Z @ Y)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(Z @ Y))

    def test_deterministic(self):
        _, walk, model, side = self._setup()
        a = side_enhance(model, walk, side)
        b = side_enhance(model, walk, side)
        assert np.array_equal(a.vectors, b.vectors)

    def test_objective_logged(self, caplog):
        _, walk, model, side = self._setup()
        with caplog.at_level(logging.INFO, logger="semgraph.sideinfo"):
            side_enhance(model, walk, side)
        assert "objective" in caplog.text

    def test_shape_mismatch_rejected(self):
        g, walk, model, side = self._setup()
        small = WalkMatrix(stored=np.eye(2), n=2)
        with pytest.raises(ValueError, match="sizes disagree"):
            side_enhance(model, small, side)
        # a topology-only model+walk pair covers only the n nodes, while
        # the side info built from g still covers all n+m entities
        from semgraph import build_hetero_adjacency, walk_matrix
        bare = dataclasses.replace(
            g, attr_weights=sparse.csr_array((g.n, 0)), attr_ids=[])
        walk_abl = walk_matrix(build_hetero_adjacency(bare))
        ablated = embed(bare, dim=2)
        assert side.size == g.n + g.m and g.m > 0
        with pytest.raises(ValueError, match="side info"):
            side_enhance(ablated, walk_abl, side)

    def test_csr_walk_matches_dense_walk(self):
        """At a Lanczos rank the walk is stored as CSR; the updates, the
        objective and the round read it as is and agree with the dense
        walk to rounding."""
        from semgraph import (build_hetero_adjacency, factorize,
                              planted_attributed_sbm, walk_matrix)
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        hetero = build_hetero_adjacency(g)
        walk, dense = walk_matrix(hetero, dim=4), walk_matrix(hetero)
        assert sparse.issparse(walk.stored)
        assert isinstance(dense.stored, np.ndarray)
        model = factorize(walk, 4)
        side = build_side_info(g)
        L = side.node_laplacian
        Z, X, Y = walk.stored, model.vectors, model.context

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        assert close(update_x(Z, Y, L), update_x(dense.stored, Y, L))
        assert close(update_y(Z, X), update_y(dense.stored, X))
        assert close(objective_value(Z, X, Y, L),
                     objective_value(dense.stored, X, Y, L))
        a = side_enhance(model, walk, side)
        b = side_enhance(model, dense, side)
        assert close(a.vectors, b.vectors) and close(a.context, b.context)

    def test_non_finite_csr_walk_rejected(self):
        Z = sparse.csr_array(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            update_x(Z, np.ones((2, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            update_y(Z, np.ones((2, 1)))

    def test_node_laplacian_built_once(self, monkeypatch):
        _, walk, model, side = self._setup()
        build = SideInfo.node_laplacian.fget
        reads = []

        def counted(self):
            reads.append(1)
            return build(self)

        monkeypatch.setattr(SideInfo, "node_laplacian", property(counted))
        side_enhance(model, walk, side)
        assert len(reads) == 1

    def test_objective_value_includes_penalty(self):
        _, walk, model, side = self._setup()
        Z, X, Y = walk.matrix, model.vectors, model.context
        base = objective_value(Z, X, Y)
        full = objective_value(Z, X, Y, side.node_laplacian)
        manual = base
        for lam, T in zip(side.lambdas, (side.q_norm, side.s_norm)):
            manual += lam * regularization_value(X[:side.graph.n], T)
        assert abs(full - manual) <= 1e-10 * max(1.0, abs(manual))

        # both Ls cover the leading p < size rows and penalize X[:p] only;
        # at 600 rows the residual spans several row blocks
        cases = [(Z, X, Y, side.node_laplacian)]
        rng = np.random.default_rng(13)
        size, p, k = 600, 450, 4
        T = rng.random((p, p))
        T = (T + T.T) / 2
        cases.append((rng.normal(size=(size, size)),
                      rng.normal(size=(size, k)), rng.normal(size=(size, k)),
                      np.diag(T.sum(axis=1)) - T))
        for Z, X, Y, L in cases:
            p = L.shape[0]
            assert p < Z.shape[0]
            expect = (np.linalg.norm(Z - X @ Y.T) ** 2
                      + np.trace(X[:p].T @ (L @ X[:p])))
            got = objective_value(Z, X, Y, L)
            assert abs(got - expect) <= 1e-12 * abs(expect)
        with pytest.raises(ValueError, match="L must"):
            objective_value(Z, X, Y, np.zeros((size + 1, size + 1)))
