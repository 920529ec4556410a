import dataclasses
import logging
import re

import numpy as np
import pytest
from scipy import sparse

import oracles
from semgraph import sideinfo
from semgraph import (AttributedGraph, SideInfo, WalkMatrix, build_side_info,
                      embed, objective_value, side_enhance, update_x,
                      update_y)


def _graph(A, R, **kwargs):
    return AttributedGraph.from_dense(A, R, **kwargs)


def _sources(g):
    """The reference's dense mnorm-ed modularity matrix and attribute
    cosine of g."""
    Q = oracles.modularity_matrix(g.adjacency.toarray())
    S = oracles.attribute_cosine(g.attr_weights.toarray())
    return oracles.mnorm(Q), oracles.mnorm(S)


def _dense_similarity(side):
    """The dense weighted sum T of the mnorm-ed sources."""
    q, s = _sources(side.graph)
    return side.lambdas[0] * q + side.lambdas[1] * s


def _dense_laplacian(side):
    """The reference node Laplacian: D_T - T."""
    return oracles.laplacian(_dense_similarity(side))


def _cosines(A, R):
    """The reference attribute cosine and the pipeline's U U^T, the
    product of the unit attribute rows its operator applies."""
    U = sideinfo._unit_rows(_graph(A, R).attr_weights)
    return oracles.attribute_cosine(R), (U @ U.T).toarray()


def _close(got, expect, scale=None):
    """Within 1e-12 of `expect`, relative to its norm or to `scale`."""
    if scale is None:
        scale = np.linalg.norm(expect)
    return np.linalg.norm(got - expect) <= 1e-12 * scale


def _matches_reference(L, side, X):
    """L @ X and L's diagonal agree with the dense reference within
    1e-12 of ||T|| ||X||: where the reference L is exactly zero (T
    diagonal), the operator's D_T - T cancels to rounding."""
    T = _dense_similarity(side)
    dense = oracles.laplacian(T)
    scale = np.linalg.norm(T)
    return (_close(L @ X, dense @ X, scale * np.linalg.norm(X))
            and _close(L.diagonal(), np.diag(dense), scale))


def _triangle(attrs=None):
    A = np.ones((3, 3)) - np.eye(3)
    R = np.eye(3) if attrs is None else attrs
    return _graph(A, R)


def _modularity_range(g):
    return sideinfo._modularity_range(g.adjacency)


class TestModularity:
    """The reference modularity matrix on worked examples, and the
    extremes the pipeline's operator takes of it."""

    def test_triangle(self):
        A = np.ones((3, 3)) - np.eye(3)
        Q = oracles.modularity_matrix(A)
        assert np.allclose(Q - np.diag(np.diag(Q)),
                           (1 / 3) * (np.ones((3, 3)) - np.eye(3)))
        assert np.allclose(np.diag(Q), -2 / 3)
        assert np.allclose(_modularity_range(_triangle()), (-2 / 3, 1 / 3))

    def test_single_edge(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = oracles.modularity_matrix(A)
        assert np.allclose(Q, [[-0.5, 0.5], [0.5, -0.5]])
        assert _modularity_range(_graph(A, np.ones((2, 1)))) == (-0.5, 0.5)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A, R0 = oracles.random_connected_graph(rng)
            Q = oracles.modularity_matrix(A)
            assert np.abs(Q.sum(axis=1)).max() <= 1e-10
            assert _modularity_range(_graph(A, R0)) == (Q.min(), Q.max())

    def test_edgeless_rejected(self):
        A = np.zeros((2, 2))
        g = _graph(A, np.ones((2, 1)))
        with pytest.raises(ValueError, match="edge"):
            SideInfo(g, (1.0, 1.0))


class TestAttributeCosine:
    """The reference cosine and the pipeline's product of unit rows on
    worked examples."""

    def test_identical_rows(self):
        R = np.array([[1.0, 2.0], [1.0, 2.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        for S in _cosines(A, R):
            assert abs(S[0, 1] - 1.0) < 1e-12

    def test_disjoint_supports(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        for S in _cosines(A, R):
            assert S[0, 1] == 0.0

    def test_half_overlap(self):
        R = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        for S in _cosines(A, R):
            assert abs(S[0, 1] - 0.5) < 1e-12

    def test_zero_rows_zero_everywhere(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        A[1, 2] = A[2, 1] = 1.0
        R = np.array([[1.0], [0.0], [0.0]])
        for S in _cosines(A, R):
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
        for S in _cosines(A, R):
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
        assert _matches_reference(L, side, np.eye(g.n))
        assert L.shape == (g.n, g.n) and g.m > 0
        rng = np.random.default_rng(3)
        size = g.n + g.m
        Z = rng.normal(size=(size, size))
        Y = rng.normal(size=(size, 2))
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
        dense = _dense_laplacian(side)
        assert _matches_reference(L, side, np.eye(g.n))
        size = g.n + g.m
        padded = np.zeros((size, size))
        padded[:g.n, :g.n] = dense
        Z = rng.normal(size=(size, size))
        Y = rng.normal(size=(size, 3))
        assert (np.abs(update_x(Z, Y, L) - update_x(Z, Y, padded)).max()
                <= 1e-12)

    def test_node_laplacian_linear_in_lambdas(self):
        """L(a, b) = a L(1, 0) + b L(0, 1), each with the ones vector in
        its kernel, and L(a, b) matches the dense reference."""
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
            assert _matches_reference(L, side, X)

    def test_similarity_sources_symmetric_and_unstored(self):
        g = _triangle()
        side = build_side_info(g)
        for T in _sources(g):
            assert T.shape == (g.n, g.n)
            assert np.array_equal(T, T.T)
            assert T.min() >= 0.0 and T.max() <= 1.0
        stored = [getattr(side, f.name) for f in dataclasses.fields(side)]
        assert not any(isinstance(v, np.ndarray) for v in stored)

    # SideInfo checks itself: a direct construction is rejected as
    # build_side_info's is
    constructors = (build_side_info, SideInfo)

    def test_lambdas_stored_as_float_pair(self):
        for make in self.constructors:
            lambdas = make(_triangle(), [1, np.float32(0.5)]).lambdas
            assert lambdas == (1.0, 0.5)
            assert all(type(x) is float for x in lambdas)

    def test_negative_lambda_rejected(self):
        for make in self.constructors:
            for bad in (-1.0, np.nan, np.inf, -np.inf):
                for lambdas in ((bad, 0.0), (1.0, bad)):
                    with pytest.raises(ValueError, match="lambdas"):
                        make(_triangle(), lambdas)

    def test_two_weights_required(self):
        for make in self.constructors:
            for lambdas in ((1.0, 1.0, 1.0), (1.0,), ()):
                with pytest.raises(ValueError, match="two source weights"):
                    make(_triangle(), lambdas)

    def test_edgeless_rejected(self):
        g = _graph(np.zeros((2, 2)), np.ones((2, 1)))
        for make in self.constructors:
            with pytest.raises(ValueError, match=re.escape(
                    "modularity is undefined for an edgeless graph")):
                make(g, (1.0, 1.0))

    def test_edgeless_refines_without_modularity(self):
        """Only a weighted modularity needs an edge: at lambda = (0, 1) an
        edgeless graph refines, with the mnorm-ed cosine's Laplacian."""
        W = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                      [1.0, 1.0]])
        g = _graph(np.zeros((5, 5)), W)
        for lambdas in ((1.0, 0.0), (1.0, 1.0)):
            for make in self.constructors:
                with pytest.raises(ValueError, match=re.escape(
                        "modularity is undefined for an edgeless graph")):
                    make(g, lambdas)
        side = build_side_info(g, (0.0, 1.0))
        L = side.node_laplacian
        dense = oracles.laplacian(oracles.mnorm(oracles.attribute_cosine(W)))
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert _close(L @ X, dense @ X, np.linalg.norm(X))
        assert _close(L.diagonal(), np.diag(dense), 1.0)
        from semgraph import build_hetero_adjacency, walk_matrix
        walk = walk_matrix(build_hetero_adjacency(g))
        refined = side_enhance(embed(g, dim=3), walk, side)
        assert np.all(np.isfinite(refined.vectors))


def _variants(rng):
    """Valid graphs on a `random_connected_graph` instance, by name."""
    A, R0 = oracles.random_connected_graph(rng)
    n = A.shape[0]
    isolated = np.zeros((n + 2, n + 2))  # two nodes without edges
    isolated[:n, :n] = A
    lone = np.zeros((2, R0.shape[1]))
    lone[:, 0] = 1.0  # that carry attribute 0
    star = np.zeros((n, n))
    star[0, 1:] = star[1:, 0] = 1.0
    shared = R0.copy()
    shared[:, 0] = 1.0  # every pair shares attribute 0
    bare = R0.copy()
    bare[0] = 0.0
    bare[1, bare.sum(axis=0) == 0] = 1.0  # columns only node 0 carried
    cases = {
        "plain": (A, R0),
        "isolated nodes": (isolated, np.vstack([R0, lone])),
        "complete": (np.ones((n, n)) - np.eye(n), R0),
        "star": (star, R0),
        "full overlap": (A, shared),
        "nodes without attributes": (A, bare),
        "no attributes": (A, np.zeros((n, 0))),
    }
    graphs = {name: AttributedGraph(
        adjacency=sparse.csr_array(adj), attr_weights=sparse.csr_array(R),
        node_ids=[str(i) for i in range(adj.shape[0])],
        attr_ids=[str(w) for w in range(R.shape[1])])
        for name, (adj, R) in cases.items()}
    # every edge stored twice, as 0.25 and 0.75, which the graph sums
    graphs["duplicate entries"] = dataclasses.replace(
        graphs["plain"], adjacency=oracles.stored_twice(A))
    # an explicit 0.0 stored on the diagonal, which is no self-loop
    coo = sparse.coo_array(A)
    zero_diagonal = sparse.csr_array(sparse.coo_array(
        (np.r_[coo.data, 0.0], (np.r_[coo.row, 0], np.r_[coo.col, 0])),
        shape=A.shape))
    graphs["stored zero on the diagonal"] = dataclasses.replace(
        graphs["plain"], adjacency=zero_diagonal)
    assert graphs["stored zero on the diagonal"].adjacency.nnz == coo.nnz + 1
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
                Q = oracles.modularity_matrix(g.adjacency.toarray())
                assert _modularity_range(g) == (Q.min(), Q.max()), name
                lo, hi = sideinfo._cosine_range(
                    sideinfo._unit_rows(g.attr_weights))
                S = oracles.attribute_cosine(g.attr_weights.toarray())
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

    def test_rows_of_x_checked(self):
        L = SideInfo(_triangle(), (1.0, 1.0)).node_laplacian
        for X in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(ValueError, match="L covers 3 rows"):
                L @ X

    def test_update_x_matches_lu(self):
        """`update_x` with the operator matches the literal formula with
        the dense reference, solved by LU."""
        rng = np.random.default_rng(22)
        for _ in range(5):
            for name, g in _variants(rng).items():
                side = SideInfo(g, tuple(rng.uniform(0, 3, size=2)))
                size = g.n + g.m
                Z = rng.normal(size=(size, size))
                Y = rng.normal(size=(size, 3))
                left = Z @ Y
                left[:g.n] = np.linalg.solve(
                    np.eye(g.n) + _dense_laplacian(side), left[:g.n])
                expect = np.linalg.solve(Y.T @ Y + np.eye(3), left.T).T
                got = update_x(Z, Y, side.node_laplacian)
                assert (np.abs(got - expect).max()
                        <= 1e-10 * np.abs(expect).max()), name


class TestRegularizationValue:
    """The reference penalty that `objective_value`'s term is checked
    against."""

    def test_constant_rows_no_penalty(self):
        X = np.ones((4, 3))
        T = np.random.default_rng(2).random((4, 4))
        T = (T + T.T) / 2
        assert abs(oracles.regularization_value(X, T)) <= 1e-12

    def test_zero_similarity_no_penalty(self):
        X = np.random.default_rng(3).normal(size=(4, 2))
        assert oracles.regularization_value(X, np.zeros((4, 4))) == 0.0

    def test_trace_equals_pairwise_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(6, 3))
            T = rng.random((6, 6))
            T = (T + T.T) / 2
            ours = oracles.regularization_value(X, T)
            ref = oracles.pairwise_penalty(X, T)
            assert abs(ours - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_asymmetric_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError, match="symmetric"):
            oracles.regularization_value(X, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_similarity_left_unchanged(self):
        rng = np.random.default_rng(5)
        T = rng.random((5, 5))
        T = (T + T.T) / 2
        before = T.copy()
        oracles.regularization_value(rng.normal(size=(5, 2)), T)
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
        path = np.eye(g.n + 1, k=1) + np.eye(g.n + 1, k=-1)
        longer = build_side_info(_graph(path, np.ones((g.n + 1, 1))))
        with pytest.raises(ValueError, match="side info covers"):
            side_enhance(model, walk, longer)

    def test_model_without_attribute_entities_refined(self):
        """A topology-only model+walk pair covers only the n nodes, while
        the graph the side info is built from has m attributes too: the
        penalties act on node rows only, so the round refines it."""
        g, _, _, side = self._setup()
        from semgraph import build_hetero_adjacency, walk_matrix
        bare = dataclasses.replace(
            g, attr_weights=sparse.csr_array((g.n, 0)), attr_ids=[])
        walk_abl = walk_matrix(build_hetero_adjacency(bare))
        ablated = embed(bare, dim=2)
        assert g.m > 0
        out = side_enhance(ablated, walk_abl, side)
        X = update_x(walk_abl.stored, ablated.context, side.node_laplacian)
        assert np.array_equal(out.vectors, X)

    def test_csr_walk_matches_dense_walk(self):
        """The walk is stored as CSR, and the same walk wrapped as a dense
        array is stored as the same CSR: the updates, the objective and
        the round give bit-identical results on both."""
        from semgraph import (build_hetero_adjacency, factorize,
                              planted_attributed_sbm, walk_matrix)
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        walk = walk_matrix(build_hetero_adjacency(g))
        dense = WalkMatrix(stored=walk.matrix, n=walk.n)
        assert sparse.issparse(walk.stored)
        model = factorize(walk, 4)
        side = build_side_info(g)
        L = side.node_laplacian
        Z, X, Y = walk.stored, model.vectors, model.context
        assert np.array_equal(update_x(Z, Y, L), update_x(walk.matrix, Y, L))
        assert np.array_equal(update_y(Z, X), update_y(walk.matrix, X))
        assert (objective_value(Z, X, Y, L)
                == objective_value(walk.matrix, X, Y, L))
        a = side_enhance(model, walk, side)
        b = side_enhance(model, dense, side)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.context, b.context)

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
        for lam, T in zip(side.lambdas, _sources(side.graph)):
            manual += lam * oracles.regularization_value(X[:side.graph.n], T)
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
