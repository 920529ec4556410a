import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import sparse

import oracles
from semgraph import (AttributedGraph, WalkMatrix, build_hetero_adjacency,
                      embed, factorize, planted_attributed_sbm, walk_matrix)
from semgraph import embedding
from semgraph.cli import main
from semgraph.embedding import LANCZOS_MIN_RATIO


def _hetero_from_dense(B):
    """Wrap a plain symmetric matrix for walk_matrix calls."""
    size = B.shape[0]
    return type("H", (), {"matrix": np.asarray(B, dtype=float),
                          "n": size, "m": 0})()


class TestWalkMatrix:
    def test_two_node_edge_order_two(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        walk = walk_matrix(_hetero_from_dense(B), order=2, negatives=1)
        assert np.allclose(walk.matrix, 0.0, atol=1e-15)

    def test_triangle_order_one(self):
        B = np.ones((3, 3)) - np.eye(3)
        walk = walk_matrix(_hetero_from_dense(B), order=1, negatives=1)
        off = walk.matrix[0, 1]
        assert abs(off - np.log(1.5)) < 1e-12
        assert np.all(np.diag(walk.matrix) == 0.0)

    def test_large_negative_count_truncates_to_zero(self):
        B = np.ones((4, 4)) - np.eye(4)
        walk = walk_matrix(_hetero_from_dense(B), order=3, negatives=10 ** 9)
        assert not walk.matrix.any()

    def test_entries_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(0)
        graphs = [AttributedGraph.from_dense(*oracles.random_connected_graph(
            rng)) for _ in range(20)]
        graphs.append(planted_attributed_sbm(nodes=200, blocks=4, seed=0))
        for g in graphs:
            hetero = build_hetero_adjacency(g)
            walk = walk_matrix(hetero, order=int(rng.integers(1, 5)))
            Z = walk.matrix
            assert Z.min() >= 0.0
            # exact, so factorize takes its symmetric eigensolver path
            assert np.array_equal(Z, Z.T)

    def test_transition_rows_stochastic(self):
        rng = np.random.default_rng(1)
        A, R0 = oracles.random_connected_graph(rng)
        hetero = build_hetero_adjacency(AttributedGraph.from_dense(A, R0))
        B = hetero.matrix
        P = B / B.sum(axis=1)[:, None]
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            A, R0 = oracles.random_connected_graph(rng)
            hetero = build_hetero_adjacency(AttributedGraph.from_dense(A, R0))
            order = int(rng.integers(1, 5))
            ours = walk_matrix(hetero, order=order, negatives=1).matrix
            ref = oracles.walk_oracle(hetero.matrix.toarray(), order, 1)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() / scale < 1e-10

    def test_block_width_leaves_result_unchanged(self, monkeypatch):
        g = planted_attributed_sbm(nodes=100, blocks=4, attrs_per_block=12,
                                   inclusion=0.3, seed=3)
        hetero = build_hetero_adjacency(g)
        size = hetero.matrix.shape[0]
        assert size % embedding.WALK_BLOCK  # a partial edge tile
        ref = walk_matrix(hetero, order=3).matrix
        for block in (1, 7, size + 1):
            monkeypatch.setattr(embedding, "WALK_BLOCK", block)
            Z = walk_matrix(hetero, order=3).matrix
            assert np.array_equal(Z, ref)
            assert np.array_equal(Z, Z.T)

    @pytest.mark.parametrize("order", [1, 4, 10])
    @pytest.mark.parametrize("last_block", ["partial", "one column"])
    def test_csr_form_equals_dense(self, order, last_block, monkeypatch):
        """At a rank `factorize` runs Lanczos for, the walk is stored as
        CSR (sorted int32 indices, no stored zeros) holding exactly the
        dense walk's values."""
        g = planted_attributed_sbm(nodes=100, blocks=4, attrs_per_block=12,
                                   inclusion=0.3, seed=3)
        hetero = build_hetero_adjacency(g)
        size = hetero.matrix.shape[0]
        assert size % embedding.WALK_BLOCK > 1  # a partial last block
        if last_block == "one column":
            monkeypatch.setattr(embedding, "WALK_BLOCK", size - 1)
        dense = walk_matrix(hetero, order=order)
        assert isinstance(dense.stored, np.ndarray)
        dim = size // LANCZOS_MIN_RATIO
        walk = walk_matrix(hetero, order=order, dim=dim)
        Z = walk.stored
        assert type(Z) is sparse.csr_array
        assert Z.indices.dtype == np.int32 and Z.indptr.dtype == np.int32
        assert np.all(Z.data != 0.0)
        rows = np.repeat(np.arange(size), np.diff(Z.indptr))
        assert np.all(np.diff(rows * size + Z.indices) > 0)  # sorted, unique
        assert np.array_equal(walk.matrix, dense.matrix)
        assert walk.n == dense.n and walk.m == dense.m
        assert isinstance(walk_matrix(hetero, order=order,
                                      dim=dim + 1).stored, np.ndarray)

    def test_attribute_count_read_off_shape(self):
        Z = np.zeros((7, 7))
        for k in (0, 3, 7):
            assert WalkMatrix(stored=Z, n=k).m == Z.shape[0] - k

    def test_parameter_validation(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            walk_matrix(_hetero_from_dense(B), order=0)
        with pytest.raises(ValueError):
            walk_matrix(_hetero_from_dense(B), negatives=0)

    def test_zero_degree_rejected(self):
        B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="degree"):
            walk_matrix(_hetero_from_dense(B))


def _symmetric(rng, size):
    Z = rng.normal(size=(size, size))
    return Z + Z.T


def _walk_of(Z):
    return WalkMatrix(stored=np.asarray(Z, dtype=float), n=Z.shape[0])


def _check_planted_matches_svd(nodes, dim):
    """factorize on a planted walk matrix against np.linalg.svd, 1e-10
    relative; returns the matrix size."""
    g = planted_attributed_sbm(nodes=nodes, blocks=3, seed=0)
    walk = walk_matrix(build_hetero_adjacency(g))
    Z = walk.matrix
    U, s, Vt = np.linalg.svd(Z)
    # a gap after the kept values makes the truncation unique
    assert s[dim - 1] - s[dim] > 1e-6 * s[0]
    model = factorize(walk, dim)
    got = (np.linalg.norm(model.vectors, axis=0)
           * np.linalg.norm(model.context, axis=0))
    assert np.all(np.abs(got - s[:dim]) <= 1e-10 * s[:dim])
    truncated = (U[:, :dim] * s[:dim]) @ Vt[:dim]
    err = np.linalg.norm(model.vectors @ model.context.T - truncated)
    assert err <= 1e-10 * np.linalg.norm(truncated)
    return Z.shape[0]


class TestFactorize:
    def test_zero_matrix(self):
        model = factorize(_walk_of(np.zeros((4, 4))), 2)
        assert not model.vectors.any() and not model.context.any()

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        Z = _symmetric(rng, 8)
        model = factorize(_walk_of(Z), 8)
        err = np.linalg.norm(Z - model.vectors @ model.context.T)
        assert err / np.linalg.norm(Z) <= 1e-8

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        Z = -3.0 * np.outer(u, u)
        model = factorize(_walk_of(Z), 1)
        assert np.linalg.norm(Z - model.vectors @ model.context.T) <= 1e-8
        scale = np.linalg.norm(model.vectors) * np.linalg.norm(model.context)
        assert abs(scale - 3.0) < 1e-8
        # the negative eigenvalue flips the right factor against the left
        x, y = model.vectors[:, 0], model.context[:, 0]
        assert np.allclose(y, -x, atol=1e-12)

    def test_eckart_young_every_rank(self):
        rng = np.random.default_rng(5)
        Z = _symmetric(rng, 7)
        s = np.linalg.svd(Z, compute_uv=False)
        last = np.inf
        for k in range(1, 8):
            model = factorize(_walk_of(Z), k)
            resid = np.linalg.norm(Z - model.vectors @ model.context.T)
            tail = np.sqrt((s[k:] ** 2).sum())
            assert abs(resid - tail) <= 1e-8
            assert resid <= last + 1e-12
            last = resid

    def test_symmetric_input_aligns_factors(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(6, 6))
        Z = Z + Z.T
        model = factorize(_walk_of(Z), 6)
        X, Y = model.vectors, model.context
        gap = np.linalg.norm(X @ X.T - Y @ Y.T) / np.linalg.norm(X @ X.T)
        assert gap <= 1e-6

    def test_planted_walk_matches_svd(self):
        _check_planted_matches_svd(nodes=120, dim=64)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(7)
        Z = _symmetric(rng, 9)
        a = factorize(_walk_of(Z), 4)
        b = factorize(_walk_of(Z.copy()), 4)
        assert np.array_equal(a.vectors, b.vectors)
        # largest-magnitude entry of each left-factor column is positive
        U = a.vectors / np.sqrt((a.vectors ** 2).sum(axis=0))  # unit columns
        anchor = np.argmax(np.abs(U), axis=0)
        assert np.all(U[anchor, np.arange(4)] > 0)

    def test_tied_entries_keep_column_signs(self):
        """Structurally symmetric entities give left vectors with entries
        tied in magnitude; a rounding-level symmetric change of Z must not
        let the sign anchor move between them and flip a column."""
        # the 6-node, 2-attribute graph of demos/files_and_cli.py
        A = np.zeros((6, 6))
        for i, j in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)):
            A[i, j] = A[j, i] = 1.0
        R = np.zeros((6, 2))
        R[[0, 1, 2], 0] = 1.0
        R[[2, 3, 4, 5], 1] = 1.0
        walk = walk_matrix(build_hetero_adjacency(
            AttributedGraph.from_dense(A, R)))
        Z = walk.matrix
        ref = factorize(walk, 4).vectors
        # the check is only meaningful if some column has a signed tie
        magnitude = np.abs(ref)
        tied = magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0)
        assert any(len(np.unique(np.sign(ref[tied[:, c], c]))) == 2
                   for c in range(4))
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            E = rng.normal(size=Z.shape)
            perturbed = Z + (E + E.T) * (0.5e-15 * np.abs(Z).max())
            model = factorize(WalkMatrix(stored=perturbed, n=walk.n), 4)
            worst = max(worst, float(np.abs(model.vectors - ref).max()))
        assert worst <= 1e-12

    def test_non_symmetric_rejected(self):
        Z = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValueError, match="exactly symmetric"):
            factorize(_walk_of(Z), 2)
        # asymmetry at rounding level is rejected too: eigh reads one triangle
        Z = np.ones((3, 3))
        Z[0, 1] += 1e-15
        with pytest.raises(ValueError, match="exactly symmetric"):
            factorize(_walk_of(Z), 2)

    def test_dim_bounds(self):
        Z = np.zeros((3, 3))
        with pytest.raises(ValueError):
            factorize(_walk_of(Z), 0)
        with pytest.raises(ValueError):
            factorize(_walk_of(Z), 4)


class TestLanczosFactorize:
    """`factorize` at sizes >= LANCZOS_MIN_RATIO * dim, which take the
    truncated (ARPACK) solver instead of dense `eigh`."""

    def test_planted_walk_matches_svd(self):
        size = _check_planted_matches_svd(nodes=300, dim=16)
        assert size >= LANCZOS_MIN_RATIO * 16

    def test_rank_two_reconstructs_exactly(self):
        rng = np.random.default_rng(9)
        dim = 8
        size = LANCZOS_MIN_RATIO * dim
        u, v = np.linalg.qr(rng.normal(size=(size, 2)))[0].T
        Z = 5.0 * np.outer(u, u) - 2.0 * np.outer(v, v)
        model = factorize(_walk_of(Z), dim)
        err = np.linalg.norm(Z - model.vectors @ model.context.T)
        assert err <= 1e-12 * np.linalg.norm(Z)
        scales = (np.linalg.norm(model.vectors, axis=0)
                  * np.linalg.norm(model.context, axis=0))
        assert np.allclose(scales[:2], [5.0, 2.0], atol=1e-12)
        assert np.all(scales[2:] <= 1e-12)

    def test_zero_matrix(self):
        model = factorize(_walk_of(np.zeros((400, 400))), 8)
        assert model.vectors.shape == (400, 8)
        assert not model.vectors.any() and not model.context.any()

    def test_csr_walk_gives_the_dense_walks_factors(self):
        """The CSR walk goes to `eigsh` as it is, and gives exactly the
        factors of the dense walk, which `factorize` converts; below the
        Lanczos ratio a CSR walk is made dense for `eigh`."""
        g = planted_attributed_sbm(nodes=300, blocks=3, seed=0)
        hetero = build_hetero_adjacency(g)
        dense = walk_matrix(hetero)
        dim = hetero.matrix.shape[0] // LANCZOS_MIN_RATIO
        walk = walk_matrix(hetero, dim=dim)
        assert sparse.issparse(walk.stored)
        assert np.array_equal(factorize(walk, dim).vectors,
                              factorize(dense, dim).vectors)
        assert np.array_equal(factorize(walk, dim + 1).vectors,
                              factorize(dense, dim + 1).vectors)

    def test_non_symmetric_csr_rejected(self):
        Z = sparse.csr_array(np.arange(1.0, 10.0).reshape(3, 3))
        with pytest.raises(ValueError, match="exactly symmetric"):
            factorize(WalkMatrix(stored=Z, n=3), 2)

    @pytest.mark.parametrize("error", [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], []),
        scipy.sparse.linalg.ArpackError(-9999)])
    def test_solver_failure_is_one_cli_error_line(self, error, tmp_path,
                                                  monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        A, R = g.adjacency.tocoo(), g.attr_weights.tocoo()
        edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
        edges.write_text("".join(f"{g.node_ids[i]}\t{g.node_ids[j]}\n"
                                 for i, j in zip(A.row, A.col) if i < j))
        attrs.write_text("".join(f"{g.node_ids[i]}\t{g.attr_ids[w]}\n"
                                 for i, w in zip(R.row, R.col)))
        code = main(["embed", "--edges", str(edges), "--attrs", str(attrs),
                     "--dim", "4", "--out", str(tmp_path / "emb.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\t") and err.count("\n") == 1
        assert "factorization failed to converge" in err


class TestEmbed:
    def _minimal(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        R = np.array([[1.0], [0.0]])
        return AttributedGraph.from_dense(A, R, node_ids=["u", "v"],
                                          attr_ids=["x"])

    def test_minimal_shapes(self):
        model = embed(self._minimal(), dim=2)
        assert model.vectors.shape == (3, 2)
        assert np.all(np.isfinite(model.vectors))
        assert model.node_vectors.shape == (2, 2)
        assert model.attr_vectors.shape == (1, 2)
        assert model.node_ids == ["u", "v"]
        assert model.attr_ids == ["x"]

    def test_ablation_depends_only_on_adjacency(self):
        rng = np.random.default_rng(8)
        A, R0 = oracles.random_connected_graph(rng, max_n=6)
        other = (rng.random(R0.shape) < 0.5).astype(float)
        for w in range(other.shape[1]):
            if other[:, w].sum() == 0:
                other[int(rng.integers(other.shape[0])), w] = 1.0

        def topology_only(R):
            g = AttributedGraph.from_dense(A, R)
            return dataclasses.replace(
                g, attr_weights=sparse.csr_array((g.n, 0)), attr_ids=[])

        one = embed(topology_only(R0), dim=3)
        two = embed(topology_only(other), dim=3)
        assert np.array_equal(one.vectors, two.vectors)
        assert one.m == 0 and one.attr_ids == []

    def test_determinism(self):
        g = self._minimal()
        assert np.array_equal(embed(g, dim=3).vectors,
                              embed(g, dim=3).vectors)

    def test_clamp_dim(self):
        # embed does not clamp; the CLI does (tests/test_cli.py)
        with pytest.raises(ValueError):
            embed(self._minimal(), dim=64)
