import dataclasses

import numpy as np
import pytest
from scipy import sparse

import oracles
from semgraph import (AttributedGraph, WalkMatrix, build_hetero_adjacency,
                      embed, factorize, planted_attributed_sbm, walk_matrix)
from semgraph import embedding
from semgraph.cli import main
from semgraph.embedding import _lanczos_pairs


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
        """The walk is stored as CSR (sorted int32 indices, no stored
        zeros) holding the dense oracle's values to 1e-10, with a partial
        or a one-column last block; the same bits at every block width."""
        g = planted_attributed_sbm(nodes=100, blocks=4, attrs_per_block=12,
                                   inclusion=0.3, seed=3)
        hetero = build_hetero_adjacency(g)
        size = hetero.matrix.shape[0]
        assert size % embedding.WALK_BLOCK > 1  # a partial last block
        ref = walk_matrix(hetero, order=order).stored
        if last_block == "one column":
            monkeypatch.setattr(embedding, "WALK_BLOCK", size - 1)
        walk = walk_matrix(hetero, order=order)
        Z = walk.stored
        assert type(Z) is sparse.csr_array
        assert Z.indices.dtype == np.int32 and Z.indptr.dtype == np.int32
        assert np.all(Z.data != 0.0)
        rows = np.repeat(np.arange(size), np.diff(Z.indptr))
        assert np.all(np.diff(rows * size + Z.indices) > 0)  # sorted, unique
        for got, want in zip((Z.indptr, Z.indices, Z.data),
                             (ref.indptr, ref.indices, ref.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        oracle = oracles.walk_oracle(hetero.matrix.toarray(), order, 1)
        assert (np.abs(walk.matrix - oracle).max()
                <= 1e-10 * max(1.0, np.abs(oracle).max()))
        assert walk.n == g.n and walk.m == g.m

    @pytest.mark.parametrize("order", [1, 2, 3, 10])
    def test_matches_full_power_walk_bit_for_bit(self, order, monkeypatch):
        """Each block computes its last power only for the rows it keeps;
        Z is bit for bit the walk whose every power covers all rows, at
        every block width, and within 1e-10 of the oracle."""
        g = planted_attributed_sbm(nodes=100, blocks=4, attrs_per_block=12,
                                   inclusion=0.3, seed=3)
        hetero = build_hetero_adjacency(g)
        size = hetero.matrix.shape[0]
        oracle = oracles.walk_oracle(hetero.matrix.toarray(), order, 1)
        for width in (1, 7, embedding.WALK_BLOCK, size + 1):
            monkeypatch.setattr(embedding, "WALK_BLOCK", width)
            Z = walk_matrix(hetero, order=order).matrix
            assert np.array_equal(Z, _full_power_walk(hetero, order, width))
            assert (np.abs(Z - oracle).max()
                    <= 1e-10 * max(1.0, np.abs(oracle).max()))

    def test_attribute_count_read_off_shape(self):
        Z = np.zeros((7, 7))
        for k in (0, 3, 7):
            assert WalkMatrix(stored=Z, n=k).m == Z.shape[0] - k

    def test_dense_input_stored_as_canonical_csr(self):
        """A dense Z is stored as a canonical CSR array (sorted indices,
        no duplicates, no stored zeros) made on a copy, and `matrix`
        gives it back."""
        Z = np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 5.0], [-1.0, 5.0, 0.0]])
        before = Z.copy()
        walk = WalkMatrix(stored=Z, n=2)
        stored = walk.stored
        assert type(stored) is sparse.csr_array
        assert stored.has_canonical_format
        assert np.all(stored.data) and stored.nnz == np.count_nonzero(Z)
        assert np.array_equal(walk.matrix, Z)
        assert np.array_equal(Z, before)
        assert not np.shares_memory(stored.data, Z)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected_as_such(self, value):
        Z = np.ones((2, 2))
        Z[0, 1] = Z[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            WalkMatrix(stored=Z, n=2)

    def test_replace_checks_the_matrix_again(self):
        walk = WalkMatrix(stored=np.eye(3), n=3)
        skewed = np.eye(3)
        skewed[0, 2] = 1.0
        with pytest.raises(ValueError, match="exactly symmetric"):
            dataclasses.replace(walk, stored=skewed)
        replaced = dataclasses.replace(walk, stored=sparse.coo_array(
            np.ones((3, 3))))
        assert type(replaced.stored) is sparse.csr_array
        assert replaced.stored.nnz == 9

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


def _full_power_walk(hetero, order, width):
    """The walk by the same block operations, with every power computed
    for all rows; entry (i, j) is row max(i, j) of column min(i, j)."""
    transition = sparse.csr_array(hetero.matrix, copy=True)
    degrees = transition.sum(axis=1)
    transition.data /= np.repeat(degrees, np.diff(transition.indptr))
    size = transition.shape[0]
    M = np.empty((size, size))
    for start in range(0, size, width):
        cols = slice(start, start + width)
        acc = transition[:, cols].toarray()
        power = acc
        for _ in range(order - 1):
            power = transition @ power
            acc += power
        acc *= float(degrees.sum()) / order
        acc /= degrees[None, cols]
        np.maximum(acc, 1.0, out=acc)
        np.log(acc, out=acc)
        M[:, cols] = acc
    return np.tril(M) + np.tril(M, -1).T


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


def _eigh_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestLanczosFactorize:
    """`factorize` at sizes well above `dim`, where the thick-restart
    Lanczos solver computes only the wanted pairs and restarts."""

    def test_planted_walk_matches_svd(self):
        size = _check_planted_matches_svd(nodes=300, dim=16)
        assert size >= 16 * 16

    def test_rank_two_reconstructs_exactly(self):
        rng = np.random.default_rng(9)
        dim, size = 8, 128
        u, v = np.linalg.qr(rng.normal(size=(size, 2)))[0].T
        Z = 5.0 * np.outer(u, u) - 2.0 * np.outer(v, v)
        model = factorize(_walk_of(Z), dim)
        err = np.linalg.norm(Z - model.vectors @ model.context.T)
        assert err <= 1e-12 * np.linalg.norm(Z)
        scales = (np.linalg.norm(model.vectors, axis=0)
                  * np.linalg.norm(model.context, axis=0))
        assert np.allclose(scales[:2], [5.0, 2.0], atol=1e-12)
        assert np.all(scales[2:] <= 1e-12)

    def test_repeated_eigenvalue_meets_tail_norm(self):
        """Eigenvalues of multiplicity 3 and 2 inside the top 8, and -6
        tied in magnitude with the 6s: at each rank that keeps every
        multiple eigenvalue and magnitude tie whole, the residual is the
        Eckart-Young tail norm."""
        rng = np.random.default_rng(31)
        lam = rng.uniform(-3.0, 3.0, 128)
        lam[:8] = [9.0, -7.0, -7.0, -7.0, 6.0, 6.0, -6.0, 4.0]
        Z = _with_spectrum(rng, lam)
        s = np.sort(np.abs(np.linalg.eigvalsh(Z)))[::-1]
        for k in (1, 4, 7, 8):
            model = factorize(_walk_of(Z), k)
            resid = np.linalg.norm(Z - model.vectors @ model.context.T)
            assert abs(resid - np.sqrt((s[k:] ** 2).sum())) <= 1e-8

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_rank_splitting_a_multiplet_meets_tail_norm(self, seed):
        """The spectrum above at ranks that split the -7 triple (2, 3)
        or the magnitude tie of 6, 6 and -6 (5, 6).  Rank 2 stalled when
        a restart kept only some copies of -7; a restart now keeps the
        Ritz values whose error intervals overlap the last kept one's."""
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3.0, 3.0, 128)
        lam[:8] = [9.0, -7.0, -7.0, -7.0, 6.0, 6.0, -6.0, 4.0]
        Z = _with_spectrum(rng, lam)
        s = np.sort(np.abs(np.linalg.eigvalsh(Z)))[::-1]
        for k in (2, 3, 5, 6):
            model = factorize(_walk_of(Z), k)
            resid = np.linalg.norm(Z - model.vectors @ model.context.T)
            assert abs(resid - np.sqrt((s[k:] ** 2).sum())) <= 1e-8

    def test_zero_matrix(self):
        model = factorize(_walk_of(np.zeros((400, 400))), 8)
        assert model.vectors.shape == (400, 8)
        assert not model.vectors.any() and not model.context.any()

    def test_csr_walk_gives_the_dense_walks_factors(self):
        """The CSR walk goes to Lanczos as it is, and gives exactly the
        factors of the same walk wrapped as a dense array, which
        `WalkMatrix` converts to CSR; their singular values are the
        largest |eigenvalues| from `eigvalsh`."""
        g = planted_attributed_sbm(nodes=300, blocks=3, seed=0)
        walk = walk_matrix(build_hetero_adjacency(g))
        assert type(walk.stored) is sparse.csr_array
        dense = WalkMatrix(stored=walk.matrix, n=walk.n)
        lam = np.linalg.eigvalsh(walk.matrix)
        s = np.sort(np.abs(lam))[::-1]
        for dim in (16, 17):
            model = factorize(walk, dim)
            assert np.array_equal(model.vectors, factorize(dense,
                                                           dim).vectors)
            got = (np.linalg.norm(model.vectors, axis=0)
                   * np.linalg.norm(model.context, axis=0))
            assert np.all(np.abs(got - s[:dim]) <= 1e-10 * s[:dim])

    def test_lanczos_from_16_dim(self, monkeypatch):
        """Between 16 and 20 times `dim`, where the refine-cluster
        benchmark sits, at its walk order 10: no size-by-size matrix
        reaches `eigh`, and the factors are those of a dense `eigh` of
        the walk to 1e-10, with no column sign flip."""
        g = planted_attributed_sbm(nodes=300, blocks=3, seed=0)
        hetero = build_hetero_adjacency(g)
        size = hetero.matrix.shape[0]
        dim = size // 17
        assert 16 * dim <= size < 20 * dim
        walk = walk_matrix(hetero, order=10)
        lam, Q = np.linalg.eigh(walk.matrix)
        keep = np.argsort(-np.abs(lam), kind="stable")
        # a gap after the kept magnitudes makes the dim pairs unique
        gap = np.abs(lam[keep[dim - 1]]) - np.abs(lam[keep[dim]])
        assert gap > 1e-6 * np.abs(lam[keep[0]])
        lam, Q = lam[keep[:dim]], Q[:, keep[:dim]]
        magnitude = np.abs(Q)  # the sign convention of `factorize`
        anchor = np.argmax(magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0),
                           axis=0)
        Q *= np.sign(Q[anchor, np.arange(dim)])
        ref = Q * np.sqrt(np.abs(lam))
        shapes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        model = factorize(walk, dim)
        assert shapes and all(shape[0] < size for shape in shapes)
        for got, want in ((model.vectors, ref),
                          (model.context, ref * np.sign(lam))):
            assert np.all(np.sum(got * want, axis=0) > 0)  # no sign flip
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_non_symmetric_csr_rejected(self):
        Z = sparse.csr_array(np.arange(1.0, 10.0).reshape(3, 3))
        with pytest.raises(ValueError, match="exactly symmetric"):
            factorize(WalkMatrix(stored=Z, n=3), 2)
        # an entry with no mirror, and asymmetry at rounding level
        for i, j, value in ((2, 0, 0.0), (0, 1, 1.0 + 2.0 ** -52)):
            Z = np.ones((3, 3))
            Z[i, j] = value
            with pytest.raises(ValueError, match="exactly symmetric"):
                factorize(WalkMatrix(stored=sparse.csr_array(Z), n=3), 2)

    # symmetric 3-by-3 CSR arrays in non-canonical form, as (data,
    # indices, indptr): the dense matrix is [[2, 1, 4], [1, 0, 0], [4, 0, 3]]
    NON_CANONICAL = {
        "unsorted indices": ([4.0, 2.0, 1.0, 1.0, 4.0, 3.0],
                             [2, 0, 1, 0, 0, 2], [0, 3, 4, 6]),
        "duplicate entries": ([2.0, 0.5, 0.5, 4.0, 1.0, 4.0, 3.0],
                              [0, 1, 1, 2, 0, 0, 2], [0, 4, 5, 7]),
        "one-sided stored zero": ([2.0, 1.0, 4.0, 1.0, 0.0, 4.0, 3.0],
                                  [0, 1, 2, 0, 2, 0, 2], [0, 3, 5, 7]),
    }

    @pytest.mark.parametrize("form", NON_CANONICAL)
    def test_non_canonical_symmetric_csr_accepted(self, form):
        Z = sparse.csr_array(tuple(map(np.array, self.NON_CANONICAL[form])),
                             shape=(3, 3))
        dense = np.array([[2.0, 1.0, 4.0], [1.0, 0.0, 0.0], [4.0, 0.0, 3.0]])
        assert np.array_equal(Z.toarray(), dense)
        assert not (Z.has_canonical_format and np.all(Z.data))
        before = [a.copy() for a in (Z.data, Z.indices, Z.indptr)]
        model = factorize(WalkMatrix(stored=Z, n=3), 2)
        assert np.array_equal(model.vectors, factorize(_walk_of(dense),
                                                       2).vectors)
        # made canonical on a copy: the caller's arrays are untouched
        assert all(np.array_equal(a, b) for a, b in
                   zip(before, (Z.data, Z.indices, Z.indptr)))
        Z.data[4] += 1.0  # off the diagonal in every form, unmirrored
        with pytest.raises(ValueError, match="exactly symmetric"):
            factorize(WalkMatrix(stored=Z, n=3), 2)

    def test_csr_symmetry_verdict_matches_entrywise_comparison(self):
        """On random small CSR arrays with unsorted indices, duplicates,
        stored zeros and cancelling duplicates, symmetric or not,
        `WalkMatrix` rejects Z exactly when comparing it with its
        transpose entry by entry finds a difference."""
        rng = np.random.default_rng(30)
        verdicts = set()
        for _ in range(300):
            size = int(rng.integers(1, 6))
            count = int(rng.integers(0, 10))
            rows, cols = rng.integers(0, size, (2, count))
            values = rng.choice([0.0, 1.0, -1.0, 2.0], count)
            if rng.random() < 0.5:  # mirrored, then maybe one value changed
                rows, cols = np.r_[rows, cols], np.r_[cols, rows]
                values = np.r_[values, values]
                if count and rng.random() < 0.5:
                    values[rng.integers(0, 2 * count)] += 1.0
            shuffle = rng.permutation(len(rows))  # unsorted within a row
            rows, cols, values = rows[shuffle], cols[shuffle], values[shuffle]
            by_row = np.argsort(rows, kind="stable")
            indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=size))]
            Z = sparse.csr_array((values[by_row], cols[by_row], indptr),
                                 shape=(size, size))
            expected = (Z != Z.T).nnz == 0
            dense = Z.toarray()
            assert expected == np.array_equal(dense, dense.T)
            if expected:
                WalkMatrix(stored=Z, n=size)
            else:
                with pytest.raises(ValueError, match="exactly symmetric"):
                    WalkMatrix(stored=Z, n=size)
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("error", [
        # no restart: the first Krylov basis does not converge at rank 4
        (embedding, "LANCZOS_MAX_RESTARTS", 0),
        # `eigh` of the projected matrix does not converge
        (np.linalg, "eigh", _eigh_fails)])
    def test_solver_failure_is_one_cli_error_line(self, error, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(*error)
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


def _with_spectrum(rng, lam):
    """Exactly symmetric Z = Q diag(lam) Q^T for a random orthogonal Q."""
    Q = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))[0]
    Z = (Q * lam) @ Q.T
    return (Z + Z.T) / 2.0


def _block_diagonal(rng, blocks, size, rank):
    """`blocks` disconnected blocks of `size` rows, each of rank `rank`
    with eigenvalues of mixed sign."""
    pieces = []
    for _ in range(blocks):
        U = np.linalg.qr(rng.normal(size=(size, rank)))[0]
        lam = rng.uniform(1.0, 10.0, rank) * rng.choice([-1.0, 1.0], rank)
        pieces.append((U * lam) @ U.T)
    Z = sparse.block_diag(pieces).toarray()
    return (Z + Z.T) / 2.0


class TestLanczosPairs:
    """`_lanczos_pairs` against `numpy.linalg.eigvalsh` at size 16 dim:
    the `dim` eigenvalues of largest magnitude to 1e-12 relative,
    residual ||ZQ - Q diag(lam)|| <= 1e-12 ||Z||, orthonormal Q, and the
    same bits from two calls."""

    DIM, SIZE = 8, 128

    def _check(self, Z, dim=DIM):
        ref = np.linalg.eigvalsh(Z)
        ref = ref[np.argsort(-np.abs(ref), kind="stable")][:dim]
        norm = np.abs(ref[0])  # ||Z||_2
        # eigenvalues that are zero in exact arithmetic are rounding noise
        # in both solvers: compare those relative to ||Z||
        scale = np.where(np.abs(ref) > 1e-12 * norm, np.abs(ref), norm)
        lam, Q = _lanczos_pairs(sparse.csr_array(Z), dim)
        assert np.all(np.abs(lam - ref) <= 1e-12 * scale)
        assert np.linalg.norm(Z @ Q - Q * lam) <= 1e-12 * norm
        assert np.abs(Q.T @ Q - np.eye(dim)).max() <= 1e-12
        again = _lanczos_pairs(sparse.csr_array(Z), dim)
        assert np.array_equal(lam, again[0]) and np.array_equal(Q, again[1])

    def test_mixed_sign_spectrum(self):
        rng = np.random.default_rng(20)
        size = self.SIZE
        lam = np.linspace(10.0, 1.0, size) * (-1.0) ** np.arange(size)
        self._check(_with_spectrum(rng, rng.permutation(lam)))

    def test_repeated_eigenvalue_inside_top_k(self):
        rng = np.random.default_rng(21)
        lam = rng.uniform(-3.0, 3.0, self.SIZE)
        # a double eigenvalue -8 at ranks 3-4; rank 8 (5) and 9 (3) differ
        lam[:self.DIM] = [10.0, -9.0, -8.0, -8.0, 7.0, -6.5, 6.0, 5.0]
        self._check(_with_spectrum(rng, lam))

    def test_disconnected_blocks_reach_invariant_subspace(self, monkeypatch):
        rng = np.random.default_rng(22)
        # 8 blocks of rank 2: 17 distinct eigenvalues, 0 included, fewer
        # than the 20 basis vectors, so the basis becomes invariant early
        Z = _block_diagonal(rng, blocks=8, size=20, rank=2)
        fresh = []  # basis sizes at which a fresh vector was drawn
        orthonormal_to = embedding._orthonormal_to

        def counted(basis, x):
            fresh.append(len(basis))
            return orthonormal_to(basis, x)

        monkeypatch.setattr(embedding, "_orthonormal_to", counted)
        self._check(Z)
        assert fresh and min(fresh) < 20  # within the first basis

    def test_rank_below_dim(self):
        rng = np.random.default_rng(23)
        lam = np.zeros(self.SIZE)
        lam[:3] = [4.0, -2.0, 1.0]
        self._check(_with_spectrum(rng, lam))

    @pytest.mark.parametrize("dim", [1, 4])
    def test_size_16_dim(self, dim):
        """At size 16 dim; at dim 1 the basis, of min(size, 20) vectors,
        is the whole space."""
        rng = np.random.default_rng(24 + dim)
        self._check(_with_spectrum(rng, rng.normal(size=16 * dim)), dim)

    @pytest.mark.parametrize("size", [20, 33, 48])
    def test_exact_at_dim_equal_size(self, size, monkeypatch):
        """At dim = size the basis has NCV = size vectors and spans the
        whole space: every pair is exact, with no restart."""
        monkeypatch.setattr(embedding, "LANCZOS_MAX_RESTARTS", 0)
        rng = np.random.default_rng(size)
        self._check(_with_spectrum(rng, rng.normal(size=size)), size)


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

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected_before_the_walk(self, dim, monkeypatch):
        built = []
        monkeypatch.setattr(embedding, "walk_matrix",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            embed(self._minimal(), dim=dim)
        assert not built

    def test_clamp_dim(self):
        # embed does not clamp; the CLI does (tests/test_cli.py)
        with pytest.raises(ValueError):
            embed(self._minimal(), dim=64)
