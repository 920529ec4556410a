import dataclasses

import numpy as np
import pytest

from scipy import sparse

import oracles
from semgraph import (AttributedGraph, attribute_similarity,
                      build_hetero_adjacency, motif_relations,
                      planted_attributed_sbm)
from semgraph.hetero import _mnorm_in_place, _unit_rows


def mnorm(M):
    """The pipeline's mnorm on a float copy of M, all of whose entries
    are given."""
    return _mnorm_in_place(np.array(M, dtype=float), full=True)


class TestMnorm:
    def test_direct_arithmetic(self):
        assert mnorm(np.array([-1.0, 0.0, 3.0])).tolist() == [0.0, 0.25, 1.0]

    def test_constant_maps_to_zero(self):
        assert np.all(mnorm(np.full((3, 2), 2.0)) == 0.0)

    def test_unit_range_fixed_point(self):
        M = np.array([[0.0, 0.3], [1.0, 0.7]])
        assert np.array_equal(mnorm(M), M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            mnorm(np.array([0.0, bad]))

    def test_entries_left_out_are_zeros(self):
        # a pattern that leaves an entry out has the minimum 0, whatever
        # the least stored value
        values = np.array([2.0, 3.0, 4.0])
        assert _mnorm_in_place(values, full=False).tolist() == [0.5, 0.75,
                                                                1.0]
        assert np.all(_mnorm_in_place(np.zeros(3), full=False) == 0.0)

    def test_range_endpoints_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.normal(size=(4, 6)) * rng.uniform(0.1, 100)
            out = mnorm(M)
            assert out.min() == 0.0 and out.max() == 1.0
            assert np.allclose(out, oracles.mnorm(M))


class TestAttributeSimilarity:
    def test_identical_columns_degenerate(self):
        R0 = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert attribute_similarity(R0).nnz == 0

    def test_two_column_example(self):
        out = attribute_similarity(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(out.toarray(), np.eye(2), atol=1e-12)

    def test_orthogonal_columns_identity(self):
        R0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        out = attribute_similarity(R0).toarray()
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_zero_norm_column_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            attribute_similarity(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_symmetric_unit_range_and_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            R0 = rng.random((5, 4)) * (rng.random((5, 4)) < 0.7)
            if np.any(np.linalg.norm(R0, axis=0) == 0):
                continue
            out = attribute_similarity(R0).toarray()
            assert np.allclose(out, out.T, atol=1e-12)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert np.allclose(out, oracles.similarity_oracle(R0),
                               atol=1e-12)

    @pytest.mark.parametrize("case", sorted(oracles.symmetry_cases()))
    def test_exactly_symmetric(self, case):
        # no symmetrizing pass: the Gram product and its scaling are
        # exact; the block is canonical CSR, without stored zeros
        out = attribute_similarity(oracles.symmetry_cases()[case])
        assert type(out) is sparse.csr_array and out.has_canonical_format
        assert np.all(out.data != 0.0)
        assert np.array_equal(out.toarray(), out.T.toarray())

    @pytest.mark.parametrize("case", sorted(oracles.symmetry_cases()))
    def test_sparse_gram_matches_dense_cosine(self, case):
        """The Gram of the sparse unit columns is the dense cosine to
        1e-15, and the similarity stays exactly symmetric when the
        input's rows store their entries unsorted and twice."""
        W = oracles.symmetry_cases()[case]
        cosine = oracles.attribute_cosine(W.T)
        for given in (W, oracles.stored_twice(W)):
            unit = _unit_rows(sparse.csr_array(given).T)
            assert np.abs((unit @ unit.T).toarray() - cosine).max() <= 1e-15
            out = attribute_similarity(given).toarray()
            assert np.array_equal(out, out.T)
            assert np.allclose(out, oracles.similarity_oracle(W),
                               rtol=0.0, atol=1e-12)

    def test_no_attributes(self):
        for empty in (np.zeros((5, 0)), sparse.csr_array((5, 0))):
            assert attribute_similarity(empty).shape == (0, 0)

    def test_stored_zero_column_rejected(self):
        W = sparse.csr_array((np.array([1.0, 0.0]), np.array([0, 1]),
                              np.array([0, 2, 2])), shape=(2, 2))
        with pytest.raises(ValueError, match="zero norm"):
            attribute_similarity(W)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            attribute_similarity(np.array([[1.0, -1.0], [1.0, 1.0]]))


class TestMotifRelations:
    def test_worked_example(self):
        R1, R2 = motif_relations(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert R1.toarray().tolist() == [[0.0, 1.0], [0.0, 1.0]]
        assert R2.toarray().tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_single_entry_no_instances(self):
        R1, R2 = motif_relations(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not R1.toarray().any() and not R2.toarray().any()

    def test_all_ones_counts(self):
        n, m = 4, 3
        R1, R2 = motif_relations(np.ones((n, m)))
        assert np.all(R1.toarray() == n - 1) and np.all(R2.toarray() == m - 1)

    def test_weighted_mode_scales_counts(self):
        R0 = np.array([[2.0, 0.5], [0.0, 3.0]])
        plain = motif_relations(R0)
        weighted = motif_relations(R0, weighted=True)
        assert np.array_equal(weighted[0].toarray(), plain[0].toarray() * R0)
        assert np.array_equal(weighted[1].toarray(), plain[1].toarray() * R0)

    def test_matches_instance_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            R0 = (rng.random((int(rng.integers(1, 7)),
                              int(rng.integers(1, 6)))) < 0.5).astype(float)
            ours = motif_relations(R0)
            ref = oracles.motif_enumeration(R0)
            assert np.array_equal(ours[0].toarray(), ref[0])
            assert np.array_equal(ours[1].toarray(), ref[1])


def _relations(R0, deltas):
    """The relation block B[:n, n:] that `build_hetero_adjacency` makes
    for a path over the n nodes of the attribute weights R0."""
    R0 = np.asarray(R0, dtype=float)
    n = R0.shape[0]
    A = np.eye(n, k=1) + np.eye(n, k=-1)
    B = build_hetero_adjacency(AttributedGraph.from_dense(A, R0),
                               deltas=deltas).matrix
    return B[:n, n:].toarray()


class TestCombineRelations:
    """The relation block blends the weights and their motif counts:
    mnorm(d0 mnorm(R0) + d1 mnorm(R1) + d2 mnorm(R2))."""

    def test_delta_100_is_identity_on_binary(self):
        R0 = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(_relations(R0, (1.0, 0.0, 0.0)), R0)

    def test_all_zero_deltas(self):
        # the similarity block keeps both attributes in B
        out = _relations([[1.0, 0.0], [1.0, 1.0]], (0.0, 0.0, 0.0))
        assert out.shape == (2, 2) and not out.any()

    def test_negative_relation_rejected(self):
        R0 = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            motif_relations(-R0)

    def test_stored_zero_counts_accepted(self):
        # R0 = [[1, 0], [1, 1]]: node 0 carries one attribute, so its
        # two-attribute count is a 0 stored on the support
        R0 = np.array([[1.0, 0.0], [1.0, 1.0]])
        R1, R2 = motif_relations(R0)
        assert R2.nnz == 3 and np.count_nonzero(R2.data) == 2
        dense = [oracles.mnorm(R) for R in (R0, R1.toarray(), R2.toarray())]
        assert np.allclose(_relations(R0, (1.0, 1.0, 1.0)),
                           oracles.mnorm(sum(dense)))

    def test_composed_example(self):
        # parts: R0 itself, mnorm(R1)=[[0,1],[0,1]], mnorm(R2)=[[1,1],[0,0]]
        # sum [[2,3],[0,2]], final mnorm divides by 3
        out = _relations([[1.0, 1.0], [0.0, 1.0]], (1.0, 1.0, 1.0))
        assert np.allclose(out, [[2 / 3, 1.0], [0.0, 2 / 3]])

    def test_negative_delta_rejected(self):
        for bad in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="deltas"):
                build_hetero_adjacency(_minimal_graph(),
                                       deltas=(1.0, bad, 0.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="deltas"):
            build_hetero_adjacency(_minimal_graph(), deltas=(1.0, 1.0))


def _dense_reference_b(g, deltas, weighted):
    """B from dense n-by-m relation arrays, by the same operations in the
    same order as the sparse build, assembled as the build assembles."""
    R0 = g.attr_weights.toarray()
    support = (R0 > 0).astype(float)
    R1 = support * (support.sum(axis=0)[None, :] - 1.0)
    R2 = support * (support.sum(axis=1)[:, None] - 1.0)
    if weighted:
        R1, R2 = R1 * R0, R2 * R0
    rel = oracles.mnorm(R0) * deltas[0]
    for d, R in zip(deltas[1:], (R1, R2)):
        rel += oracles.mnorm(R) * d
    rel = oracles.mnorm(rel)
    sim = attribute_similarity(R0).toarray()
    if not rel.any() and not sim.any():
        rel, sim = rel[:, :0], sim[:0, :0]
    return sparse.csr_array(sparse.bmat([[g.adjacency, rel], [rel.T, sim]],
                                        format="csr"))


def _bit_identity_cases():
    rng = np.random.default_rng(14)
    planted = planted_attributed_sbm(nodes=150, blocks=3, seed=14)
    weights = planted.attr_weights.copy()
    weights.data = rng.uniform(0.5, 3.0, weights.nnz)
    weighted = dataclasses.replace(planted, attr_weights=weights)
    A, _ = oracles.random_connected_graph(rng)
    full = AttributedGraph.from_dense(
        A, rng.uniform(0.5, 3.0, size=(A.shape[0], 3)))
    # a stored 0 weight is no support: node 0 carries only attribute 0
    R = sparse.csr_array((np.array([0.0, 1.0, 2.0, 1.0, 1.0]),
                          np.array([1, 0, 1, 0, 1]),
                          np.array([0, 2, 3, 5])), shape=(3, 2))
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    explicit_zero = AttributedGraph(
        adjacency=sparse.csr_array(path), attr_weights=R,
        node_ids=["a", "b", "c"], attr_ids=["x", "y"])
    bare = dataclasses.replace(
        planted, attr_weights=sparse.csr_array((planted.n, 0)), attr_ids=[])
    return {
        "default": (planted, (1.0, 1.0, 1.0), False),
        "weighted motifs": (weighted, (1.0, 1.0, 1.0), True),
        "non-default deltas": (weighted, (0.3, 1.7, 0.2), False),
        "all-zero deltas": (planted, (0.0, 0.0, 0.0), False),
        "full support": (full, (0.5, 1.0, 2.0), True),
        "explicit zero weight": (explicit_zero, (1.0, 1.0, 1.0), False),
        "no attributes": (bare, (1.0, 1.0, 1.0), False),
    }


def _assembly_cases():
    """The bit-identity cases, each `symmetry_cases` attribute matrix on
    a path over its nodes, and its single attribute also under all-zero
    deltas: a constant similarity block and no relation weight."""
    cases = _bit_identity_cases()
    for name, W in oracles.symmetry_cases().items():
        size = W.shape[0]
        path = np.eye(size, k=1) + np.eye(size, k=-1)
        cases[f"path, {name}"] = (AttributedGraph.from_dense(path, W),
                                  (1.0, 1.0, 1.0), False)
    cases["path, one attribute, all-zero deltas"] = (
        cases["path, one attribute"][0], (0.0, 0.0, 0.0), False)
    return cases


@pytest.mark.parametrize("case", sorted(_bit_identity_cases()))
def test_sparse_build_bit_identical_to_dense_reference(case):
    g, deltas, weighted = _bit_identity_cases()[case]
    B = build_hetero_adjacency(g, deltas=deltas,
                               weighted_motifs=weighted).matrix
    ref = _dense_reference_b(g, deltas, weighted)
    assert np.array_equal(B.toarray(), ref.toarray())
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(B, field), getattr(ref, field))


def _minimal_graph():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    R = np.array([[1.0], [0.0]])
    return AttributedGraph.from_dense(A, R, node_ids=["u", "v"],
                                      attr_ids=["x"])


class TestBuildHeteroAdjacency:
    def test_minimal_assembly(self):
        hetero = build_hetero_adjacency(_minimal_graph(),
                                        deltas=(1.0, 0.0, 0.0))
        expect = [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert hetero.matrix.toarray().tolist() == expect

    def test_no_attributes_reduces_to_adjacency(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = AttributedGraph.from_dense(A, np.zeros((2, 0)))
        hetero = build_hetero_adjacency(g)
        assert np.array_equal(hetero.matrix.toarray(), A)
        assert hetero.m == 0

    def test_exact_symmetry_and_block_readback(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A, R0 = oracles.random_connected_graph(rng)
            g = AttributedGraph.from_dense(A, R0)
            hetero = build_hetero_adjacency(g)
            B = hetero.matrix.toarray()
            assert np.array_equal(B, B.T)
            n = g.n
            assert np.array_equal(B[:n, :n], A)
            assert B.min() >= 0.0
            assert B[:n, n:].max() <= 1.0 and B[n:, n:].max() <= 1.0

    def test_csr_equals_dense_block_assembly(self):
        """B, stored as canonical CSR without stored zeros, against the
        oracle's dense block layout [[A, rel], [rel^T, sim]] from the
        definitions: the node rows and columns exactly, the similarity
        block on the same pattern and to 8 ulp of 1 (its entries lie in
        [0, 1]; they read up to 5.5), as its cosines and row sums are
        added in another order.  Where the oracle's attribute blocks are
        all zero the build drops the attribute entities, and where a row
        of B would be zero it rejects the entity as isolated."""
        for name, (g, deltas, weighted) in _assembly_cases().items():
            n = g.n
            expect = oracles.assemble_b(g.adjacency.toarray(),
                                        g.attr_weights.toarray(), deltas,
                                        weighted=weighted)
            if not expect[n:].any():
                expect = expect[:n, :n]
            if not expect.sum(axis=1).all():
                with pytest.raises(ValueError, match="isolated"):
                    build_hetero_adjacency(g, deltas=deltas,
                                           weighted_motifs=weighted)
                continue
            B = build_hetero_adjacency(g, deltas=deltas,
                                       weighted_motifs=weighted).matrix
            assert type(B) is sparse.csr_array, name
            assert B.has_canonical_format and np.all(B.data != 0.0), name
            dense = B.toarray()
            assert dense.shape == expect.shape, name
            assert np.array_equal(dense[:n], expect[:n]), name
            assert np.array_equal(dense[n:, :n], expect[n:, :n]), name
            sim, want = dense[n:, n:], expect[n:, n:]
            assert np.array_equal(sim != 0.0, want != 0.0), name
            gap = np.max(np.abs(sim - want), initial=0.0)
            assert gap <= 8 * np.finfo(float).eps, name

    def test_matches_independent_assembly(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A, R0 = oracles.random_connected_graph(rng)
            deltas = tuple(rng.uniform(0, 2, size=3))
            g = AttributedGraph.from_dense(A, R0)
            hetero = build_hetero_adjacency(g, deltas=deltas)
            if hetero.m == 0:
                continue  # degenerate input collapsed to pure topology
            ref = oracles.assemble_b(A, R0, deltas)
            assert np.allclose(hetero.matrix.toarray(), ref, atol=1e-12)

    def test_weighted_motifs_match_oracle(self):
        rng = np.random.default_rng(5)
        A, R0 = oracles.random_connected_graph(rng)
        R0 = R0 * rng.uniform(0.5, 3.0, size=R0.shape)
        g = AttributedGraph.from_dense(A, R0)
        hetero = build_hetero_adjacency(g, weighted_motifs=True)
        ref = oracles.assemble_b(A, R0, (1.0, 1.0, 1.0), weighted=True)
        assert np.allclose(hetero.matrix.toarray(), ref, atol=1e-12)

    def test_pure_topology_ablation_drops_attributes(self):
        # all-zero deltas leave the relation block zero, and mnorm zeroes
        # the 1-by-1 similarity block of the single attribute
        g = _minimal_graph()
        hetero = build_hetero_adjacency(g, deltas=(0.0, 0.0, 0.0))
        assert hetero.m == 0
        assert np.array_equal(hetero.matrix.toarray(),
                              g.adjacency.toarray())

    def test_zero_row_names_node(self):
        # node c has no edges; its only attribute weight sits at the
        # global minimum and is erased by mnorm, leaving row c of B zero
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        R = np.array([[5.0], [2.0], [1.0]])
        g = AttributedGraph.from_dense(A, R, node_ids=["a", "b", "c"])
        with pytest.raises(ValueError, match="node 'c'"):
            build_hetero_adjacency(g)

    def test_zero_row_names_attribute(self):
        # both nodes carry both attributes, so the motif counts and the
        # similarity block are constant and mnorm zeroes them; of the
        # weights, mnorm zeroes the global minimum, column y
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        R = np.array([[3.0, 1.0], [3.0, 1.0]])
        g = AttributedGraph.from_dense(A, R, attr_ids=["x", "y"])
        with pytest.raises(ValueError, match="attribute 'y' is isolated"):
            build_hetero_adjacency(g)

    def test_size_cap(self):
        g = _minimal_graph()
        with pytest.raises(ValueError, match="cap"):
            build_hetero_adjacency(g, size_cap=2)
