import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import oracles
from semgraph import (AttributedGraph, EmbeddingModel, build_side_info,
                      load_graph, read_embeddings, write_embeddings)
from semgraph import sideinfo


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _files(tmp_path, edges, attrs, labels=None):
    paths = [_write(tmp_path / "edges.tsv", edges),
             _write(tmp_path / "attrs.tsv", attrs)]
    if labels is not None:
        paths.append(_write(tmp_path / "labels.tsv", labels))
    return paths


class TestLoadGraph:
    def test_minimal(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\n", "a\tx\t1\n"))
        assert (g.n, g.e, g.m) == (2, 1, 1)
        assert g.attr_weights.toarray().tolist() == [[1.0], [0.0]]
        assert g.node_ids == ["a", "b"]
        assert g.attr_ids == ["x"]

    def test_dedup_and_self_loop(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\nb\ta\na\ta\n", "a\tx\n"))
        assert g.e == 1
        assert np.all(np.diag(g.adjacency.toarray()) == 0)

    def test_empty_attribute_column_dropped(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\n", "a\tx\t1\nb\ty\t0\n"))
        assert g.m == 1
        assert g.attr_ids == ["x"]

    def test_default_weight_is_one(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\n", "a\tx\n"))
        assert g.attr_weights.toarray()[0, 0] == 1.0

    def test_duplicate_attr_lines_summed(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\n", "a\tx\t2\na\tx\t3\n"))
        assert g.attr_weights.toarray()[0, 0] == 5.0

    def test_malformed_line_reports_position(self, tmp_path):
        paths = _files(tmp_path, "a\tb\n\na\tb\tc\n", "a\tx\n")
        with pytest.raises(ValueError, match=r"edges\.tsv:3"):
            load_graph(*paths)

    def test_bad_weight(self, tmp_path):
        with pytest.raises(ValueError, match=r"attrs\.tsv:1"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\tfoo\n"))

    def test_negative_weight(self, tmp_path):
        with pytest.raises(ValueError, match="negative"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\t-1\n"))

    def test_non_finite_weight(self, tmp_path):
        for weight in ("inf", "-inf", "nan"):
            with pytest.raises(ValueError, match="non-finite"):
                load_graph(*_files(tmp_path, "a\tb\n", f"a\tx\t{weight}\n"))

    def test_isolated_node_named(self, tmp_path):
        # "c" only ever appears with weight-0 attributes
        with pytest.raises(ValueError, match="'c'"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\t1\nc\tx\t0\n"))

    def test_no_nodes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty graph: no nodes"):
            load_graph(*_files(tmp_path, "", "\n"))

    def test_label_mapping_first_appearance(self, tmp_path):
        g = load_graph(*_files(tmp_path, "a\tb\nb\tc\n", "a\tx\n",
                               "a\tspam\nb\tham\nc\tspam\n"))
        assert g.labels.tolist() == [0, 1, 0]
        assert g.c == 2

    def test_label_unknown_node(self, tmp_path):
        with pytest.raises(ValueError, match="unknown node"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\n",
                               "a\t0\nb\t0\nzz\t1\n"))

    def test_label_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="conflicting"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\n",
                               "a\t0\nb\t1\na\t1\n"))

    def test_label_missing_node(self, tmp_path):
        with pytest.raises(ValueError, match="without a label"):
            load_graph(*_files(tmp_path, "a\tb\n", "a\tx\n", "a\t0\n"))

    def test_random_files_satisfy_invariants(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            lines = [f"n{i}\tn{int(rng.integers(n))}"
                     for i in range(n)]
            attr_lines = []
            for i in range(n):
                for w in range(int(rng.integers(0, 4))):
                    attr_lines.append(
                        f"n{i}\tw{int(rng.integers(5))}\t{rng.random():.3f}")
            edges = tmp_path / f"e{trial}.tsv"
            attrs = tmp_path / f"a{trial}.tsv"
            edges.write_text("".join(f"{ln}\n" for ln in lines))
            attrs.write_text("".join(f"{ln}\n" for ln in attr_lines))
            try:
                g = load_graph(str(edges), str(attrs))
            except ValueError:
                continue  # generated an isolated node; rejection is correct
            dense = g.adjacency.toarray()
            assert np.array_equal(dense, dense.T)
            assert np.all(np.diag(dense) == 0)
            if g.m:
                assert np.all((g.attr_weights.toarray() > 0).sum(axis=0) > 0)


class TestFromDense:
    def test_asymmetric_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            AttributedGraph.from_dense(A, np.ones((2, 1)))

    def test_nonzero_diagonal_rejected(self):
        A = np.eye(2)
        with pytest.raises(ValueError, match="diagonal"):
            AttributedGraph.from_dense(A, np.ones((2, 1)))

    def test_non_binary_rejected(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="0 or 1"):
            AttributedGraph.from_dense(A, np.ones((2, 1)))

    def test_isolated_node_rejected(self):
        A = np.zeros((2, 2))
        R = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="'1'"):
            AttributedGraph.from_dense(A, R)

    def test_attribute_only_node_accepted(self):
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        R = np.array([[0.0], [0.0], [1.0]])
        g = AttributedGraph.from_dense(A, R)
        assert g.n == 3

    def test_bad_labels_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="labels"):
            AttributedGraph.from_dense(A, np.ones((2, 1)), labels=[0, -1])


def _path():
    """A valid 3-node path with labels, every node carrying attribute x;
    each case of `_broken` changes one thing in it."""
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return A, np.ones((3, 1)), np.array([0, 1, 0])


def _broken(case):
    """(A, R, labels) of the path with one invariant broken."""
    A, R, labels = _path()
    if case == "asymmetric":
        A[0, 1] = 0.0
    elif case == "self-loop":
        A[0, 0] = 1.0
    elif case == "non-binary entry":
        A[0, 1] = A[1, 0] = 2.0
    elif case == "negative entry":
        A[0, 1] = A[1, 0] = -1.0
    elif case == "negative weight":
        R[0, 0] = -1.0
    elif case in ("infinite weight", "nan weight"):
        R[0, 0] = np.inf if case == "infinite weight" else np.nan
    elif case == "isolated node":
        A[1, 2] = A[2, 1] = 0.0
        R[2, 0] = 0.0
    elif case == "negative label":
        labels[1] = -1
    elif case == "short labels":
        labels = labels[:2]
    elif case == "2-d labels":
        labels = labels[:, None]
    elif case == "float labels":
        labels = labels.astype(float)
    elif case == "non-square adjacency":
        A = A[:, :2]
    return A, R, labels


# The message each broken case is rejected with.
_REJECTED = {
    "asymmetric": "symmetric", "self-loop": "diagonal",
    "non-binary entry": "0 or 1", "negative entry": "0 or 1",
    "negative weight": "weights must be nonnegative",
    "infinite weight": "finite", "nan weight": "finite",
    "isolated node": "has no edges", "negative label": "labels",
    "short labels": "labels", "2-d labels": "labels",
    "float labels": "labels", "non-square adjacency": "square",
}


class TestConstruction:
    """Every way of building a graph checks it, and a built graph cannot
    be changed.  `load_graph`'s rejections are in `TestLoadGraph`: its
    edge list cannot express the adjacency cases, since it holds no
    weights and self-loops and both directions of an edge fold away."""

    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_direct_constructor_rejects(self, case):
        A, R, labels = _broken(case)
        with pytest.raises(ValueError, match=_REJECTED[case]):
            AttributedGraph(adjacency=sparse.csr_array(A),
                            attr_weights=sparse.csr_array(R),
                            node_ids=["a", "b", "c"], attr_ids=["x"],
                            labels=labels)

    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_from_dense_rejects(self, case):
        A, R, labels = _broken(case)
        with pytest.raises(ValueError, match=_REJECTED[case]):
            AttributedGraph.from_dense(A, R, labels=labels)

    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_replace_rejects(self, case):
        A, R, labels = _path()
        g = AttributedGraph.from_dense(A, R, labels=labels)
        A, R, labels = _broken(case)
        with pytest.raises(ValueError, match=_REJECTED[case]):
            dataclasses.replace(g, adjacency=sparse.csr_array(A),
                                attr_weights=sparse.csr_array(R),
                                labels=labels)

    def test_fields_cannot_be_assigned(self):
        """Reassigning a field would skip the checks and the canonical
        form: a non-canonical adjacency set after construction would be
        summed in place by the next g.e."""
        A, R, labels = _path()
        g = AttributedGraph.from_dense(A, R, labels=labels)
        twice = oracles.stored_twice(A)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.adjacency = twice
        for name, value in (("attr_weights", sparse.csr_array(R)),
                            ("node_ids", ["x", "y", "z"]),
                            ("labels", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, value)
        assert np.array_equal(g.adjacency.toarray(), A)
        assert g.adjacency.has_canonical_format and g.c == 2

    def test_label_list_becomes_an_array(self):
        A, R, _ = _path()
        g = AttributedGraph(adjacency=sparse.csr_array(A),
                            attr_weights=sparse.csr_array(R),
                            node_ids=["a", "b", "c"], attr_ids=["x"],
                            labels=[0, 1, 0])
        assert isinstance(g.labels, np.ndarray) and g.c == 2
        assert np.array_equal(dataclasses.replace(g, labels=[1, 0, 2]).labels,
                              [1, 0, 2])

    @pytest.mark.parametrize("change, message", [
        (dict(node_ids=["a", "b"]), "id lists"),
        (dict(attr_ids=[]), "id lists"),
        (dict(attr_weights=sparse.csr_array(np.ones((3, 2)) * [1.0, 0.0]),
              attr_ids=["x", "y"]), "no positive entry"),
    ])
    def test_ids_and_columns_checked(self, change, message):
        """What `_broken` cannot express: ids given apart from the
        matrices, and an attribute no node carries."""
        A, R, labels = _path()
        fields = dict(adjacency=sparse.csr_array(A),
                      attr_weights=sparse.csr_array(R),
                      node_ids=["a", "b", "c"], attr_ids=["x"])
        with pytest.raises(ValueError, match=message):
            AttributedGraph(**{**fields, **change})

    @pytest.mark.parametrize("weights", [np.ones((2, 1)), np.ones(3)])
    def test_from_dense_rejects_weights_of_another_shape(self, weights):
        A, _, _ = _path()
        with pytest.raises(ValueError, match="n x m"):
            AttributedGraph.from_dense(A, weights)

    def test_empty_graph_rejected(self):
        A, R, labels = _path()
        g = AttributedGraph.from_dense(A, R, labels=labels)
        empty = dict(adjacency=sparse.csr_array((0, 0)),
                     attr_weights=sparse.csr_array((0, 0)), node_ids=[],
                     attr_ids=[], labels=None)
        builders = (lambda: AttributedGraph(**empty),
                    lambda: AttributedGraph.from_dense(np.zeros((0, 0)),
                                                       np.zeros((0, 0))),
                    lambda: dataclasses.replace(g, **empty))
        for build in builders:
            with pytest.raises(ValueError, match="empty graph"):
                build()

    def test_class_count_follows_labels(self):
        A, R, _ = _path()
        g = AttributedGraph.from_dense(A, R, labels=[2, 0, 2])
        assert g.c == 3  # classes are indices: 1 is a class with no node
        assert dataclasses.replace(g, labels=None).c is None


class TestValidate:
    """The checks every graph passes when it is built."""

    def test_path_graph_validates_without_dense_copy(self):
        n = 4000
        i = np.arange(n - 1)
        adjacency = sparse.csr_array(sparse.coo_array(
            (np.ones(2 * (n - 1)), (np.r_[i, i + 1], np.r_[i + 1, i])),
            shape=(n, n)))
        assert adjacency.has_canonical_format  # the graph keeps it as is
        tracemalloc.start()
        try:
            AttributedGraph(adjacency=adjacency,
                            attr_weights=sparse.csr_array((n, 0)),
                            node_ids=[str(k) for k in range(n)], attr_ids=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense n x n float64 copy alone would be 128 MB
        assert peak < 16 * 2 ** 20

    def test_duplicate_entries_summed(self):
        # two stored halves of each edge count as one 0/1 entry
        adjacency = sparse.csr_array(
            (np.full(4, 0.5), [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))
        assert not adjacency.has_canonical_format
        g = AttributedGraph(adjacency=adjacency,
                            attr_weights=sparse.csr_array((2, 0)),
                            node_ids=["a", "b"], attr_ids=[])
        assert g.e == 1

    def test_stored_zeros_are_not_edges(self):
        # edge a-b plus a stored zero at (b, c) and (c, b)
        adjacency = sparse.csr_array(
            (np.array([1.0, 1.0, 0.0, 0.0]), [1, 0, 2, 1], [0, 1, 3, 4]),
            shape=(3, 3))
        assert adjacency.nnz == 4
        g = AttributedGraph(adjacency=adjacency,
                            attr_weights=sparse.csr_array(np.eye(3)),
                            node_ids=["a", "b", "c"], attr_ids=["x", "y", "z"])
        assert g.e == 1
        # the refinement's modularity Laplacian reads them as absent too
        L = build_side_info(g, lambdas=(1.0, 0.0)).node_laplacian
        dense = oracles.laplacian(oracles.mnorm(
            oracles.modularity_matrix(adjacency.toarray())))
        assert np.abs(L @ np.eye(3) - dense).max() <= 1e-15


class TestCanonicalForm:
    """Both matrices are made canonical once, when the graph is built."""

    def _graph(self, adjacency, weights):
        n = adjacency.shape[0]
        return AttributedGraph(
            adjacency=adjacency, attr_weights=weights,
            node_ids=[str(i) for i in range(n)],
            attr_ids=[str(w) for w in range(weights.shape[1])])

    def test_every_constructor_canonicalizes(self, tmp_path):
        A, R0 = oracles.random_connected_graph(np.random.default_rng(30))
        twice, weights = oracles.stored_twice(A), oracles.stored_twice(R0)
        arrays = [M.copy() for M in (twice, weights)]
        direct = self._graph(twice, weights)
        # the caller's arrays are converted on a copy, left as they were
        for M, before in zip((twice, weights), arrays):
            assert not M.has_canonical_format
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(M, field),
                                      getattr(before, field))
        plain = AttributedGraph.from_dense(A, R0)
        loaded = load_graph(
            _write(tmp_path / "e.tsv", "0\t1\n1\t0\n0\t1\n"),
            _write(tmp_path / "a.tsv", "1\tx\t0.5\n0\tx\n1\tx\t0.5\n"))
        replaced = dataclasses.replace(plain, adjacency=twice)
        for g in (direct, plain, loaded, replaced):
            for M in (g.adjacency, g.attr_weights):
                assert isinstance(M, sparse.csr_array)
                assert M.has_canonical_format
        assert np.array_equal(direct.adjacency.toarray(), A)
        assert np.array_equal(direct.attr_weights.toarray(), R0)
        assert loaded.attr_weights.toarray().tolist() == [[1.0], [1.0]]
        # canonical input is kept as it is, without a copy
        again = self._graph(plain.adjacency, plain.attr_weights)
        assert again.adjacency is plain.adjacency
        assert again.attr_weights is plain.attr_weights

    def test_reading_e_leaves_the_graph_unchanged(self):
        """Counting the edges of a CSR array with duplicate entries sums
        them in place; a graph built from one holds it summed already,
        so a view taken before reading g.e is unchanged after it."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            A, R0 = oracles.random_connected_graph(rng)
            g = self._graph(oracles.stored_twice(A), sparse.csr_array(R0))
            view = g.adjacency.tocoo()
            before = [view.row.copy(), view.col.copy(), view.data.copy()]
            assert g.e == np.count_nonzero(A) // 2
            for got, expect in zip((view.row, view.col, view.data), before):
                assert np.array_equal(got, expect)
            lo, hi = sideinfo._modularity_range(g.adjacency)
            Q = oracles.modularity_matrix(A)
            assert (lo, hi) == (Q.min(), Q.max())


class TestEmbeddingFiles:
    def _model(self, vectors, node_ids, attr_ids):
        return EmbeddingModel(vectors=np.asarray(vectors, dtype=float),
                              context=np.zeros_like(vectors, dtype=float),
                              n=len(node_ids), node_ids=node_ids,
                              attr_ids=attr_ids)

    def test_format_definition(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embeddings(self._model([[0.0, 1.0]], ["a"], []), str(path))
        assert path.read_text() == "1 2\nn:a 0 1\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = np.concatenate([rng.normal(size=(4, 5)) * 1e-12,
                                  rng.normal(size=(3, 5)) * 1e9])
        model = self._model(vectors, [f"n{i}" for i in range(4)],
                            [f"w{i}" for i in range(3)])
        path = tmp_path / "emb.txt"
        write_embeddings(model, str(path))
        back = read_embeddings(str(path))
        assert back.entity_count == len(back.rows) == 7 and back.dim == 5
        got = np.array([vec for _, vec in back.rows])
        assert np.array_equal(got, vectors)
        tags = [tag for tag, _ in back.rows]
        assert tags[:4] == [f"n:n{i}" for i in range(4)]
        assert tags[4:] == [f"a:w{i}" for i in range(3)]

    def test_empty_file_keeps_its_dim(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 3\n")
        back = read_embeddings(str(path))
        assert back.vectors.shape == (0, 3)
        assert back.node_ids == [] and back.attr_ids == []

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\nn:a 0 0 0 0\nn:b 0 0 0 0\nn:c 0 0 0 0\n")
        with pytest.raises(ValueError, match="row"):
            read_embeddings(str(path))

    @pytest.mark.parametrize("header", ["1 0", "1 -2", "-1 2", "1", "1 2 3"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\nn:a 1.0 2.0\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_embeddings(str(path))

    def test_model_ids_must_cover_vectors(self, tmp_path):
        model = self._model(np.zeros((2, 2)), ["a", "b"], [])
        model.node_ids = ["a"]
        with pytest.raises(ValueError, match="vector count"):
            write_embeddings(model, str(tmp_path / "emb.txt"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 1\n\nn:a 0\n\nn:b 1\n")
        back = read_embeddings(str(path))
        assert [tag for tag, _ in back.rows] == ["n:a", "n:b"]

    @pytest.mark.parametrize("row, message", [
        ("n:a 1", "expected 2 components"),
        ("n:a 1 x", "bad value"),
        ("n:a 1 nan", "non-finite"),
        ("n:a 1 -inf", "non-finite"),
    ])
    def test_bad_row(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.txt:2: {message}"):
            read_embeddings(str(path))

    def test_duplicate_tag(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\nn:a 0\nn:a 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_embeddings(str(path))

    def test_byte_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(11)
        model = self._model(rng.normal(size=(5, 3)),
                            [f"n{i}" for i in range(5)], [])
        one, two = tmp_path / "a.txt", tmp_path / "b.txt"
        write_embeddings(model, str(one))
        write_embeddings(model, str(two))
        assert one.read_bytes() == two.read_bytes()
