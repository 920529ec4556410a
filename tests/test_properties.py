"""Property tests of the embedding-file format and of graph loading from
TSV files, run when hypothesis is installed."""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from semgraph import (EmbeddingModel, load_graph,  # noqa: E402
                      read_embeddings, write_embeddings)
from semgraph.cli import main  # noqa: E402

# An id is one TSV field: any text without a line break or a tab.  Lone
# surrogates cannot be written as UTF-8.
ids = st.text(st.characters(blacklist_categories=("Cs",),
                            blacklist_characters="\r\n\t"), max_size=8)


@st.composite
def models(draw):
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0 if n else 1, 4))
    dim = draw(st.integers(1, 5))
    vectors = draw(hnp.arrays(np.float64, (n + m, dim),
                              elements=st.floats(allow_nan=False,
                                                 allow_infinity=False)))
    names = draw(st.lists(ids, min_size=n + m, max_size=n + m, unique=True))
    return EmbeddingModel(vectors=vectors, context=np.zeros_like(vectors),
                          n=n, node_ids=names[:n], attr_ids=names[n:])


@settings(max_examples=60, deadline=None, database=None)
@given(models())
def test_round_trip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "emb.txt")
        write_embeddings(model, path)
        back = read_embeddings(path)
    assert (back.entity_count, back.dim) == model.vectors.shape
    assert back.node_ids == model.node_ids
    assert back.attr_ids == model.attr_ids
    # bit for bit, so -0.0 and 0.0 differ
    assert np.array_equal(back.vectors.view(np.int64),
                          model.vectors.view(np.int64))


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n"), max_size=12),
    st.lists(st.integers(-3, 3).map(str), max_size=3).map(" ".join)))
def test_header_parses_or_is_malformed(header):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "emb.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
        try:
            parsed = read_embeddings(path)
        except ValueError as exc:
            # a well-formed header promising rows the file lacks is the
            # only other rejection an empty body can meet
            assert (str(exc).endswith("malformed header")
                    or "header promises" in str(exc)), str(exc)
        else:
            assert parsed.entity_count == 0 and parsed.dim >= 1
            assert parsed.rows == []


@st.composite
def graph_rows(draw):
    """Edge and attribute rows of a random small graph.

    Edges are written in random orientation, some twice, reversed.  Each
    node-attribute pair appears at most once, with a positive weight or
    with the weight left out (1.0), so no attribute column is dropped.
    """
    names = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs
             else [])
    edge_rows = []
    for i, j in edges:
        row = [names[i], names[j]]
        edge_rows.append(row[::-1] if draw(st.booleans()) else row)
    edge_rows += [[v, u] for u, v in edge_rows if draw(st.booleans())]
    attrs = draw(st.lists(ids, max_size=4, unique=True))
    cells = [(i, w) for i in range(n) for w in range(len(attrs))]
    chosen = (draw(st.lists(st.sampled_from(cells), unique=True)) if cells
              else [])
    attr_rows = []
    for i, w in chosen:
        weight = draw(st.none() | st.floats(0.5, 100.0))
        attr_rows.append([names[i], attrs[w]]
                         + ([] if weight is None else [repr(weight)]))
    assume(edge_rows or attr_rows)
    return edge_rows, attr_rows


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


@settings(max_examples=80, deadline=None, database=None)
@given(graph_rows())
def test_load_graph_round_trip(rows):
    edge_rows, attr_rows = rows
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, f"{kind}.tsv")
                 for kind in ("edges", "attrs")]
        _write_rows(paths[0], edge_rows)
        _write_rows(paths[1], attr_rows)
        g = load_graph(*paths)
    # ids in first-appearance order, edges file first
    node_ids = list(dict.fromkeys(
        [u for row in edge_rows for u in row] + [r[0] for r in attr_rows]))
    attr_ids = list(dict.fromkeys(r[1] for r in attr_rows))
    assert g.node_ids == node_ids
    assert g.attr_ids == attr_ids
    node = {name: i for i, name in enumerate(node_ids)}
    A = np.zeros((len(node_ids), len(node_ids)))
    for u, v in edge_rows:
        A[node[u], node[v]] = A[node[v], node[u]] = 1.0
    R = np.zeros((len(node_ids), len(attr_ids)))
    for row in attr_rows:
        R[node[row[0]], attr_ids.index(row[1])] = (
            float(row[2]) if len(row) == 3 else 1.0)
    assert np.array_equal(g.adjacency.toarray(), A)
    assert np.array_equal(g.attr_weights.toarray(), R)


@settings(max_examples=60, deadline=None, database=None)
@given(graph_rows(), st.booleans(), st.data())
def test_malformed_line_is_located(rows, in_attrs, data):
    edge_rows, attr_rows = rows
    # a non-empty line whose field count neither file accepts
    counts = (1, 4, 5) if in_attrs else (1, 3, 4)
    k = data.draw(st.sampled_from(counts))
    bad = data.draw(st.lists(ids, min_size=k, max_size=k).filter(
        lambda fields: "".join(fields)))
    target = attr_rows if in_attrs else edge_rows
    lineno = data.draw(st.integers(1, len(target) + 1))
    target.insert(lineno - 1, bad)
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, f"{kind}.tsv")
                 for kind in ("edges", "attrs")]
        _write_rows(paths[0], edge_rows)
        _write_rows(paths[1], attr_rows)
        where = f"{paths[int(in_attrs)]}:{lineno}:"
        with pytest.raises(ValueError) as exc:
            load_graph(*paths)
        assert str(exc.value).startswith(where)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["embed", "--edges", paths[0], "--attrs", paths[1],
                         "--out", os.path.join(directory, "emb.txt")])
    assert code == 1
    assert err.getvalue().startswith(f"error\t{where}")
    assert err.getvalue().count("\n") == 1
