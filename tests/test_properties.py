"""Property tests of the embedding-file format, run when hypothesis is
installed."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from semgraph import (EmbeddingModel, read_embeddings,  # noqa: E402
                      write_embeddings)

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
