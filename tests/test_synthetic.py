"""The planted-structure generator's parameter checks and guarantees."""

import numpy as np
import pytest

from semgraph import planted_attributed_sbm
from semgraph.synthetic import attribute_block


@pytest.mark.parametrize("kwargs, message", [
    (dict(blocks=0), "two nodes per block"),
    (dict(nodes=7, blocks=4), "two nodes per block"),
    (dict(intra=0.1, inter=0.2), "inter <= intra"),
    (dict(inter=-0.1), "inter <= intra"),
    (dict(intra=1.5), "inter <= intra"),
    (dict(inclusion=0.0), "inclusion"),
    (dict(inclusion=1.5), "inclusion"),
])
def test_bad_parameters_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        planted_attributed_sbm(**kwargs)


def test_every_attribute_gets_one_carrier_in_its_block():
    """At an inclusion so small that no draw switches an attribute on,
    each gets exactly one carrier, drawn from its own block."""
    g = planted_attributed_sbm(nodes=20, blocks=2, attrs_per_block=5,
                               inclusion=1e-12, seed=0)
    W = g.attr_weights.toarray()
    assert np.array_equal(W.sum(axis=0), np.ones(g.m))
    carriers = W.argmax(axis=0)
    assert [int(g.labels[i]) for i in carriers] == [
        attribute_block(a) for a in g.attr_ids]


@pytest.mark.parametrize("attr_id", ["x", "b1", "a_b1", ""])
def test_attribute_block_rejects_foreign_ids(attr_id):
    with pytest.raises(ValueError, match="not a generated attribute id"):
        attribute_block(attr_id)
