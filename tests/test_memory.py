"""Peak traced memory of the dense stages, in N-by-N float64 matrices.

On a planted graph of N = 1504 entities (the embed-sparse benchmark
shape), each stage is held to a bound that the whole-matrix forms it
replaced break: `build_hetero_adjacency` read 2.45 N^2, `walk_matrix`
3.02 N^2 and `side_enhance` 4.0 N^2 (on top of the walk matrix, which it
is given).  Column blocks, in-place accumulation and the node-block
Cholesky bring them to about 1.25, 1.16 and 1.09.  With the combined
graph B counted, live across the walk, a dense B read 2.15 N^2; B held
as CSR brings it to about 1.25, the peak of building B.
"""

import tracemalloc

import pytest

from semgraph import (build_hetero_adjacency, build_side_info, factorize,
                      planted_attributed_sbm, side_enhance, walk_matrix)


@pytest.fixture(scope="module")
def planted():
    g = planted_attributed_sbm(nodes=1000, blocks=7, intra=0.0215,
                               inter=0.00104, attrs_per_block=72,
                               inclusion=0.06, seed=1)
    hetero = build_hetero_adjacency(g)
    walk = walk_matrix(hetero)
    assert walk.matrix.shape == (1504, 1504)
    return g, hetero, walk


def _peak_multiple(size, fn, *args):
    """Peak of the allocations `fn(*args)` makes, over 8 * size**2 bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * size * size)


def test_hetero_peak(planted):
    g, _, _ = planted
    assert _peak_multiple(g.n + g.m, build_hetero_adjacency, g) <= 1.8


def test_walk_peak(planted):
    g, hetero, _ = planted
    assert _peak_multiple(g.n + g.m, walk_matrix, hetero) <= 1.5


def test_walk_peak_with_combined_graph(planted):
    g, _, _ = planted
    assert _peak_multiple(g.n + g.m, lambda: walk_matrix(
        build_hetero_adjacency(g))) <= 1.5


def test_side_enhance_peak(planted):
    g, _, walk = planted
    model = factorize(walk, 16)
    side = build_side_info(g)
    assert _peak_multiple(g.n + g.m, side_enhance, model, walk, side) <= 2.5
