"""Peak traced memory of the dense stages, in N-by-N float64 matrices.

On a planted graph of N = 1504 entities (the embed-sparse benchmark
shape), each stage is held to a bound that the whole-matrix forms it
replaced break: `build_hetero_adjacency` read 2.45 N^2, `walk_matrix`
3.02 N^2 and `side_enhance` 4.0 N^2 (on top of the walk matrix, which it
is given).  Column blocks, in-place accumulation, the node-block
solve and one node Laplacian per round bring them to about 1.25, 1.16
and 0.95.  With the combined graph B counted, live across the walk, a
dense B read 2.15 N^2; B held as CSR brings it to about 1.15, the peak
of the dense walk.  The relation block built on the support of the
attribute weights, instead of from dense n-by-m arrays, brings the
combined graph from 1.25 to about 0.45 N^2: the unit attribute columns
and the m-by-m similarity.  At a rank `factorize` runs Lanczos for, the
walk is stored as CSR (15% of its entries are nonzero) and peaks at
about 0.67 N^2, its row pieces and the mirrored copy.  `factorize` on
it peaks at about 0.25 N^2, the transposed copy its symmetry check
compares Z with (the entrywise `Z != Z.T` read 0.42).
`objective_value`, given its L, read 1.00 N^2 with a whole residual;
residual row blocks of 256 bring it to about 0.17.  `build_side_info`
stores no n-by-n source (it read 1.33 N^2 when it stored both).
`side_enhance` peaked at about 0.95 while it built the two sources and
their Laplacian densely; its node Laplacian is now a structured operator
on the adjacency and the unit attribute rows, solved by conjugate
gradients, so the round peaks at about 0.20, the objective's residual
blocks.

Whole commands, run through `cli.main` from the TSV files, peak at about
0.72 N^2 (`embed`) and 0.80 N^2 (`enhance`).  On the refine-cluster
benchmark shape (N = 1060 at dim 64, walk order 10), which takes
Lanczos, `eval-cluster` peaks at about 1.26 N^2 refined and 1.15 N^2
unrefined.  Their bounds leave the same headroom, about 1.3 times.
With the walk dense and the relation block built densely, `embed` read
1.79 N^2 and `enhance` 2.07 N^2; at refine-cluster the dense walk and
`eigh` read 2.75 and 2.32 N^2.  So a command that makes the CSR walk
dense whole, through `WalkMatrix.matrix` or otherwise, breaks its bound.
A dense node Laplacian read 1.30 N^2 for `enhance` and 2.10 N^2 for
refined `eval-cluster`; holding both dense sources for the whole round
read 2.97 and 4.22 N^2.

`tracemalloc` sees only what Python and numpy allocate, not the
workspace LAPACK mallocs inside `numpy.linalg`, so no bound here covers
it.  The refinement round is instead watched at `numpy.linalg`'s entry:
no array of n^2 elements or more reaches it, as the n-by-n I + L of the
LU solve it replaced did.  The dense `eigh` in `factorize`
(N < 16 * dim, as on the classify-small shape) raises the process
high-water mark (VmHWM) by about 4.8 N^2 at N = 720, where
`tracemalloc` reads 1.7 N^2; that step sets the process peak.
"""

import tracemalloc

import numpy as np
import pytest

from semgraph import (build_hetero_adjacency, build_side_info, factorize,
                      objective_value, planted_attributed_sbm, side_enhance,
                      walk_matrix)
from semgraph.cli import main


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
    assert _peak_multiple(g.n + g.m, build_hetero_adjacency, g) <= 0.6


def test_walk_peak(planted):
    g, hetero, _ = planted
    assert _peak_multiple(g.n + g.m, walk_matrix, hetero) <= 1.5


def test_csr_walk_peak(planted):
    g, hetero, _ = planted
    # dim 64 takes Lanczos at N = 1504, so the walk is built as CSR
    assert _peak_multiple(g.n + g.m, lambda: walk_matrix(
        hetero, dim=64)) <= 0.9


def test_csr_factorize_peak(planted):
    g, hetero, _ = planted
    walk = walk_matrix(hetero, dim=64)
    assert _peak_multiple(g.n + g.m, factorize, walk, 64) <= 0.32


def test_walk_peak_with_combined_graph(planted):
    g, _, _ = planted
    assert _peak_multiple(g.n + g.m, lambda: walk_matrix(
        build_hetero_adjacency(g))) <= 1.5


def test_side_info_peak(planted):
    g = planted[0]
    assert _peak_multiple(g.n + g.m, build_side_info, g) <= 0.01


def test_side_enhance_peak(planted):
    g, _, walk = planted
    model = factorize(walk, 16)
    side = build_side_info(g)
    assert _peak_multiple(g.n + g.m, side_enhance, model, walk, side) <= 0.26


def test_side_enhance_passes_linalg_no_square_array(planted, monkeypatch):
    """No array of n^2 elements or more reaches `numpy.linalg` in a
    refinement round, where LAPACK's workspace would escape
    `tracemalloc`."""
    g, _, walk = planted
    model = factorize(walk, 16)
    side = build_side_info(g)
    sizes = []

    def recording(fn):
        def recorded(*args, **kwargs):
            sizes.extend(np.size(a) for a in (*args, *kwargs.values())
                         if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return recorded

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recording(fn))
    side_enhance(model, walk, side)
    assert sizes and max(sizes) < g.n ** 2


def test_objective_peak(planted):
    g, _, walk = planted
    model = factorize(walk, 16)
    L = build_side_info(g).node_laplacian
    assert _peak_multiple(g.n + g.m, objective_value, walk.matrix,
                          model.vectors, model.context, L) <= 0.22


def _write_files(g, directory):
    adjacency = g.adjacency.tocoo()
    weights = g.attr_weights.tocoo()
    edges = "".join(f"{g.node_ids[i]}\t{g.node_ids[j]}\n"
                    for i, j in zip(adjacency.row, adjacency.col) if i < j)
    attrs = "".join(f"{g.node_ids[i]}\t{g.attr_ids[w]}\n"
                    for i, w in zip(weights.row, weights.col))
    labels = "".join(f"{node}\tc{label}\n"
                     for node, label in zip(g.node_ids, g.labels))
    (directory / "edges.tsv").write_text(edges, encoding="utf-8")
    (directory / "attrs.tsv").write_text(attrs, encoding="utf-8")
    (directory / "labels.tsv").write_text(labels, encoding="utf-8")
    return directory


def _command_peak(g, directory, argv):
    def run():
        assert main(argv + ["--edges", str(directory / "edges.tsv"),
                            "--attrs", str(directory / "attrs.tsv")]) == 0

    return _peak_multiple(g.n + g.m, run)


@pytest.fixture(scope="module")
def planted_files(planted, tmp_path_factory):
    return _write_files(planted[0], tmp_path_factory.mktemp("planted"))


@pytest.mark.parametrize("command, bound", [("embed", 1.0), ("enhance", 1.05)])
def test_command_peak(planted, planted_files, command, bound):
    argv = [command, "--out", str(planted_files / f"{command}.tsv")]
    assert _command_peak(planted[0], planted_files, argv) <= bound


@pytest.fixture(scope="module")
def refine_cluster(tmp_path_factory):
    # the refine-cluster benchmark input
    g = planted_attributed_sbm(nodes=900, blocks=8, intra=0.057,
                               inter=0.019, attrs_per_block=20,
                               inclusion=0.19, seed=1)
    assert g.n + g.m == 1060
    return g, _write_files(g, tmp_path_factory.mktemp("refine"))


def _eval_cluster_peak(refine_cluster, flags):
    # one k-means repeat: the peak is set before any clustering runs
    g, directory = refine_cluster
    argv = ["eval-cluster", "--labels", str(directory / "labels.tsv"),
            "--order", "10", "--repeats", "1"] + flags
    return _command_peak(g, directory, argv)


def test_refined_eval_cluster_peak(refine_cluster):
    assert _eval_cluster_peak(refine_cluster, [
        "--lambda1", "1", "--lambda2", "1"]) <= 1.65


def test_unrefined_eval_cluster_peak(refine_cluster):
    # the CSR walk: a dense one (and `eigh`) read 2.32 N^2
    assert _eval_cluster_peak(refine_cluster, []) <= 1.5
