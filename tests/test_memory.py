"""Peak memory of the pipeline stages, in N-by-N float64 matrices.

On a planted graph of N = 1504 entities (the embed-sparse benchmark
shape), each stage is held to a bound that the whole-matrix forms it
replaced break: `build_hetero_adjacency` read 2.45 N^2, `walk_matrix`
3.02 N^2 and `side_enhance` 4.0 N^2 (on top of the walk matrix, which it
is given).  The relation block built on the support of the attribute
weights, instead of from dense n-by-m arrays, brings the combined graph
from 1.25 to about 0.45 N^2, the similarity's Gram formed from the
sparse unit attribute columns, instead of a dense n-by-m copy of them,
to 0.235, its scaling applied in row blocks, instead of through an
m-by-m outer product, to 0.18, the dense m-by-m similarity, and the
similarity built, scaled and mnorm-ed on its stored entries, as the
relation block is, to about 0.065: B and the blocks it is assembled
from, all sparse.  The walk
propagates column blocks and stores CSR (15% of its entries are
nonzero); it peaks at about 0.54 N^2, its upper triangle, the
triangle's transpose and their entrywise maximum, and at about 0.56
with the combined graph B live across it.  Mirroring the triangle by
adding the transpose of a `triu` copy read 0.67 and 0.69.  The dense
walk it replaced read 1.15 N^2, and 2.15 with a dense B.
`factorize` peaks at about 0.18 N^2, its Lanczos basis and products;
it read 0.25 when it compared Z with a transposed copy, a check the
walk now makes once, when it is built (the entrywise `Z != Z.T` read
0.42).  `objective_value`, given its L, read 1.00 N^2 with a whole
residual; residual row blocks of 256, with Z's stored entries added
into each block instead of its rows made dense, bring it to about 0.20
(0.38 with them made dense).  `build_side_info` stores no n-by-n
source (it read 1.33 N^2 when it stored both).  `side_enhance` on the
CSR walk peaks at about 0.23, the objective's residual blocks; its node
Laplacian is a structured operator on the adjacency and the unit
attribute rows, solved by conjugate gradients (building both sources
and their Laplacian densely read 0.95).

Whole commands, run through `cli.main` from the TSV files, peak at about
0.59 N^2 (`embed`) and 0.62 N^2 (`enhance`).  On the refine-cluster
benchmark shape (N = 1060 at dim 64, walk order 10), `eval-cluster`
peaks at about 0.98 N^2 refined and 0.95 N^2 unrefined.  Their bounds
were set when the walk's `triu` mirror made these 0.72, 0.72, 1.15 and
1.15, and leave 1.3 to 1.7 times headroom.  With the walk dense and the
relation block built densely, `embed` read 1.79 N^2 and `enhance` 2.07
N^2; at refine-cluster the dense walk and `eigh` read 2.75 and 2.32
N^2.  So a command that makes the CSR walk dense whole, through
`WalkMatrix.matrix` or otherwise, breaks its bound.  A dense node
Laplacian read 1.30 N^2 for `enhance` and 2.10 N^2 for refined
`eval-cluster`; holding both dense sources for the whole round read
2.97 and 4.22 N^2.

`tracemalloc` sees only what Python and numpy allocate, not the
workspace LAPACK mallocs inside `numpy.linalg`.  The refinement round is
watched at `numpy.linalg`'s entry instead: no array of n^2 elements or
more reaches it, as the n-by-n I + L of the LU solve it replaced did.
`factorize` is watched by the process high-water mark (VmHWM) of a
child that runs it alone, on the classify-small benchmark shape (N =
720 at dim 128).  Lanczos raises it by about 1.07 N^2; the dense `eigh`
it replaced at that rank raised it by 5.4 N^2 and set the process peak.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import semgraph
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
    assert walk.stored.shape == (1504, 1504)
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
    assert _peak_multiple(g.n + g.m, build_hetero_adjacency, g) <= 0.085


def test_walk_peak(planted):
    g, hetero, _ = planted
    assert _peak_multiple(g.n + g.m, walk_matrix, hetero) <= 0.62


def test_csr_factorize_peak(planted):
    g, _, walk = planted
    assert _peak_multiple(g.n + g.m, factorize, walk, 64) <= 0.23


def test_walk_peak_with_combined_graph(planted):
    g, _, _ = planted
    assert _peak_multiple(g.n + g.m, lambda: walk_matrix(
        build_hetero_adjacency(g))) <= 0.64


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


def test_csr_objective_peak(planted):
    g, _, walk = planted
    model = factorize(walk, 16)
    L = build_side_info(g).node_laplacian
    Z = sparse.csr_array(walk.stored)
    assert _peak_multiple(g.n + g.m, objective_value, Z, model.vectors,
                          model.context, L) <= 0.25


# Runs `factorize` in a fresh process on a saved walk and prints the rise
# of VmHWM, in kB, across it.  A factorization of a leading block first
# touches the BLAS threads' buffers and LAPACK's code, which the pipeline
# has paid for before `factorize` runs.
_HWM_CHILD = """
import sys
from scipy import sparse
from semgraph import WalkMatrix, factorize

def high_water_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

Z = sparse.csr_array(sparse.load_npz(sys.argv[1]))
dim = int(sys.argv[2])
lead = Z[:240][:, :240]
factorize(WalkMatrix(stored=lead, n=240), 64)
before = high_water_kb()
factorize(WalkMatrix(stored=Z, n=0), dim)
print(high_water_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_factorize_high_water_rise(tmp_path):
    """On the classify-small benchmark shape (N = 720 at dim 128), the
    process high-water mark rises by at most 1.4 N^2 across `factorize`,
    LAPACK's workspace included."""
    g = planted_attributed_sbm(nodes=600, blocks=6, intra=0.04, inter=0.01,
                               attrs_per_block=20, inclusion=0.15, seed=1)
    size = g.n + g.m
    assert size == 720
    walk = walk_matrix(build_hetero_adjacency(g))
    path = tmp_path / "walk.npz"
    sparse.save_npz(path, sparse.csr_array(walk.stored))
    src = str(Path(semgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HWM_CHILD, str(path),
                          "128"], env=env, check=True, capture_output=True,
                         text=True)
    rise = int(out.stdout) * 1024.0 / (8.0 * size * size)
    assert rise <= 1.4


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
