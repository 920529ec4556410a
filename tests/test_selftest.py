"""The self-test must be able to fail: each suite reports a discrepancy
when the code it checks is perturbed, and a failing suite fails the
command."""

import numpy as np
import pytest

from semgraph import (embedding, evaluation, hetero, reference, selftest,
                      sideinfo)
from semgraph.cli import main

# The replacements call the originals through their own modules, whose
# names `monkeypatch` leaves alone.


def _raise_value_error(*args, **kwargs):
    raise ValueError("rejected")


def _node_rows_scaled(g, **kwargs):
    combined = hetero.build_hetero_adjacency(g, **kwargs)
    B = combined.matrix
    B.data[:B.indptr[combined.n]] *= 2.0  # the similarity block is kept
    return combined


def _scaled_walk(combined, **kwargs):
    walk = embedding.walk_matrix(combined, **kwargs)
    return embedding.WalkMatrix(stored=walk.stored * 1.001, n=walk.n)


def _shifted_motifs(R):
    R1, R2 = hetero.motif_relations(R)
    R1.data += 1.0
    return R1, R2


def _scaled_factors(walk, dim):
    model = embedding.factorize(walk, dim)
    model.vectors *= 1.001
    return model


def _scaled_update(Z, Y, L):
    return sideinfo.update_x(Z, Y, L) * 1.001


def _widened_range(adjacency):
    lo, hi = sideinfo._modularity_range(adjacency)
    return lo, hi + 1e-9


def _halved_nmi(a, b):
    return evaluation.nmi(a, b) / 2.0


def _asymmetric_nmi(a, b):
    return evaluation.nmi(a, b) + 1e-9 * (a[0] - b[0])


def _off_on_every_second_call(f):
    """f, off by 1e-9 on every second call: `_check_metrics` scores a
    partition, then its relabeling."""
    calls = []

    def perturbed(*args):
        calls.append(None)
        return f(*args) + (0.0 if len(calls) % 2 else 1e-9)
    return perturbed


def _suboptimal_accuracy(pred, truth):
    return evaluation.clustering_accuracy(pred, truth) * 0.99


# (name in `selftest` to replace, replacement, suite that must fail)
_PERTURBED = {
    "assembly rejects": ("build_hetero_adjacency", _raise_value_error,
                         selftest._check_assembly),
    "assembly differs": ("build_hetero_adjacency", _node_rows_scaled,
                         selftest._check_assembly),
    "walk": ("walk_matrix", _scaled_walk, selftest._check_walk),
    "motifs": ("motif_relations", _shifted_motifs, selftest._check_motifs),
    "factorization": ("factorize", _scaled_factors,
                      selftest._check_factorization),
    "refinement solve": ("update_x", _scaled_update,
                         selftest._check_refinement),
    "modularity range": ("_modularity_range", _widened_range,
                         selftest._check_refinement),
    "nmi of a partition with itself": ("nmi", _halved_nmi,
                                       selftest._check_metrics),
    "nmi symmetry": ("nmi", _asymmetric_nmi, selftest._check_metrics),
    "accuracy relabeling": (
        "clustering_accuracy",
        _off_on_every_second_call(evaluation.clustering_accuracy),
        selftest._check_metrics),
    "accuracy optimality": ("clustering_accuracy", _suboptimal_accuracy,
                            selftest._check_metrics),
}


@pytest.mark.parametrize("case", sorted(_PERTURBED))
def test_suite_detects_perturbation(case, monkeypatch):
    name, replacement, check = _PERTURBED[case]
    monkeypatch.setattr(selftest, name, replacement)
    worst, tol = check(np.random.default_rng(0), 3)
    assert worst > tol


def test_assembly_accepts_rejecting_an_isolated_entity(monkeypatch):
    """A build that rejects the graph is correct when the dense assembly
    leaves an entity without relations."""
    assemble_b = reference.assemble_b

    def isolated_first_node(*args):
        B = assemble_b(*args)
        B[0] = B[:, 0] = 0.0
        return B

    monkeypatch.setattr(reference, "assemble_b", isolated_first_node)
    monkeypatch.setattr(selftest, "build_hetero_adjacency", _raise_value_error)
    worst, tol = selftest._check_assembly(np.random.default_rng(0), 3)
    assert worst <= tol


def test_failing_suite_fails_the_command(monkeypatch, capsys):
    suites = [(name, check, 2) for name, check, _ in selftest._SUITES]
    monkeypatch.setattr(selftest, "_SUITES", suites)
    assert selftest.run_selftest(seed=0)
    capsys.readouterr()
    monkeypatch.setattr(selftest, "nmi", _halved_nmi)
    assert not selftest.run_selftest(seed=0)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["ok"] * 5 + ["FAIL"]
    assert lines[-1].startswith("FAIL metric sanity")
    assert main(["selftest", "--seed", "0"]) == 1
