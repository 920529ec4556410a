"""Workload definitions and their seeded input generator.

Each workload is a planted attributed SBM (`semgraph.planted_attributed_sbm`)
written out as edges/attrs/labels TSV files, plus the CLI command that runs
on them.  The generator checks every generated shape against the one
recorded here, so a change to `semgraph.synthetic` cannot silently resize a
workload: n, m and N are exact, mean degree and attributes per node vary a
little with the seed and must stay inside `SHAPE_TOLERANCE`.

Sizes are chosen so one CLI run takes about 2.5 s on a 2-core box with 2
BLAS threads; a 36 s measuring window then holds about ten runs, enough
for a steady median.  classify-small trains on 20% of the nodes, not the
CLI's default 10%: with 60 training nodes its accuracy spread 7% from
seed to seed, with 120 under 3%.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SHAPE_TOLERANCE = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    sbm: dict
    shape: dict  # n, m, N exact; mean_degree, attrs_per_node approximate
    command: str  # semgraph subcommand
    flags: tuple[str, ...]
    trace_spans: tuple[str, ...]  # spans the traced run must record


WORKLOADS = {w.name: w for w in (
    Workload(
        name="embed-sparse",
        sbm=dict(nodes=1000, blocks=7, intra=0.0215, inter=0.00104,
                 attrs_per_block=72, inclusion=0.06),
        shape=dict(n=1000, m=504, N=1504, mean_degree=4.0,
                   attrs_per_node=4.3),
        command="embed",
        flags=("--dim", "64", "--order", "4"),
        trace_spans=("cli.main", "io.load_graph",
                     "hetero.build_hetero_adjacency",
                     "embedding.walk_matrix", "embedding.factorize",
                     "io.write_embeddings"),
    ),
    Workload(
        name="refine-cluster",
        sbm=dict(nodes=900, blocks=8, intra=0.057, inter=0.019,
                 attrs_per_block=20, inclusion=0.19),
        shape=dict(n=900, m=160, N=1060, mean_degree=21.2,
                   attrs_per_node=3.8),
        command="eval-cluster",
        flags=("--order", "10", "--lambda1", "1", "--lambda2", "1",
               "--repeats", "6"),
        trace_spans=("cli.main", "io.load_graph",
                     "hetero.build_hetero_adjacency",
                     "embedding.walk_matrix", "embedding.factorize",
                     "sideinfo.build_side_info", "sideinfo.side_enhance",
                     "sideinfo.update_x", "sideinfo.update_y",
                     "sideinfo.objective_value", "evaluation.evaluate",
                     "evaluation.kmeans"),
    ),
    Workload(
        name="classify-small",
        sbm=dict(nodes=600, blocks=6, intra=0.04, inter=0.01,
                 attrs_per_block=20, inclusion=0.15),
        shape=dict(n=600, m=120, N=720, mean_degree=9.0,
                   attrs_per_node=3.0),
        command="eval-classify",
        flags=("--dim", "128", "--repeats", "2", "--train-frac", "0.2"),
        trace_spans=("cli.main", "io.load_graph",
                     "hetero.build_hetero_adjacency",
                     "embedding.walk_matrix", "embedding.factorize",
                     "evaluation.evaluate", "evaluation.train_classifier"),
    ),
)}


def measured_shape(g) -> dict:
    return dict(n=g.n, m=g.m, e=g.e, N=g.n + g.m,
                mean_degree=2.0 * g.e / g.n,
                attrs_per_node=g.attr_weights.nnz / g.n)


def check_shape(workload: Workload, shape: dict) -> None:
    """Raise ValueError when a generated input drifts from the record."""
    want = workload.shape
    for key in ("n", "m", "N"):
        if shape[key] != want[key]:
            raise ValueError(f"{workload.name}: {key} is {shape[key]}, "
                             f"recorded {want[key]}")
    for key in ("mean_degree", "attrs_per_node"):
        if abs(shape[key] - want[key]) > SHAPE_TOLERANCE * want[key]:
            raise ValueError(f"{workload.name}: {key} is {shape[key]:.3f}, "
                             f"recorded {want[key]} "
                             f"(tolerance {SHAPE_TOLERANCE:.0%})")


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write edges/attrs/labels TSVs for `seed`; return paths and shape."""
    from semgraph import planted_attributed_sbm

    g = planted_attributed_sbm(seed=seed, **workload.sbm)
    shape = measured_shape(g)
    check_shape(workload, shape)
    paths = {kind: directory / f"{kind}.tsv"
             for kind in ("edges", "attrs", "labels")}
    adj = g.adjacency.tocoo()
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for i, j in zip(adj.row, adj.col):
            if i < j:
                fh.write(f"{g.node_ids[i]}\t{g.node_ids[j]}\n")
    attrs = g.attr_weights.tocoo()
    with open(paths["attrs"], "w", encoding="utf-8") as fh:
        for i, w in zip(attrs.row, attrs.col):
            fh.write(f"{g.node_ids[i]}\t{g.attr_ids[w]}\n")
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        for node, label in zip(g.node_ids, g.labels):
            fh.write(f"{node}\tc{label}\n")
    return {"paths": paths, "shape": shape}


def cli_args(workload: Workload, paths: dict, out: Path) -> list[str]:
    """Arguments after `python -m semgraph.cli` for one run."""
    args = [workload.command, "--edges", str(paths["edges"]),
            "--attrs", str(paths["attrs"])]
    if workload.command != "embed":
        args += ["--labels", str(paths["labels"])]
    return args + list(workload.flags) + ["--out", str(out)]
