"""Command-line pipeline orchestration.

Subcommands cover the full workflow: `embed` and `enhance` produce
embedding files, `eval-cluster` / `eval-classify` score them against
labels, `describe` emits community keyword blocks, and `selftest` runs
the built-in oracle suites.  Identical flags and inputs give
byte-identical artifacts for a fixed BLAS configuration.  A failing run
exits 1 with a single "error<TAB>reason" line on stderr; usage errors
(an unknown flag, a malformed value such as `--dim abc`, a missing
required flag such as `--labels` on `eval-*`) are argparse's, which
prints usage and exits 2.  BLAS thread count is controlled by the usual
environment variables (OMP_NUM_THREADS and friends), never by flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import evaluation
from .describe import describe_direct, describe_topics, format_descriptions
from .embedding import factorize, walk_matrix
from .evaluation import evaluate
from .hetero import DENSE_SIZE_CAP, build_hetero_adjacency
from .io import load_graph, write_embeddings
from .selftest import run_selftest
from .sideinfo import build_side_info, side_enhance


def _input_flags(parser, labels_required=False):
    parser.add_argument("--edges", required=True,
                        help="edge list: one tab-separated 'u<TAB>v' per line")
    parser.add_argument("--attrs", required=True,
                        help="attributes: 'node<TAB>attr[<TAB>weight]' lines")
    parser.add_argument("--labels", required=labels_required,
                        default=None,
                        help="labels: 'node<TAB>class' lines; embed and "
                             "enhance load and validate them but do not "
                             "use them")


def _pipeline_flags(parser):
    parser.add_argument("--dim", type=int, default=64,
                        help="embedding dimensionality k (default 64; "
                             "clamped to n+m with a warning)")
    parser.add_argument("--order", type=int, default=4,
                        help="random-walk window o (default 4)")
    parser.add_argument("--neg", type=int, default=1,
                        help="negative-sampling count b (default 1)")
    for i in range(3):
        parser.add_argument(f"--delta{i}", type=float, default=1.0,
                            help=f"weight of node-attribute relation "
                                 f"matrix {i} (default 1)")
    parser.add_argument("--size-cap", type=int, default=DENSE_SIZE_CAP,
                        help="max entity count n+m of the combined graph "
                             f"(default {DENSE_SIZE_CAP})")
    parser.add_argument("--weighted-motifs", action="store_true",
                        help="scale motif counts by attribute weights")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the eval-* repeats and the "
                             "describe clusterings (default 0); embed and "
                             "enhance are deterministic and do not read it")


def _lambda_flags(parser, default=(0.0, 0.0)):
    parser.add_argument("--lambda1", type=float, default=default[0],
                        help="weight of the modularity regularizer "
                             f"(default {default[0]:g})")
    parser.add_argument("--lambda2", type=float, default=default[1],
                        help="weight of the attribute-cosine regularizer "
                             f"(default {default[1]:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgraph",
        description="Joint node/attribute embedding of attributed graphs, "
                    "with evaluation and community description tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="compute and write an embedding file")
    _input_flags(p)
    _pipeline_flags(p)
    p.add_argument("--out", required=True, help="output embedding file")
    p.set_defaults(run=_cmd_embed)

    p = sub.add_parser("enhance",
                       help="embed, then refine with side-information "
                            "regularizers, and write the result")
    _input_flags(p)
    _pipeline_flags(p)
    _lambda_flags(p, default=(1.0, 1.0))
    p.add_argument("--out", required=True, help="output embedding file")
    p.set_defaults(run=_cmd_embed)

    for command, task in (("eval-cluster", "clustering"),
                          ("eval-classify", "classification")):
        p = sub.add_parser(command,
                           help=f"run the {command.split('-')[1]} protocol "
                                "(enhancement applied when a lambda is "
                                "nonzero)")
        _input_flags(p, labels_required=True)
        _pipeline_flags(p)
        _lambda_flags(p)
        p.add_argument("--repeats", type=int, default=100,
                       help="protocol repetitions (default 100)")
        p.add_argument("--train-frac", type=float, default=0.1,
                       help="train fraction for classification "
                            "(default 0.1); eval-cluster ignores it")
        p.add_argument("--out", default=None,
                       help="also write metric<TAB>value records here")
        p.set_defaults(run=_cmd_eval, task=task)

    p = sub.add_parser("describe",
                       help="print community keyword blocks (topic mode "
                            "when --attr-clusters is given)")
    _input_flags(p)
    _pipeline_flags(p)
    _lambda_flags(p)
    p.add_argument("--keywords", type=int, default=5,
                   help="keywords per community or topic, q (default 5)")
    p.add_argument("--topics", type=int, default=2,
                   help="topics per community, t (default 2)")
    p.add_argument("--node-clusters", type=int, default=None,
                   help="community count K1 (default: label class count)")
    p.add_argument("--attr-clusters", type=int, default=None,
                   help="attribute cluster count K2; enables topic mode")
    p.add_argument("--cosine-describe", action="store_true",
                   help="rank keywords by cosine instead of Euclidean "
                        "distance")
    p.add_argument("--out", default=None,
                   help="also write the description blocks here")
    p.set_defaults(run=_cmd_describe)

    p = sub.add_parser("selftest",
                       help="cross-check fast paths against reference code")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the random suites (default 0)")
    p.set_defaults(run=lambda args: 0 if run_selftest(seed=args.seed) else 1)
    return parser


def _model(args):
    """Shared pipeline: load, combined graph, walk matrix, rank-k
    factorization, and one refinement round against the side information
    weighted by --lambda1 / --lambda2: always on `enhance`, on `eval-*`
    and `describe` when a lambda is nonzero, never on `embed`, which has
    no lambdas.  A --dim below 1 is rejected before anything is built;
    one above the combined graph's size is clamped to it.  Returns the
    graph and the model."""
    g = load_graph(args.edges, args.attrs, labels_path=args.labels)
    if args.dim < 1:
        raise ValueError(f"dim must be >= 1, got {args.dim}")
    hetero = build_hetero_adjacency(
        g, deltas=(args.delta0, args.delta1, args.delta2),
        weighted_motifs=args.weighted_motifs, size_cap=args.size_cap)
    size = hetero.matrix.shape[0]
    dim = min(args.dim, size)
    walk = walk_matrix(hetero, order=args.order, negatives=args.neg)
    del hetero  # B is not read past the walk
    if dim < args.dim:
        print(f"warning: dim {args.dim} clamped to the {size} available "
              f"entities", file=sys.stderr)
    model = factorize(walk, dim)
    model.node_ids = list(g.node_ids)
    model.attr_ids = list(g.attr_ids[:model.m])  # all of g's, or none
    lambdas = (getattr(args, "lambda1", 0.0), getattr(args, "lambda2", 0.0))
    if args.command == "enhance" or any(lambdas):
        model = side_enhance(model, walk, build_side_info(g, lambdas=lambdas))
    return g, model


def _show(text, out, saved):
    """Print text and, with --out, write `saved` there."""
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(saved + "\n")
    return 0


def _cmd_embed(args):
    """`embed` and `enhance`: write the model."""
    write_embeddings(_model(args)[1], args.out)
    return 0


def _cmd_eval(args):
    g, model = _model(args)
    report = evaluate(model, g, task=args.task, repeats=args.repeats,
                      train_fraction=args.train_frac, seed=args.seed)
    return _show(report.table(), args.out, "\n".join(report.records()))


def _cmd_describe(args):
    g, model = _model(args)
    k1 = args.node_clusters
    if k1 is None:
        if g.c is None:
            raise ValueError("--node-clusters is required without --labels")
        k1 = g.c
    seeds = np.random.SeedSequence(args.seed).generate_state(2)
    node_cl = evaluation.kmeans(model.node_vectors, k1, int(seeds[0]))
    metric = "cosine" if args.cosine_describe else "euclidean"
    if args.attr_clusters is None:
        blocks = describe_direct(model, node_cl, q=args.keywords,
                                 metric=metric)
    else:
        attr_cl = evaluation.kmeans(model.attr_vectors, args.attr_clusters,
                                    int(seeds[1]))
        blocks = describe_topics(model, node_cl, attr_cl, q=args.keywords,
                                 t=args.topics, metric=metric)
    text = format_descriptions(blocks)
    return _show(text, args.out, text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:  # single-line machine-readable failure
        print(f"error\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
