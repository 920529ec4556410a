"""Traced run of one semgraph CLI command, in a process of its own.

Usage: python traced.py WORKLOAD SPANS_JSON -- CLI_ARGS...

Wraps the public functions the CLI calls, at the module attribute they
are called through, so each call records a span: name, start, end,
parent span, workload and, for the pipeline stages, tracemalloc peak.
Inner functions (k-means, the classifier, the refinement updates and
objective) are wrapped in their own modules, where `evaluate` and
`side_enhance` look them up.
A few diagnostics are computed after a span closes, inside a
`trace.diagnostics` span so they count as nobody's work.  The spans are
kept in memory and written to SPANS_JSON when the command ends.

Nothing is patched unless this file runs as a script.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc

import numpy as np

MB = 2.0 ** 20
# Pipeline stages whose tracemalloc peak is recorded.  They never nest in
# one another.  Tracing allocations slows Python-bound loops several-fold,
# so it is off everywhere else, k-means and the classifier included.
MEMORY_SPANS = ("load_graph", "build_hetero_adjacency", "walk_matrix",
                "factorize", "build_side_info", "side_enhance")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.stack: list[dict] = []  # open spans, innermost last
        self.diagnostics: dict[str, list[float]] = {}

    def _open(self, name: str, memory: bool) -> dict:
        span = {"name": name, "workload": self.workload,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "id": len(self.spans), "peak_mb": 0.0, "memory": memory}
        self.spans.append(span)
        self.stack.append(span)
        if memory:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if span["memory"]:
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
        self.stack.pop()

    def call(self, name, fn, args, kwargs, diagnose=None, memory=False):
        span = self._open(name, memory)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if diagnose is not None:
            span = self._open("trace.diagnostics", False)
            try:
                for key, value in diagnose(result, *args, **kwargs).items():
                    self.diagnostics.setdefault(key, []).append(value)
            finally:
                self._close(span)
        return result

    def wrap(self, module, attr: str, diagnose=None,
             memory: bool = False) -> None:
        """Replace module.attr by a recording wrapper; fail loudly when the
        attribute is gone, so a moved function breaks the trace instead of
        reporting zero time."""
        fn = getattr(module, attr, None)
        if fn is None:
            raise AttributeError(f"{module.__name__} has no {attr!r} to trace")
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, diagnose, memory)

        setattr(module, attr, traced)

    def dump(self, path: str, rc: int) -> None:
        spans = [{key: span[key] for key in
                  ("id", "name", "parent", "workload", "start", "end",
                   "peak_mb")} for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "spans": spans,
                       "diagnostics": self.diagnostics}, fh)


def _walk_zero_frac(walk, *args, **kwargs):
    return {"embedding.walk_matrix.zero_frac":
            float(np.mean(walk.matrix == 0.0))}


def _factorize_residual(model, walk, *args, **kwargs):
    Z = walk.matrix
    residual = np.linalg.norm(Z - model.vectors @ model.context.T)
    return {"embedding.factorize.rel_residual":
            float(residual / np.linalg.norm(Z))}


def _classifier_converged(clf, *args, **kwargs):
    """Share of one-vs-rest problems whose final gradient norm is <= tol,
    recomputed from the returned weights."""
    from semgraph import evaluation

    bound = inspect.signature(evaluation.train_classifier).bind(
        *args, **kwargs)
    bound.apply_defaults()
    X = np.asarray(bound.arguments["vectors"], dtype=float)
    y = np.asarray(bound.arguments["labels"]).ravel()
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    norms = [np.linalg.norm(evaluation.logistic_grad(
        w, Xa, (y == cls).astype(float), clf.l2))
        for cls, w in zip(clf.classes, clf.weights)]
    return {"evaluation.train_classifier.converged_frac":
            float(np.mean(np.asarray(norms) <= bound.arguments["tol"]))}


def _written_bytes(_, model, path, *args, **kwargs):
    return {"io.write_embeddings.bytes": float(os.path.getsize(path))}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py WORKLOAD SPANS_JSON -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    workload, out, cli_argv = argv[0], argv[1], argv[3:]

    import semgraph
    from semgraph import cli, evaluation, sideinfo

    tracer = Tracer(workload)
    diagnose = {"walk_matrix": _walk_zero_frac,
                "factorize": _factorize_residual,
                "train_classifier": _classifier_converged,
                "write_embeddings": _written_bytes}
    targets = [(cli, name) for name in (
        "load_graph", "build_hetero_adjacency", "walk_matrix", "factorize",
        "build_side_info", "side_enhance", "evaluate", "write_embeddings")]
    targets += [(sideinfo, name) for name in
                ("update_x", "update_y", "objective_value")]
    targets += [(evaluation, name) for name in ("kmeans", "train_classifier")]
    for module, name in targets:
        if name not in semgraph.__all__:
            raise AttributeError(f"{name!r} is no longer public in semgraph")
        tracer.wrap(module, name, diagnose.get(name), name in MEMORY_SPANS)

    rc = tracer.call("cli.main", cli.main, (cli_argv,), {})
    tracer.dump(out, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
