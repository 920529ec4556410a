"""Benchmark of the semgraph CLI on generated planted-SBM inputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run spawns `python -m semgraph.cli` in a child process with the
BLAS thread count pinned to the number of usable cores, and checks its
outputs.  One untimed, checked warm-up run comes first.  Timed runs then
repeat for about S seconds, at least MIN_RUNS times, each after one timed
`import semgraph.cli` child.  `wall_s`, `setup_s` and `peak_rss_mb` are
medians over the window.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 one more child
runs the same command under `traced.py`, and the line holds the
per-layer metrics instead.  The lines before it give a readable summary;
the full record, with provenance, goes to
perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, cli_args, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_RUNS = 5
DEADLINE_S = 170.0  # every child is killed past this point of the run
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECORD_KEYS = {"eval-cluster": ("nmi", "ac"),
               "eval-classify": ("ac", "macro_f1")}


class Child:
    """Spawns processes in the benchmark environment and times them."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, argv: list[str], log_stem: Path) -> dict:
        """Run argv to completion; return wall time, exit code, max RSS."""
        with open(f"{log_stem}.stdout", "wb") as out, \
                open(f"{log_stem}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()),
                _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rc": proc.returncode,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "stderr": Path(f"{log_stem}.stderr").read_text(
                    encoding="utf-8", errors="replace")}


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_outputs(workload, result: dict, out: Path, reference: dict):
    """Return (problems, records) for one CLI run's outputs.

    The first successful run's artifact digest becomes the reference that
    every later run, the traced one included, must match byte for byte.
    """
    import numpy as np

    from semgraph import read_embeddings

    problems = []
    if result["rc"] != 0:
        problems.append(f"exit code {result['rc']}")
    if any(line.startswith("error\t")
           for line in result["stderr"].splitlines()):
        problems.append("stderr has an error line")
    if problems:
        return problems, {}
    if not out.is_file():
        return ["no output file"], {}
    records = {}
    if workload.command == "embed":
        try:
            emb = read_embeddings(out)
        except ValueError as exc:
            return [f"read_embeddings rejected the output: {exc}"], {}
        vectors = emb.vectors
        dim = int(workload.flags[workload.flags.index("--dim") + 1])
        if vectors.shape != (workload.shape["N"], dim):
            problems.append(f"embedding shape {vectors.shape}, expected "
                            f"({workload.shape['N']}, {dim})")
        elif not np.isfinite(vectors).all():
            problems.append("non-finite embedding value")
    else:
        for line in out.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("\t")
            try:
                records[key] = float(value)
            except ValueError:
                problems.append(f"bad record line {line!r}")
        for key in RECORD_KEYS[workload.command]:
            value = records.get(key)
            if value is None or not 0.0 <= value <= 1.0:
                problems.append(f"record {key} missing or out of range")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    reference.setdefault("sha256", digest)
    if digest != reference["sha256"]:
        problems.append("artifact bytes differ from the first run's")
    return problems, records


def embedding_quality(workload, emb_path: Path, labels_path: Path) -> dict:
    """k-means NMI, matched accuracy of the written node vectors.

    Best of 50 k-means restarts: with the default 10, two seeds in ten
    kept a local optimum that merges two blocks, and accuracy read 0.79
    where the best clustering of the same vectors reads 0.99.
    """
    import numpy as np

    from semgraph import clustering_accuracy, kmeans, nmi, read_embeddings

    emb = read_embeddings(emb_path)
    truth = dict(line.split("\t") for line in
                 labels_path.read_text(encoding="utf-8").splitlines())
    rows = [(truth[tag[2:]], vec) for tag, vec in emb.rows
            if tag.startswith("n:")]
    labels = np.array([label for label, _ in rows])
    vectors = np.array([vec for _, vec in rows])
    cl = kmeans(vectors, workload.sbm["blocks"], seed=0, restarts=50)
    return {"nmi": nmi(cl.assignment, labels),
            "ac": clustering_accuracy(cl.assignment, labels)}


def layer_metrics(trace: dict, workload, untraced_wall: float,
                  traced_wall: float) -> tuple[dict, list[str], str]:
    """Per-layer numbers from the spans; also the problems found and the
    dominant layer's name."""
    spans = trace["spans"]
    totals: dict[str, dict] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(
                span["parent"], 0.0) + span["end"] - span["start"]
    for span in spans:
        dur = span["end"] - span["start"]
        agg = totals.setdefault(span["name"], {"calls": 0, "s": 0.0,
                                               "self_s": 0.0, "peak_mb": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time.get(span["id"], 0.0)
        agg["peak_mb"] = max(agg["peak_mb"], span["peak_mb"])

    problems = [f"traced run recorded no call to {name}"
                for name in workload.trace_spans if name not in totals]
    values = {}
    for name, agg in totals.items():
        for key in ("calls", "s", "peak_mb"):
            values[f"{name}.{key}"] = agg[key]
    for key, samples in trace["diagnostics"].items():
        values[key] = statistics.fmean(samples)
    layers = {name: agg["self_s"] for name, agg in totals.items()
              if name not in ("cli.main", "trace.diagnostics")}
    dominant = max(layers, key=layers.get) if layers else "none"
    in_process = totals.get("cli.main", {"s": math.nan})["s"]
    values["trace.dominant_self_frac"] = layers.get(dominant, 0.0) / in_process
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values, problems, dominant


def provenance(nproc: int, blas_env: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "semgraph").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {"nproc": nproc, "cpu_model": cpu, "blas_env": blas_env,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "python": platform.python_version(),
            "git_commit": commit, "src_sha256": src_hash.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "semgraph" / "cli.py").is_file():
        print(f"error: no semgraph sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2

    # Pin BLAS threads before numpy loads here, and in every child.
    nproc = len(os.sched_getaffinity(0))
    blas_env = {var: str(nproc) for var in BLAS_VARS}
    os.environ.update(blas_env)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    work = OUT / f"{tag}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, workload, work, tag, nproc, blas_env,
                       started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, workload, work, tag, nproc, blas_env,
            started) -> int:
    inputs = write_inputs(workload, args.seed, work)
    child = Child(dict(os.environ), started + DEADLINE_S)
    python = sys.executable
    importing = [python, "-c", "import semgraph.cli"]

    # Run 0 is the warm-up.  It fills the file cache and, unless
    # PYTHONDONTWRITEBYTECODE is set, writes bytecode: costs a user pays
    # once per install, not per command.  It is checked but not timed.
    # Each timed run follows one set-up sample, which spreads both kinds
    # of sample over the whole window, so a slow spell on the box hits
    # them alike.
    reference: dict = {}
    setup, runs, failures, records = [], [], [], {}
    first_out, window = None, None
    while True:
        timed = window is not None
        if timed:
            setup.append(child.run(importing, work / f"setup{len(setup)}"))
        out = work / f"artifact{len(runs)}"
        result = child.run([python, "-m", "semgraph.cli"]
                           + cli_args(workload, inputs["paths"], out),
                           work / f"run{len(runs)}")
        problems, run_records = check_outputs(workload, result, out,
                                              reference)
        if timed and setup[-1]["rc"] != 0:
            problems.append("set-up import failed")
        runs.append(result)
        if problems:
            failures.append({"run": len(runs) - 1, "problems": problems})
        else:
            records = records or run_records
            if first_out is None:
                first_out = out
        if out != first_out:
            out.unlink(missing_ok=True)
        if not timed:
            window = time.monotonic()
            continue
        elapsed = time.monotonic() - window
        typical = elapsed / len(setup)
        if time.monotonic() + typical > started + DEADLINE_S:
            break
        if len(setup) >= MIN_RUNS and elapsed + typical > args.seconds:
            break
    failed_runs = {failure["run"] for failure in failures}
    passed = [r for i, r in enumerate(runs) if i and i not in failed_runs]
    if not passed:
        print(f"error: every timed run failed: {failures}", file=sys.stderr)
        return 1

    if workload.command == "embed":
        records = embedding_quality(workload, first_out,
                                    inputs["paths"]["labels"])
    walls = [r["wall_s"] for r in passed]
    summary = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "wall_min_s": (min(walls), "s", len(walls)),
        "setup_s": (statistics.median(r["wall_s"] for r in setup), "s",
                    len(setup)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passed),
                        "MB", len(passed)),
    }
    for key in ("nmi", "ac", "macro_f1"):
        if key in records:
            summary[key] = (records[key], "frac", 1)
    summary["nmi_or_macro_f1"] = (records.get("nmi", records.get("macro_f1")),
                                  "frac", 1)
    summary["fail_frac"] = (len(failures) / len(runs), "frac", len(runs))

    layers, dominant = {}, None
    attempted = len(runs)
    if args.trace:
        out = work / "artifact_traced"
        spans_path = work / "spans.json"
        traced = child.run(
            [python, str(HERE / "traced.py"), workload.name,
             str(spans_path), "--"]
            + cli_args(workload, inputs["paths"], out), work / "traced")
        attempted += 1
        problems, _ = check_outputs(workload, traced, out, reference)
        if not problems:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            layers, span_problems, dominant = layer_metrics(
                trace, workload, summary["wall_s"][0],
                traced["wall_s"])
            problems += span_problems
        if problems:
            failures.append({"run": "traced", "problems": problems})

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        name = metric["name"]
        if args.trace:
            value = layers.get(name, 0.0)
        else:
            value = summary[name][0]
        metrics[name] = {"value": value, "unit": metric["unit"]}

    prov = provenance(nproc, blas_env)
    print(f"# {tag}: shape " + json.dumps(inputs["shape"]))
    print("# provenance " + json.dumps(prov))
    for name, (value, unit, count) in summary.items():
        print(f"# {name:<16} {value:.6g} {unit} (n={count})")
    if args.trace:
        print(f"# dominant layer (self time): {dominant}")
        for name, metric in metrics.items():
            print(f"# {name:<45} {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"# FAILED {failure}")

    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "shape": inputs["shape"],
              "provenance": prov, "samples": {
                  "warmup_wall_s": runs[0]["wall_s"],
                  "wall_s": [r["wall_s"] for r in runs[1:]],
                  "setup_s": [r["wall_s"] for r in setup],
                  "peak_rss_mb": [r["peak_rss_mb"] for r in runs[1:]]},
              "summary": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in summary.items()},
              "failures": failures, "dominant_layer": dominant,
              "metrics": metrics}
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1),
                                           encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
