"""End-to-end command-line tests over small on-disk fixtures."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semgraph
from semgraph import (build_hetero_adjacency, build_side_info, factorize,
                      load_graph, planted_attributed_sbm, read_embeddings,
                      side_enhance, walk_matrix, write_embeddings)
from semgraph import cli, evaluation, sideinfo
from semgraph.cli import build_parser, main
from semgraph.embedding import LANCZOS_MIN_RATIO


def _write(path, rows):
    path.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8")


def _write_graph(g, directory):
    """Write g's edges and weighted attributes as TSV; return the paths."""
    A, R = g.adjacency.tocoo(), g.attr_weights.tocoo()
    edges, attrs = directory / "edges.tsv", directory / "attrs.tsv"
    _write(edges, [f"{g.node_ids[i]}\t{g.node_ids[j]}"
                   for i, j in zip(A.row, A.col) if i < j])
    _write(attrs, [f"{g.node_ids[i]}\t{g.attr_ids[w]}\t{v:.17g}"
                   for i, w, v in zip(R.row, R.col, R.data)])
    return edges, attrs


@pytest.fixture
def dataset(tmp_path):
    """Two 6-node cliques joined by one edge; attributes follow the split."""
    edges, attrs, labels = [], [], []
    for base, side in ((0, "l"), (6, "r")):
        group = [f"v{base + i}" for i in range(6)]
        for i, u in enumerate(group):
            labels.append(f"{u}\t{side}")
            for v in group[i + 1:]:
                edges.append(f"{u}\t{v}")
            for w in range(3):
                attrs.append(f"{u}\t{side}{w}")
    edges.append("v0\tv6")
    paths = {"edges": tmp_path / "edges.tsv", "attrs": tmp_path / "attrs.tsv",
             "labels": tmp_path / "labels.tsv"}
    _write(paths["edges"], edges)
    _write(paths["attrs"], attrs)
    _write(paths["labels"], labels)
    return paths, tmp_path


def _src_env():
    """The environment, with this checkout's sources first on PYTHONPATH,
    for running semgraph in a child interpreter."""
    src = str(Path(semgraph.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _base_argv(paths, *extra, labels=True):
    argv = ["--edges", str(paths["edges"]), "--attrs", str(paths["attrs"])]
    if labels:
        argv += ["--labels", str(paths["labels"])]
    return argv + list(extra)


class TestEmbed:
    def test_writes_readable_file(self, dataset, capsys):
        paths, tmp = dataset
        out = tmp / "emb.tsv"
        code = main(["embed", *_base_argv(paths), "--dim", "8",
                     "--out", str(out)])
        assert code == 0
        emb = read_embeddings(str(out))
        assert emb.vectors.shape == (18, 8)  # 12 nodes + 6 attributes
        assert emb.node_ids[0] == "v0" and emb.attr_ids[0] == "l0"
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == "18 8"

    def test_byte_identical_repeats(self, dataset):
        paths, tmp = dataset
        a, b = tmp / "a.tsv", tmp / "b.tsv"
        argv = _base_argv(paths, "--dim", "6", labels=False)
        assert main(["embed", *argv, "--out", str(a)]) == 0
        assert main(["embed", *argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dim_clamp_warns(self, dataset, capsys):
        paths, tmp = dataset
        out = tmp / "emb.tsv"
        code = main(["embed", *_base_argv(paths, labels=False),
                     "--out", str(out)])  # default dim 64 > 18 entities
        assert code == 0
        assert "clamped" in capsys.readouterr().err
        assert read_embeddings(str(out)).dim == 18

    def test_matches_library_pipeline(self, dataset):
        paths, tmp = dataset
        out = tmp / "emb.tsv"
        main(["embed", *_base_argv(paths, labels=False), "--dim", "5",
              "--order", "2", "--neg", "3", "--delta1", "0.5",
              "--out", str(out)])
        g = load_graph(str(paths["edges"]), str(paths["attrs"]))
        walk = walk_matrix(build_hetero_adjacency(g, deltas=(1.0, 0.5, 1.0)),
                           order=2, negatives=3)
        model = factorize(walk, 5)
        got = read_embeddings(str(out))
        assert np.array_equal(got.vectors, model.vectors)

    def test_blas_thread_count_moves_output_within_tolerance(self, tmp_path):
        """Artifacts are byte-identical only for a fixed BLAS configuration;
        across thread counts they must agree to rounding level."""
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        edges, attrs = _write_graph(g, tmp_path)
        src = str(Path(semgraph.__file__).resolve().parents[1])
        vectors = []
        for threads in ("1", "2"):
            out = tmp_path / f"emb{threads}.tsv"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "semgraph.cli", "embed",
                            "--edges", str(edges), "--attrs", str(attrs),
                            "--out", str(out)], env=env, check=True)
            vectors.append(read_embeddings(str(out)).vectors)
        assert vectors[0].shape == (g.n + g.m, 64)
        assert np.abs(vectors[0] - vectors[1]).max() <= 1e-9


class TestEnhance:
    def test_refines_and_is_deterministic(self, dataset):
        paths, tmp = dataset
        plain, ref1, ref2 = (tmp / x for x in ("p.tsv", "r1.tsv", "r2.tsv"))
        argv = _base_argv(paths, "--dim", "6", labels=False)
        main(["embed", *argv, "--out", str(plain)])
        main(["enhance", *argv, "--out", str(ref1)])
        main(["enhance", *argv, "--out", str(ref2)])
        assert ref1.read_bytes() == ref2.read_bytes()
        assert ref1.read_bytes() != plain.read_bytes()

    def test_matches_library_refinement(self, dataset):
        """`enhance` runs one refinement round even with both lambdas 0."""
        paths, tmp = dataset
        g = load_graph(str(paths["edges"]), str(paths["attrs"]))
        walk = walk_matrix(build_hetero_adjacency(g))
        plain = factorize(walk, 4).vectors
        for lambdas in ((0.5, 2.0), (0.0, 0.0)):
            out = tmp / "e.tsv"
            main(["enhance", *_base_argv(paths, labels=False), "--dim", "4",
                  "--lambda1", str(lambdas[0]), "--lambda2", str(lambdas[1]),
                  "--out", str(out)])
            model = side_enhance(factorize(walk, 4), walk,
                                 build_side_info(g, lambdas=lambdas))
            model.node_ids = list(g.node_ids)
            model.attr_ids = list(g.attr_ids)
            ref = tmp / "lib.tsv"
            write_embeddings(model, str(ref))
            assert out.read_bytes() == ref.read_bytes()
            assert not np.array_equal(model.vectors, plain)


class TestEval:
    def test_cluster_stdout_and_records(self, dataset, capsys):
        paths, tmp = dataset
        rec = tmp / "records.tsv"
        code = main(["eval-cluster", *_base_argv(paths), "--dim", "8",
                     "--repeats", "4", "--out", str(rec)])
        assert code == 0
        table = capsys.readouterr().out
        assert "task        clustering" in table
        assert "nmi" in table and "ac" in table and "+/-" in table
        lines = rec.read_text(encoding="utf-8").splitlines()
        named = dict(line.split("\t") for line in lines)
        assert set(named) == {"nmi", "ac"}
        # the two-clique fixture is easy: both metrics should be perfect
        assert float(named["nmi"]) == 1.0 and float(named["ac"]) == 1.0

    def test_classify_reports_macro_f1(self, dataset, capsys):
        paths, tmp = dataset
        code = main(["eval-classify", *_base_argv(paths), "--dim", "8",
                     "--repeats", "3", "--train-frac", "0.5"])
        assert code == 0
        table = capsys.readouterr().out
        assert "task        classification" in table
        assert "macro_f1" in table and "nmi" not in table

    def test_seed_changes_runs(self, dataset, capsys):
        paths, tmp = dataset
        rec1, rec2 = tmp / "r1.tsv", tmp / "r2.tsv"
        argv = ["eval-classify", *_base_argv(paths), "--dim", "6",
                "--repeats", "2", "--train-frac", "0.5"]
        main(argv + ["--seed", "0", "--out", str(rec1)])
        main(argv + ["--seed", "0", "--out", str(rec2)])
        assert rec1.read_bytes() == rec2.read_bytes()

    def test_clustering_ignores_train_fraction(self, dataset, capsys):
        """Only classification splits off a training set."""
        paths, _ = dataset
        argv = [*_base_argv(paths), "--dim", "6", "--repeats", "1",
                "--train-frac", "1"]
        assert main(["eval-cluster", *argv]) == 0
        assert main(["eval-classify", *argv]) == 1
        assert "train_fraction" in capsys.readouterr().err

    def test_enhanced_eval_runs(self, dataset, capsys):
        paths, _ = dataset
        code = main(["eval-cluster", *_base_argv(paths), "--dim", "6",
                     "--repeats", "2", "--lambda1", "0.1",
                     "--lambda2", "0.1"])
        assert code == 0
        assert "nmi" in capsys.readouterr().out


class TestDescribe:
    def test_direct_blocks(self, dataset, capsys):
        paths, tmp = dataset
        out = tmp / "desc.txt"
        code = main(["describe", *_base_argv(paths), "--dim", "8",
                     "--keywords", "3", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "community 0" in text and "community 1" in text
        assert "topic" not in text
        assert out.read_text(encoding="utf-8") == text
        # keyword rows are rank<TAB>attr<TAB>distance
        row = text.splitlines()[1].split("\t")
        assert row[0] == "1" and row[1] in {f"l{w}" for w in range(3)} | \
            {f"r{w}" for w in range(3)}

    def test_community_keywords_follow_split(self, dataset, capsys):
        paths, _ = dataset
        main(["describe", *_base_argv(paths), "--dim", "8",
              "--keywords", "3"])
        text = capsys.readouterr().out
        blocks = text.split("community ")[1:]
        sides = []
        for block in blocks:
            rows = [ln.split("\t")[1] for ln in block.splitlines()[1:]]
            prefixes = {name[0] for name in rows}
            assert len(prefixes) == 1, rows  # pure l* or pure r* keywords
            sides.append(prefixes.pop())
        assert sorted(sides) == ["l", "r"]

    def test_topic_mode(self, dataset, capsys):
        paths, _ = dataset
        code = main(["describe", *_base_argv(paths), "--dim", "8",
                     "--attr-clusters", "2", "--topics", "1",
                     "--keywords", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "topic" in text and "(dist" in text

    def test_cosine_flag(self, dataset, capsys):
        paths, _ = dataset
        code = main(["describe", *_base_argv(paths), "--dim", "8",
                     "--cosine-describe"])
        assert code == 0
        assert "community 0" in capsys.readouterr().out

    def test_node_clusters_without_labels(self, dataset, capsys):
        paths, _ = dataset
        code = main(["describe", *_base_argv(paths, labels=False),
                     "--dim", "8", "--node-clusters", "2", "--keywords", "2"])
        assert code == 0
        assert "community 1" in capsys.readouterr().out

    def test_missing_cluster_count_fails(self, dataset, capsys):
        paths, _ = dataset
        code = main(["describe", *_base_argv(paths, labels=False),
                     "--dim", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\t") and "--node-clusters" in err


class TestFailures:
    def test_missing_file(self, dataset, capsys):
        paths, tmp = dataset
        code = main(["embed", "--edges", str(tmp / "nope.tsv"),
                     "--attrs", str(paths["attrs"]),
                     "--out", str(tmp / "x.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\t") and err.count("\n") == 1

    def test_malformed_row(self, dataset, capsys):
        paths, tmp = dataset
        bad = tmp / "bad.tsv"
        bad.write_text("v0 v1\n", encoding="utf-8")  # spaces, not a tab
        code = main(["embed", "--edges", str(bad),
                     "--attrs", str(paths["attrs"]),
                     "--out", str(tmp / "x.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed line" in err and "bad.tsv:1" in err

    def test_labels_required_for_eval(self, dataset):
        paths, _ = dataset
        with pytest.raises(SystemExit):
            main(["eval-cluster", *_base_argv(paths, labels=False),
                  "--repeats", "1"])

    @pytest.mark.parametrize("command, flag, value, named", [
        ("enhance", "--lambda2", "inf", "lambdas"),
        ("enhance", "--lambda1", "nan", "lambdas"),
        ("embed", "--delta1", "inf", "deltas")])
    def test_non_finite_weight_is_one_error_line(self, dataset, command,
                                                 flag, value, named):
        """A bad weight fails before any arithmetic on it, so numpy has
        no warning to print next to the one error line."""
        paths, tmp = dataset
        argv = [sys.executable, "-m", "semgraph.cli", command,
                *_base_argv(paths, "--dim", "4", labels=False),
                f"{flag}={value}", "--out", str(tmp / "x.tsv")]
        out = subprocess.run(argv, env=_src_env(), capture_output=True,
                             text=True)
        assert out.returncode == 1
        assert out.stderr.startswith("error\t") and named in out.stderr
        assert out.stderr.count("\n") == 1

    def test_refinement_solve_failure_is_one_error_line(self, dataset,
                                                        monkeypatch, capsys):
        """A refinement solve that hits its iteration cap fails the run
        with one error line, like the factorization's solver."""
        monkeypatch.setattr(sideinfo, "REFINE_MAX_ITERATIONS", 0)
        paths, tmp = dataset
        code = main(["eval-cluster", *_base_argv(paths, "--dim", "4"),
                     "--lambda1", "1", "--lambda2", "1", "--repeats", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\t") and err.count("\n") == 1
        assert "refinement solve failed to converge" in err

    def test_size_cap_enforced(self, dataset, capsys):
        paths, tmp = dataset
        code = main(["embed", *_base_argv(paths, labels=False),
                     "--size-cap", "4", "--out", str(tmp / "x.tsv")])
        assert code == 1
        assert "size cap" in capsys.readouterr().err


class TestImportCost:
    # scores one clustering, through both public clustering metrics
    METRICS = ("from semgraph import clustering_accuracy, match_clusters\n"
               "clustering_accuracy([0, 0, 1, 2], [1, 1, 0, 0])\n"
               "match_clusters([0, 0, 1, 2], [1, 1, 0, 0])")

    @staticmethod
    def _loaded_after(module, code="import semgraph.cli"):
        probe = f"import sys\n{code}\nprint({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                             check=True, capture_output=True, text=True)
        return out.stdout.splitlines()[-1]  # after what `code` prints

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """No command needs scipy.optimize (the clustering metrics match
        with a numpy Hungarian solver), so none pays for importing it."""
        assert self._loaded_after("scipy.optimize") == "False"

    def test_clustering_metrics_leave_scipy_optimize_unloaded(self):
        assert self._loaded_after("scipy.optimize", self.METRICS) == "False"

    @pytest.mark.parametrize("module", ["scipy.sparse.csgraph",
                                        "scipy.linalg"])
    def test_clustering_metrics_leave_csgraph_and_linalg_unloaded(self,
                                                                  module):
        """The matching is written in numpy: scoring a clustering loads
        neither scipy's assignment solver nor the scipy.linalg it pulls
        in."""
        assert self._loaded_after(module, self.METRICS) == "False"

    def test_eval_cluster_leaves_scipy_linalg_unloaded(self, dataset):
        """A whole refined `eval-cluster` run on a small graph, whose
        factorization takes dense `eigh`, loads no second OpenBLAS
        through scipy.linalg."""
        paths, tmp = dataset
        argv = ["eval-cluster", *_base_argv(paths), "--dim", "4",
                "--lambda1", "1", "--lambda2", "1", "--repeats", "2",
                "--out", str(tmp / "records.tsv")]
        code = f"from semgraph import cli\nassert cli.main({argv!r}) == 0"
        assert self._loaded_after("scipy.linalg", code) == "False"

    def test_cli_import_leaves_scipy_sparse_linalg_unloaded(self):
        """No command uses scipy.sparse.linalg (the Lanczos branch of
        `factorize` is written in numpy), so none pays for importing it."""
        assert self._loaded_after("scipy.sparse.linalg") == "False"

    @pytest.mark.parametrize("module", ["scipy.sparse.linalg",
                                        "scipy.linalg"])
    def test_lanczos_embed_leaves_scipy_linalg_unloaded(self, module,
                                                        tmp_path):
        """A whole `embed` run at a size that takes the Lanczos branch
        loads neither ARPACK's module nor scipy's second OpenBLAS."""
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        dim = 4
        assert g.n + g.m >= LANCZOS_MIN_RATIO * dim
        edges, attrs = _write_graph(g, tmp_path)
        argv = ["embed", "--edges", str(edges), "--attrs", str(attrs),
                "--dim", str(dim), "--out", str(tmp_path / "emb.tsv")]
        code = f"from semgraph import cli\nassert cli.main({argv!r}) == 0"
        assert self._loaded_after(module, code) == "False"

    @pytest.mark.parametrize("module", ["scipy.sparse.linalg",
                                        "scipy.linalg"])
    @pytest.mark.parametrize("command", ["eval-cluster", "enhance"])
    def test_refinement_leaves_scipy_linalg_unloaded(self, module, command,
                                                     tmp_path):
        """A whole refined run at a Lanczos size solves the refinement
        by the numpy conjugate gradients: neither scipy's iterative
        solvers nor its second OpenBLAS are loaded."""
        g = planted_attributed_sbm(nodes=200, blocks=4, seed=0)
        dim = 4
        assert g.n + g.m >= LANCZOS_MIN_RATIO * dim
        edges, attrs = _write_graph(g, tmp_path)
        labels = tmp_path / "labels.tsv"
        _write(labels, [f"{node}\t{label}"
                        for node, label in zip(g.node_ids, g.labels)])
        argv = [command, "--edges", str(edges), "--attrs", str(attrs),
                "--labels", str(labels), "--dim", str(dim),
                "--lambda1", "1", "--lambda2", "1"]
        argv += (["--repeats", "1"] if command == "eval-cluster"
                 else ["--out", str(tmp_path / "emb.tsv")])
        code = f"from semgraph import cli\nassert cli.main({argv!r}) == 0"
        assert self._loaded_after(module, code) == "False"

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        """Every dense solve goes through numpy.linalg; importing the CLI
        must not load scipy.linalg and its second OpenBLAS."""
        assert self._loaded_after("scipy.linalg") == "False"

    def test_update_x_leaves_scipy_linalg_unloaded(self):
        code = ("import numpy as np\n"
                "from semgraph import update_x\n"
                "update_x(np.eye(3), np.ones((3, 1)), np.zeros((2, 2)))")
        assert self._loaded_after("scipy.linalg", code) == "False"

    def test_cli_import_leaves_scipy_special_unloaded(self):
        """The classifier's sigmoid is written with numpy; no command
        pays for importing scipy.special."""
        assert self._loaded_after("scipy.special") == "False"


class TestTraceContract:
    """The benchmark's traced run (perfbench/traced.py) wraps these public
    functions at the module attribute each is called through and needs a
    span from every one; a stage that moves, goes private or stops being
    called there would fail only the slow benchmark run."""

    TRACED = {
        cli: ("load_graph", "build_hetero_adjacency", "walk_matrix",
              "factorize", "build_side_info", "side_enhance", "evaluate",
              "write_embeddings"),
        sideinfo: ("update_x", "update_y", "objective_value"),
        evaluation: ("kmeans", "train_classifier"),
    }

    def test_every_traced_stage_is_public_and_called(self, dataset,
                                                     monkeypatch):
        paths, tmp = dataset
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module, names in self.TRACED.items():
            for name in names:
                assert name in semgraph.__all__
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
        argv = _base_argv(paths, "--dim", "4", "--repeats", "1")
        assert main(["embed", *_base_argv(paths, "--dim", "4"),
                     "--out", str(tmp / "emb.tsv")]) == 0
        assert main(["eval-cluster", *argv, "--lambda1", "1",
                     "--lambda2", "1"]) == 0
        assert main(["eval-classify", *argv, "--train-frac", "0.5"]) == 0
        uncalled = [name for names in self.TRACED.values()
                    for name in names if not calls[name]]
        assert not uncalled
        # describe clusters the nodes, then in topic mode the attributes
        before = calls["kmeans"]
        assert main(["describe", *_base_argv(paths, "--dim", "4"),
                     "--attr-clusters", "2"]) == 0
        assert calls["kmeans"] - before == 2


class TestSelftestAndParser:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") >= 4 and "FAIL" not in out

    def test_all_documented_flags_exist(self):
        parser = build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, type(parser._subparsers._group_actions[0])))
        flags = {}
        for name, sub in subs.choices.items():
            flags[name] = {s for a in sub._actions for s in a.option_strings}
        for name in ("embed", "enhance", "eval-cluster", "eval-classify",
                     "describe"):
            assert {"--edges", "--attrs", "--labels", "--dim", "--order",
                    "--neg", "--delta0", "--delta1", "--delta2", "--seed",
                    "--size-cap", "--weighted-motifs"} <= flags[name]
        assert "--out" in flags["embed"]
        assert {"--lambda1", "--lambda2"} <= flags["enhance"]
        for name in ("eval-cluster", "eval-classify"):
            assert {"--repeats", "--train-frac", "--lambda1",
                    "--lambda2"} <= flags[name]
        assert {"--keywords", "--topics", "--node-clusters",
                "--attr-clusters", "--cosine-describe"} <= flags["describe"]
        assert "--seed" in flags["selftest"]
