import os
from dataclasses import asdict

import numpy as np
import pytest

from tenalign import _blas, kron
from tenalign.cli import main
from tenalign.graphs import save_edge_list
from tenalign.matching import Matching
from tenalign.records import (
    load_matching,
    load_records,
    load_truth,
    records_equal_modulo_timing,
    save_matching,
    save_truth,
    strip_timing,
    write_records,
)
from tenalign.refine import local_search
from tenalign.synth import make_problem


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("problem")
    problem = make_problem(36, "er", {"p": 0.05}, seed=21)
    paths = {
        "a": str(tmp / "a.el"),
        "b": str(tmp / "b.el"),
        "truth": str(tmp / "truth.tsv"),
        "dir": str(tmp),
    }
    save_edge_list(problem.graph_a, paths["a"])
    save_edge_list(problem.graph_b, paths["b"])
    save_truth(problem.truth, paths["truth"])
    return paths


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        recs = [{"a": 1, "b": [1.5, None], "c": {"d": "x"}}, {"a": 2}]
        path = tmp_path / "r.jsonl"
        write_records(path, recs)
        assert load_records(path) == recs

    def test_numpy_values_serialized(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(path, [{"x": np.float64(1.5), "y": np.arange(3)}])
        assert load_records(path) == [{"x": 1.5, "y": [0, 1, 2]}]

    def test_strip_timing(self):
        rec = {
            "total_seconds": 1.0,
            "nested": [{"solve_seconds": 2.0, "value": 3}],
            "value": 1,
        }
        assert strip_timing(rec) == {"nested": [{"value": 3}], "value": 1}

    def test_matching_round_trip(self, tmp_path):
        mt = Matching(5, 7, [(0, 3), (2, 1)], weight=4.25)
        path = tmp_path / "m.txt"
        save_matching(mt, path)
        loaded = load_matching(path)
        assert loaded == mt

    def test_truth_round_trip(self, tmp_path):
        truth = np.array([2, 0, 1, 3])
        path = tmp_path / "t.tsv"
        save_truth(truth, path)
        assert np.array_equal(load_truth(path), truth)

    def test_truth_must_cover_prefix(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("1 1\n3 2\n")
        with pytest.raises(ValueError, match="cover"):
            load_truth(path)


class TestAlignCommand:
    def test_full_run(self, problem_files, tmp_path):
        out = str(tmp_path / "run.json")
        match_out = str(tmp_path / "match.txt")
        code = main(
            [
                "align",
                "--graph-a", problem_files["a"],
                "--graph-b", problem_files["b"],
                "--motif", "3",
                "--method", "lambda-tame",
                "--alpha", "0.5",
                "--beta", "1",
                "--iters", "15",
                "--tol", "1e-6",
                "--refine", "local-search",
                "--knn", "auto",
                "--seed", "7",
                "--truth", problem_files["truth"],
                "--out", out,
                "--matching-out", match_out,
            ]
        )
        assert code == 0
        (record,) = load_records(out)
        assert record["schema_version"] == 1
        assert record["method"] == "lambda-tame"
        assert record["final"]["accuracy"] is not None
        assert record["refine"]["resolved_k"] >= 1
        assert len(record["per_iteration"]) == 15
        matching = load_matching(match_out)
        assert len(matching) > 0

    def test_refine_counters_in_record(self, problem_files, tmp_path, monkeypatch):
        from tenalign import cli

        seen = []

        def spy(*args, stats=None, **kwargs):
            out = local_search(*args, stats=stats, **kwargs)
            seen.append(stats)
            return out

        monkeypatch.setattr(cli, "local_search", spy)
        common = [
            "align",
            "--graph-a", problem_files["a"],
            "--graph-b", problem_files["b"],
            "--method", "lambda-tame",
            "--alpha", "0.5",
            "--beta", "1",
            "--sweeps", "4",
        ]
        refined, plain = str(tmp_path / "refined.json"), str(tmp_path / "plain.json")
        assert main(common + ["--refine", "local-search", "--out", refined]) == 0
        assert main(common + ["--out", plain]) == 0
        (record,) = load_records(refined)
        (stats,) = seen
        keys = ("sweeps", "candidates_scored", "swaps_accepted", "converged", "swaps_per_sweep")
        assert {key: record["refine"][key] for key in keys} == asdict(stats)
        assert 1 <= stats.sweeps <= 4
        assert 0 < stats.swaps_accepted <= stats.candidates_scored
        assert sum(record["refine"]["swaps_per_sweep"]) == stats.swaps_accepted
        (record,) = load_records(plain)
        for key in keys:
            assert record["refine"][key] is None

    def test_knn_seconds_in_timings(self, problem_files, tmp_path):
        common = [
            "align", "--graph-a", problem_files["a"], "--graph-b", problem_files["b"],
            "--method", "lambda-tame", "--sweeps", "2",
        ]
        refined, plain = str(tmp_path / "refined.json"), str(tmp_path / "plain.json")
        assert main(common + ["--refine", "local-search", "--out", refined]) == 0
        assert main(common + ["--out", plain]) == 0
        (timings,) = (record["timings"] for record in load_records(refined))
        assert 0.0 < timings["knn_seconds"] <= timings["refine_seconds"]
        (timings,) = (record["timings"] for record in load_records(plain))
        assert timings["knn_seconds"] == timings["refine_seconds"] == 0.0

    def test_missing_file_is_clean_failure(self, problem_files, tmp_path, capsys):
        out = str(tmp_path / "never.json")
        code = main(
            ["align", "--graph-a", "missing.el", "--graph-b", problem_files["b"], "--out", out]
        )
        assert code != 0
        assert not os.path.exists(out)
        assert "tenalign:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, status",
        [
            ([(i, i) for i in range(1, 9)], 2),
            ([(1, 2), (2, 1), (3, 5), (4, 3)], 2),
            ([(1, 1), (2, 2), (3, 3)], 0),
        ],
        ids=["more-rows-than-a", "b-id-above-b", "shorter-than-a"],
    )
    def test_truth_must_fit_the_graphs(self, tmp_path, capsys, rows, status):
        # a truth file shorter than graph A stays valid: the duplication model
        # grows graph A past the reference graph the truth covers
        from tenalign.graphs import Graph

        graph = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        el = str(tmp_path / "g.el")
        save_edge_list(graph, el)
        truth = tmp_path / "truth.tsv"
        truth.write_text("".join(f"{a} {b}\n" for a, b in rows))
        out = str(tmp_path / "r.json")
        match_out = str(tmp_path / "m.txt")
        argv = ["align", "--graph-a", el, "--graph-b", el, "--method", "tame",
                "--truth", str(truth), "--out", out, "--matching-out", match_out]
        assert main(argv) == status
        if status == 0:
            (record,) = load_records(out)
            assert record["final"]["accuracy"] is not None
            return
        assert f"{truth}: truth of {len(rows)} rows" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not os.path.exists(match_out)

    def test_truth_without_rows_is_rejected(self, problem_files, tmp_path, capsys):
        # formerly exit 0 with accuracy 0.0, which reads as a measured total miss
        truth = tmp_path / "truth.tsv"
        truth.write_text("# A-id B-id\n# no rows\n")
        out = str(tmp_path / "r.json")
        argv = ["align", "--graph-a", problem_files["a"], "--graph-b", problem_files["b"],
                "--method", "tame", "--truth", str(truth), "--out", out]
        assert main(argv) == 2
        assert f"{truth}: truth file holds no A-id B-id rows" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_determinism_modulo_timing(self, problem_files, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            assert main(
                [
                    "align",
                    "--graph-a", problem_files["a"],
                    "--graph-b", problem_files["b"],
                    "--method", "lowrank-tame",
                    "--alpha", "0.5",
                    "--beta", "1",
                    "--seed", "7",
                    "--out", out,
                ]
            ) == 0
            outs.append(load_records(out)[0])
        assert records_equal_modulo_timing(outs[0], outs[1])
        assert outs[0]["timings"]["total_seconds"] > 0
        reveal = [e["rank_reveal_seconds"] for e in outs[0]["per_iteration"]]
        assert all(t > 0 for t in reveal)
        assert outs[0]["timings"]["rank_reveal_seconds"] == pytest.approx(sum(reveal))

    def test_environment_block(self, problem_files, tmp_path):
        # align, synth and eigcheck records name the versions, the BLAS, the
        # thread caps of the process and the OpenBLAS thread count the
        # command ran with; two runs in one process stay equal
        outs = []
        for name in ("e1.json", "e2.json"):
            out = str(tmp_path / name)
            assert main(
                ["align", "--graph-a", problem_files["a"], "--graph-b", problem_files["b"],
                 "--iters", "3", "--out", out]
            ) == 0
            outs.append(load_records(out)[0])
        sweep = tmp_path / "sweep"
        assert main(
            ["synth", "--n", "20", "--model", "er", "--seed", "3", "--run", "lambda-tame",
             "--iters", "3", "--out", str(sweep)]
        ) == 0
        (trial,) = load_records(sweep / "records.jsonl")
        eig_out = str(tmp_path / "eig.jsonl")
        assert main(
            ["eigcheck", "--dims", "2", "--orders", "3", "--trials", "2", "--restarts", "10",
             "--out", eig_out]
        ) == 0
        eig_records = load_records(eig_out)
        env = outs[0]["environment"]
        assert env.keys() == {"python", "numpy", "scipy", "blas", "threads", "blas_threads"}
        assert env["blas_threads"] == (None if _blas._library() is None else 1)
        assert env["numpy"] == np.__version__
        assert env["blas"].keys() == {"name", "version"}
        assert env["threads"] == {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        assert trial["environment"] == env
        assert [r["environment"] for r in eig_records] == [env, env]
        assert records_equal_modulo_timing(outs[0], outs[1])

    def test_accumulation_path_flagged(self, problem_files, tmp_path, monkeypatch):
        monkeypatch.setattr(kron, "COLUMN_CAP", 1)
        out = str(tmp_path / "accum.json")
        code = main(
            [
                "align",
                "--graph-a", problem_files["a"],
                "--graph-b", problem_files["b"],
                "--method", "lowrank-tame",
                "--alpha", "0.5",
                "--beta", "1",
                "--iters", "4",
                "--out", out,
            ]
        )
        assert code == 0
        (record,) = load_records(out)
        assert record["final"]["used_accumulation"] is True
        assert any(e["path"] == "accumulate" for e in record["per_iteration"])
        assert record["options"]["column_cap"] == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # the ids name the option field each flag sets
            pytest.param(
                "--sweeps", "-1", "--sweeps must be nonnegative, got -1",
                id="--sweeps--1-max_sweeps",
            ),
            pytest.param("--knn", "0", "--knn must be >= 1, got 0", id="--knn-0-k_neighbors"),
            pytest.param(
                "--beta", "nan", "--beta must be finite and nonnegative, got nan",
                id="--beta-nan-beta",
            ),
            pytest.param(
                "--beta", "inf", "--beta must be finite and nonnegative, got inf",
                id="--beta-inf-beta",
            ),
            pytest.param("--knn", "x", "--knn must be an integer or 'auto', got 'x'", id="--knn-x"),
            pytest.param(
                "--knn", "2.5", "--knn must be an integer or 'auto', got '2.5'", id="--knn-2.5"
            ),
        ],
    )
    def test_refine_flags_rejected(self, problem_files, tmp_path, capsys, flag, value, message):
        out = str(tmp_path / "r.json")
        code = main(
            [
                "align",
                "--graph-a", problem_files["a"],
                "--graph-b", problem_files["b"],
                "--refine", "local-search",
                flag, value,
                "--out", out,
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_empty_motif_errors_without_fallback(self, tmp_path, capsys):
        from tenalign.graphs import Graph

        bipartite = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        a_path = str(tmp_path / "bip.el")
        save_edge_list(bipartite, a_path)
        out = str(tmp_path / "r.json")
        code = main(
            ["align", "--graph-a", a_path, "--graph-b", a_path, "--motif", "3", "--out", out]
        )
        assert code == 2
        assert "motif tensor A is empty (no order-3 motif)" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["align", "synth"])
    def test_empty_operand_named(self, tmp_path, capsys, command):
        # graph B without a triangle, graph A with some
        if command == "align":
            a_path, b_path = str(tmp_path / "a.el"), str(tmp_path / "path.el")
            with open(a_path, "w") as fh:
                fh.write("1 2\n2 3\n1 3\n")
            with open(b_path, "w") as fh:
                fh.write("1 2\n2 3\n")
            out = str(tmp_path / "r.json")
            args = ["align", "--graph-a", a_path, "--graph-b", b_path, "--out", out]
        else:
            out = str(tmp_path / "syn" / "records.jsonl")
            args = [
                "synth", "--n", "6", "--model", "er", "--p", "0.5", "--seed", "10",
                "--run", "tame", "--out", str(tmp_path / "syn"),
            ]
        code = main([*args, "--motif", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "tenalign: motif tensor B is empty (no order-3 motif)" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("side", ["--graph-a", "--graph-b"])
    def test_graph_without_vertices_named(self, problem_files, tmp_path, capsys, side):
        # formerly "tensor dimension must be >= 1, got 0", naming no file
        empty = str(tmp_path / "empty.el")
        with open(empty, "w") as fh:
            fh.write("# vertices: 0\n")
        files = {"--graph-a": problem_files["a"], "--graph-b": problem_files["b"], side: empty}
        out = str(tmp_path / "r.json")
        code = main(["align", *(x for kv in files.items() for x in kv), "--out", out])
        assert code == 2
        assert f"tenalign: {empty}: graph has no vertices" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestEigcheckCommand:
    def test_small_grid(self, tmp_path):
        out = str(tmp_path / "eig.jsonl")
        code = main(
            [
                "eigcheck",
                "--dims", "2,3",
                "--orders", "3",
                "--trials", "3",
                "--restarts", "300",
                "--seed", "1",
                "--out", out,
            ]
        )
        assert code == 0
        records = load_records(out)
        assert len(records) == 3
        for r in records:
            assert r["eig_gap"] <= 1e-8
            assert r["vec_gap"] <= 1e-8

    def test_zero_trials(self, tmp_path):
        out = str(tmp_path / "eig.jsonl")
        assert main(
            ["eigcheck", "--trials", "0", "--restarts", "10", "--seed", "1", "--out", out]
        ) == 0
        assert load_records(out) == []

    def test_reproducible(self, tmp_path):
        results = []
        for name in ("e1.jsonl", "e2.jsonl"):
            out = str(tmp_path / name)
            main(
                [
                    "eigcheck", "--dims", "2,3", "--orders", "3,4",
                    "--trials", "2", "--restarts", "200", "--seed", "5", "--out", out,
                ]
            )
            results.append(load_records(out))
        assert records_equal_modulo_timing(results[0], results[1])

    def test_rejects_grid_over_product_budget(self, tmp_path, capsys):
        # dimension 10 at order 5 gives a 10^10-entry product; the grid is
        # refused before any trial, whichever pairs the trials would draw
        out = str(tmp_path / "eig.jsonl")
        argv = [
            "eigcheck", "--dims", "2,3,10", "--orders", "3,5", "--trials", "12",
            "--restarts", "500", "--seed", "3", "--out", out,
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--dims" in err and "--orders" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--dims", "0"), ("--dims", "2,-1"), ("--orders", "1"), ("--orders", "3,0"),
            ("--dims", "2,x"), ("--orders", "3,y"), ("--trials", "-3"),
            ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "1e-15"),
            ("--tol", "1e-20"), ("--restarts", "0"),
        ],
    )
    def test_rejects_out_of_range_entries(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "eig.jsonl")
        argv = ["eigcheck", "--trials", "1", "--restarts", "10", flag, value, "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"tenalign: {flag} ")
        assert not os.path.exists(out)


class TestSynthCommand:
    def test_generates_problem_files(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            [
                "synth", "--n", "30", "--model", "duplication",
                "--frac", "0.25", "--pedge", "0.5",
                "--trials", "2", "--seed", "3", "--out", out,
            ]
        )
        assert code == 0
        problems = load_records(os.path.join(out, "problems.jsonl"))
        assert len(problems) == 2
        for record in problems:
            for path in record["files"].values():
                assert os.path.exists(path)
            assert record["n_a"] == 38  # 30 + ceil(0.25 * 30)

    def test_run_combo_produces_records(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            [
                "synth", "--n", "30", "--model", "er", "--p", "0.05",
                "--trials", "1", "--seed", "3", "--out", out,
                "--run", "lambda-tame+local-search",
                "--alpha", "0.5", "--beta", "1",
            ]
        )
        assert code == 0
        (record,) = load_records(os.path.join(out, "records.jsonl"))
        assert record["kind"] == "synth-trial"
        assert record["final"]["accuracy"] is not None

    @pytest.mark.parametrize(
        "knn, recorded, resolved, widths", [("auto", "auto", 32, [19, 19]), ("5", 5, 5, [5, 5])]
    )
    def test_refine_block_records_the_knn_widths(self, tmp_path, knn, recorded, resolved, widths):
        # auto resolves to twice the rank, 32 here, but a table of n = 20
        # rows holds at most 19 neighbours of a row
        out = str(tmp_path / "sweep")
        argv = ["synth", "--n", "20", "--model", "er", "--seed", "3", "--out", out,
                "--run", "lambda-tame+local-search", "--knn", knn]
        assert main(argv) == 0
        (record,) = load_records(os.path.join(out, "records.jsonl"))
        refine = record["refine"]
        assert (refine["k_neighbors"], refine["resolved_k"]) == (recorded, resolved)
        assert refine["knn_widths"] == widths
        assert main([*argv[:-4], "--run", "lambda-tame", "--out", out + "-plain"]) == 0
        (record,) = load_records(os.path.join(out + "-plain", "records.jsonl"))
        assert record["refine"]["knn_widths"] is None

    def test_negative_trials_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            ["synth", "--n", "10", "--model", "er", "--trials", "-3", "--out", out]
        )
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value, run",
        [
            ("--knn", "x", "lambda-tame+local-search"),
            ("--knn", "0", "lambda-tame+local-search"),
            ("--sweeps", "-1", "lambda-tame+local-search"),
            ("--alpha", "2", "lambda-tame+local-search"),
            ("--beta", "-1", "lambda-tame+local-search"),
            ("--beta", "nan", "lambda-tame"),
            ("--beta", "inf", "tame"),
            ("--tol", "nan", "tame"),
            ("--tol", "-1", "lambda-tame"),
            ("--iters", "-1", "lambda-tame+local-search"),
            ("--iters", "0", "lambda-tame,tame"),
            ("--iters", "0", "lowrank-tame"),
            ("--motif", "12", "lambda-tame+local-search"),
            ("--motif", "1", "lambda-tame"),
        ],
    )
    def test_bad_flag_rejected_before_any_file(self, tmp_path, capsys, flag, value, run):
        out = tmp_path / "sweep"
        code = main(
            ["synth", "--n", "12", "--model", "er", "--run", run, flag, value, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"tenalign: {flag} ")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "model, flag, value",
        [
            ("er", "--n", "0"),
            ("er", "--p", "2"),
            ("er", "--p", "nan"),
            ("duplication", "--frac", "-1"),
            ("duplication", "--frac", "nan"),
            ("duplication", "--frac", "inf"),
            ("duplication", "--pedge", "1.5"),
        ],
    )
    def test_bad_model_flag_rejected_before_the_directory(self, tmp_path, capsys, model, flag, value):
        out = tmp_path / "sweep"
        argv = ["synth", "--n", "12", "--model", model, flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"tenalign: {flag} ")
        assert not out.exists()

    @pytest.mark.parametrize("seed, trials", [("10", "1"), ("26", "2")])
    def test_failed_run_leaves_no_trial_files(self, tmp_path, capsys, seed, trials):
        # graph B of the last trial has no triangle; formerly the files of
        # every trial up to the failing one stayed behind, without problems.jsonl
        out = tmp_path / "syn"
        code = main(
            [
                "synth", "--n", "6", "--model", "er", "--p", "0.5", "--seed", seed,
                "--trials", trials, "--run", "tame", "--motif", "3", "--out", str(out),
            ]
        )
        assert code == 2
        assert "motif tensor B is empty (no order-3 motif)" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_zero_iters_allowed_for_lambda_tame(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["synth", "--n", "30", "--model", "er", "--seed", "3", "--run", "lambda-tame",
             "--iters", "0", "--out", str(out)]
        )
        assert code == 0
        (record,) = load_records(out / "records.jsonl")
        assert [e["index"] for e in record["per_iteration"]] == [0]
        assert record["final"]["best_index"] == 0

    def test_invalid_combo_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            [
                "synth", "--n", "10", "--model", "er", "--trials", "1",
                "--seed", "0", "--out", out, "--run", "bogus-method",
            ]
        )
        assert code == 2
        assert "invalid run combo" in capsys.readouterr().err

    def test_problem_round_trip_matches_generator(self, tmp_path):
        from tenalign.graphs import load_edge_list

        out = str(tmp_path / "sweep")
        main(
            [
                "synth", "--n", "25", "--model", "er", "--p", "0.1",
                "--trials", "1", "--seed", "9", "--out", out,
            ]
        )
        (record,) = load_records(os.path.join(out, "problems.jsonl"))
        g = load_edge_list(record["files"]["graph_a"])
        assert g.num_edges == record["edges_a"]
        truth = load_truth(record["files"]["truth"])
        assert len(truth) == 25
