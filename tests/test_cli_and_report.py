"""Unit tests for the CLI and the markdown report generator."""

import json

import pytest

from repro.analysis.report import build_markdown_report, write_markdown_report
from repro.analysis.results import ExperimentResult
from repro.cli import build_parser, main
from repro.service.jobs import parse_sweep


def make_result(experiment_id="E1", passed=True):
    result = ExperimentResult(experiment_id=experiment_id, title="example title")
    result.tables.append("a table")
    result.add_check("a check", "paper claim", "measured value", passed)
    result.metadata["n"] = 10
    return result


class TestReport:
    def test_contains_sections(self):
        text = build_markdown_report([make_result()], scale="quick", seed=1)
        assert "# EXPERIMENTS" in text
        assert "## E1 — example title" in text
        assert "a table" in text
        assert "**PASS** — a check" in text
        assert "| E1 | example title | PASS |" in text

    def test_failure_marked(self):
        text = build_markdown_report([make_result(passed=False)], scale="quick", seed=1)
        assert "| E1 | example title | FAIL |" in text
        assert "**FAIL** — a check" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_markdown_report([], scale="quick", seed=1)

    def test_write(self, tmp_path):
        path = tmp_path / "report.md"
        write_markdown_report([make_result()], path, scale="quick", seed=1)
        assert "EXPERIMENTS" in path.read_text()


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E3"])
        assert args.experiment == "E3"
        assert args.scale == "quick"

    def test_report_output(self):
        args = build_parser().parse_args(["report", "--output", "out.md"])
        assert args.output == "out.md"

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--n", "100", "--k", "3", "--bias-type", "additive"]
        )
        assert args.n == 100
        assert args.bias_type == "additive"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--scale", "huge"])

    def test_executor_flag_takes_only_its_choices(self):
        # "multiprocessing" is a library alias of "process", not a CLI name.
        args = build_parser().parse_args(["simulate", "--executor", "process"])
        assert args.executor == "process"
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["simulate", "--executor", "multiprocessing"])
        assert info.value.code == 2


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E13" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--n", "200", "--k", "2", "--bias-type", "multiplicative"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winner" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "E12"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_run_unknown_raises(self):
        with pytest.raises(ValueError):
            main(["run", "E99"])


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "--param", "n=100,200"])
        assert args.param == ["n=100,200"]
        # Unset, so a spec file's seed_derivation holds; the schema's
        # default applies when neither sets it.
        assert args.seed_derivation is None
        job = parse_sweep({"params": {"n": [100, 200], "k": 2}})
        assert job.seed_derivation == "spawn"

    def test_rejects_bad_derivation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--param", "n=100", "--seed-derivation", "bogus"]
            )

    def test_param_grid_cross_product(self, capsys):
        code = main(
            ["sweep", "--param", "n=80,120", "--param", "k=2",
             "--trials", "2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cells, 4 replicates" in out
        assert "n=80" in out and "n=120" in out
        assert "0 from cache, 2 simulated" in out

    def test_requires_a_grid(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--trials", "2"])

    def test_rejects_malformed_param(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--param", "n:100"])

    def test_rejects_duplicate_axis(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--param", "n=100", "--param", "n=200",
                  "--param", "k=2"])

    def test_rejects_empty_axis_values(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--param", "n=,,", "--param", "k=2"])

    def test_second_invocation_all_cache_hits(self, tmp_path, capsys):
        argv = [
            "sweep", "--param", "n=60,90", "--param", "k=2",
            "--trials", "2", "--seed", "5",
            "--cache", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 from cache, 2 simulated (4 replicates simulated)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 from cache, 0 simulated (0 replicates simulated)" in second
        assert "[cache]" in second

    def test_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "workload": "additive",
            "params": {"n": [80], "k": [2], "beta": [20]},
            "trials": 2,
            "seed": 9,
        }))
        assert main(["sweep", "--spec-file", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "1 cells, 2 replicates" in out
        assert "additive workload" in out
        assert "beta=20" in out

    def test_spec_file_explicit_grid(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "grid": [{"n": 70, "k": 2}, {"n": 90, "k": 3}],
            "trials": 2,
        }))
        assert main(["sweep", "--spec-file", str(spec_path)]) == 0
        assert "2 cells" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, tmp_path):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"workload": "bogus",
                                         "params": {"n": [50], "k": [2]}}))
        with pytest.raises(SystemExit):
            main(["sweep", "--spec-file", str(spec_path)])


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpecFileParity:
    """``repro sweep --spec-file`` runs what ``POST /v1/sweep`` parses."""

    DOCUMENTS = {
        "zealots-overlay": {
            "params": {"n": 60, "k": 2},
            "scenario": {"name": "zealots", "zealots": [2, 0]},
            "trials": 4,
            "max_interactions": 20_000,
        },
        "params-beside-grid": {"params": {"k": 3}, "grid": [{"n": 60}, {"n": 90}]},
        "scalar-params": {"params": {"n": 60, "k": 2}},
        "legacy-seeds": {
            "params": {"n": [60], "k": [2]},
            "seed_derivation": "legacy",
        },
    }

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_same_sweep_key_and_seed_derivation(self, name, tmp_path, capsys):
        doc = self.DOCUMENTS[name]
        job = parse_sweep(doc)
        assert main(["sweep", "--spec-file", write_spec(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert f"sweep key:        {job.spec.key()}" in out
        assert f", {job.seed_derivation} seeds)" in out

    def test_set_flags_override_the_file(self, tmp_path, capsys):
        doc = {
            "grid": [{"n": 60, "k": 2}, {"n": 90, "k": 2}],
            "trials": 5,
            "seed": 4,
            "seed_derivation": "legacy",
        }
        argv = [
            "sweep", "--spec-file", write_spec(tmp_path, doc),
            "--param", "n=70", "--param", "k=2",
            "--trials", "2", "--seed-derivation", "spawn",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        expected = parse_sweep(
            {"params": {"n": [70], "k": [2]}, "trials": 2, "seed": 4}
        )
        assert f"sweep key:        {expected.spec.key()}" in out
        assert "1 cells, 2 replicates" in out
        assert "seed 4, spawn seeds" in out

    def test_unknown_field_is_a_one_line_usage_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"params": {"n": [60], "k": [2]}, "trails": 16})
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--spec-file", spec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'trails'" in err and "'trials'" in err


class TestCacheCommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        # Populate via a cached sweep, then inspect and clear.
        assert main([
            "sweep", "--param", "n=60", "--param", "k=2",
            "--trials", "2", "--seed", "1",
            "--cache", "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ensemble entries: 1" in out
        assert "sweep indexes:    1" in out
        assert "unlimited" in out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "ensemble entries: 0" in capsys.readouterr().out

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune"])
