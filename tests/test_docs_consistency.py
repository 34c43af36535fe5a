"""Consistency checks between the documentation and the code.

Guards against the docs drifting from the registry: every experiment has
a benchmark file, DESIGN.md's experiment index covers the registry, and
the README advertises the right counts.
"""

import re
from dataclasses import fields
from pathlib import Path

from repro.engine import EngineOptions
from repro.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parent.parent


class TestBenchmarkCoverage:
    def test_every_experiment_has_a_benchmark(self):
        for experiment_id in EXPERIMENTS:
            number = int(experiment_id[1:])
            bench = REPO / "benchmarks" / f"bench_e{number:02d}.py"
            assert bench.exists(), f"missing benchmark for {experiment_id}"

    def test_benchmarks_reference_real_experiments(self):
        for bench in (REPO / "benchmarks").glob("bench_e*.py"):
            text = bench.read_text()
            assert "execute(benchmark," in text

    def test_ablation_benchmark_exists(self):
        assert (REPO / "benchmarks" / "bench_ablation_simulators.py").exists()


class TestDesignDoc:
    def test_design_lists_every_experiment(self):
        design = (REPO / "DESIGN.md").read_text()
        for experiment_id in EXPERIMENTS:
            assert f"| {experiment_id} |" in design, (
                f"{experiment_id} missing from DESIGN.md experiment index"
            )

    def test_design_confirms_paper_identity(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "Paper text verified" in design
        assert "2302.12508" in design


class TestReadme:
    def test_readme_experiment_table_complete(self):
        readme = (REPO / "README.md").read_text()
        for experiment_id in EXPERIMENTS:
            assert f"| {experiment_id} |" in readme, (
                f"{experiment_id} missing from README experiment table"
            )

    def test_readme_lists_all_examples(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, f"{example.name} missing from README"

    def test_readme_names_exactly_the_declared_engine_options(self):
        # Every env var and CLI flag in EngineOptions' field metadata is
        # documented, and the README names no variable that is not one.
        readme = (REPO / "README.md").read_text()
        envs = {f.metadata["env"] for f in fields(EngineOptions)} - {None}
        flags = {f.metadata["flag"] for f in fields(EngineOptions)} - {None}
        for name in sorted(envs | flags):
            assert re.search(re.escape(name) + r"(?![\w-])", readme), (
                f"{name} missing from README"
            )
        named = set(re.findall(r"REPRO_(?:ENGINE|WORKER|SERVICE)_\w*[A-Z]", readme))
        assert named <= envs, f"README names undeclared {sorted(named - envs)}"

    def test_examples_exist(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3  # the deliverable minimum; we ship more


class TestPaperMap:
    def test_paper_map_exists_and_covers_observations(self):
        text = (REPO / "docs" / "paper_map.md").read_text()
        for anchor in ("Obs. 6", "Lemma 20", "Lemma 21", "Appendix D", "Theorem 2.1"):
            assert anchor in text
