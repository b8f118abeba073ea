"""Guardrails: the documentation references things that actually exist."""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO, name)) as f:
        return f.read()


class TestDocsExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CONTRIBUTING.md",
            "LICENSE",
            "docs/architecture.md",
            "docs/calibration.md",
        ],
    )
    def test_file_present_and_nonempty(self, name):
        text = _read(name)
        assert len(text) > 200


class TestReferencedArtifactsExist:
    def test_benchmark_files_mentioned_in_docs_exist(self):
        pattern = re.compile(r"benchmarks/(bench_\w+\.py)")
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/calibration.md"):
            for match in pattern.finditer(_read(doc)):
                path = os.path.join(REPO, "benchmarks", match.group(1))
                assert os.path.exists(path), f"{doc} references missing {path}"

    def test_test_files_mentioned_in_docs_exist(self):
        pattern = re.compile(r"tests/(test_\w+\.py)")
        for doc in (
            "EXPERIMENTS.md",
            "docs/calibration.md",
            "README.md",
            "docs/architecture.md",
            "CONTRIBUTING.md",
            "DESIGN.md",
        ):
            for match in pattern.finditer(_read(doc)):
                path = os.path.join(REPO, "tests", match.group(1))
                assert os.path.exists(path), f"{doc} references missing {path}"

    def test_statcheck_rules_mentioned_in_docs_are_registered(self):
        """Every rule id the docs name is in the source-rule table."""
        from tests.test_source_rules import RULES

        known = set(RULES)
        pattern = re.compile(r"\b[A-Z]{3,4}\d{3}\b")
        for doc in ("docs/architecture.md", "CONTRIBUTING.md"):
            named = set(pattern.findall(_read(doc)))
            assert named <= known, f"{doc} names unknown rules {named - known}"

    def test_example_files_mentioned_in_readme_exist(self):
        pattern = re.compile(r"examples/(\w+\.py)")
        for match in pattern.finditer(_read("README.md")):
            path = os.path.join(REPO, "examples", match.group(1))
            assert os.path.exists(path), f"README references missing {path}"

    def test_every_experiment_has_a_bench(self):
        from repro.experiments.cli import EXPERIMENTS

        benches = set(os.listdir(os.path.join(REPO, "benchmarks")))
        mapping = {
            "fig5": "bench_fig5_accuracy.py",
            "fig6": "bench_fig6_memory.py",
            "fig7": "bench_fig7_gpu_speedup.py",
            "fig8": "bench_fig8_profiling.py",
            "fig9": "bench_fig9_fpga_runtime.py",
            "fig10": "bench_fig10_gpu_vs_fpga.py",
            "table2": "bench_table2_rsd.py",
            "table3": "bench_table3_fpga.py",
            # Not paper artifacts; their clean-path cost bounds live in
            # the reliability/serving overhead benches.
            "fault-sweep": "bench_reliability_overhead.py",
            "serving-chaos": "bench_serving_chaos.py",
            "quantize-frontier": "bench_quantize_frontier.py",
        }
        assert set(mapping) == set(EXPERIMENTS)
        for bench in mapping.values():
            assert bench in benches

    def test_design_md_notes_paper_match(self):
        """DESIGN.md must state the paper-text check (task requirement)."""
        text = _read("DESIGN.md")
        assert "Paper check" in text
        assert "10.1145/3545008.3545067" in text


class TestPublicAPI:
    def test_readme_quickstart_names_importable(self):
        import repro

        for name in (
            "HierarchicalForestClassifier",
            "RunConfig",
            "LayoutParams",
            "load_dataset",
        ):
            assert hasattr(repro, name)

    def test_version_string(self):
        import repro

        assert re.match(r"\d+\.\d+\.\d+", repro.__version__)
