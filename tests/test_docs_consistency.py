"""Meta tests: documentation, registry and bench tree stay consistent."""

import os
import re

import pytest

from repro.bench.experiments import EXPERIMENTS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(os.path.join(REPO, path)) as fh:
        return fh.read()


class TestExperimentRegistry:
    def test_every_model_experiment_has_a_bench_file(self):
        bench_dir = os.path.join(REPO, "benchmarks")
        benches = "".join(sorted(os.listdir(bench_dir)))
        for exp_id in EXPERIMENTS:
            assert f"bench_{exp_id.lower()}" in benches.replace("bench_", "bench_"), \
                f"no benchmarks/bench_{exp_id.lower()}*.py for {exp_id}"

    def test_every_bench_file_maps_to_a_registered_experiment(self):
        bench_dir = os.path.join(REPO, "benchmarks")
        ids = {e.lower() for e in EXPERIMENTS}
        for name in os.listdir(bench_dir):
            m = re.match(r"bench_([a-z]\d+)_", name)
            if m:
                assert m.group(1) in ids, f"{name} not in the registry"

    def test_experiments_md_covers_every_id(self):
        text = read("EXPERIMENTS.md")
        for exp_id in EXPERIMENTS:
            assert f"## {exp_id} " in text or f"| {exp_id} |" in text, \
                f"{exp_id} missing from EXPERIMENTS.md"

    def test_design_md_indexes_every_id(self):
        text = read("DESIGN.md")
        for exp_id in EXPERIMENTS:
            if exp_id == "H2":
                continue  # host validation is indexed in EXPERIMENTS.md only
            assert f"| {exp_id} |" in text, f"{exp_id} missing from DESIGN.md index"


class TestDesignMismatchNote:
    def test_mismatch_disclosed_first(self):
        text = read("DESIGN.md")
        assert "PAPER TEXT MISMATCH" in text.split("\n\n")[1] or \
            "PAPER TEXT MISMATCH" in text[:600]

    def test_experiments_md_carries_the_caveat(self):
        assert "Provenance caveat" in read("EXPERIMENTS.md")


class TestReadme:
    def test_mentions_every_example(self):
        text = read("README.md")
        examples = [f for f in os.listdir(os.path.join(REPO, "examples"))
                    if f.endswith(".py")]
        missing = [e for e in examples if e not in text]
        assert missing == [], f"README does not mention: {missing}"

    def test_quickstart_code_runs(self):
        """The README's quickstart block must actually execute."""
        text = read("README.md")
        m = re.search(r"```python\n(.*?)```", text, re.S)
        assert m, "no python quickstart block in README"
        code = m.group(1)
        # give the snippet the frame(s) it references
        import numpy as np

        ns = {"frame": np.zeros((512, 512), dtype=np.uint8),
              "frames": [np.zeros((512, 512), dtype=np.uint8)]}
        exec(compile(code, "README-quickstart", "exec"), ns)  # noqa: S102

    def test_install_commands_documented(self):
        text = read("README.md")
        assert "pytest tests/" in text
        assert "--benchmark-only" in text


class TestDocsTree:
    def test_docs_exist(self):
        for doc in ("kernel.md", "platform_models.md", "parallelization.md",
                    "calibration.md", "workloads.md"):
            assert os.path.exists(os.path.join(REPO, "docs", doc)), doc

    def test_docs_reference_real_modules(self):
        """Backticked ``repro.*`` paths in the docs must resolve."""
        import importlib

        pattern = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
        docs = [os.path.join("docs", d)
                for d in os.listdir(os.path.join(REPO, "docs"))]
        for doc in docs + ["README.md", "DESIGN.md", "EXPERIMENTS.md"]:
            for match in set(pattern.findall(read(doc))):
                parts = match.split(".")
                # import the longest importable prefix, getattr the rest
                for n in range(len(parts), 0, -1):
                    try:
                        obj = importlib.import_module(".".join(parts[:n]))
                        break
                    except ImportError:
                        continue
                for attr in parts[n:]:
                    assert hasattr(obj, attr), \
                        f"{doc} references unknown {match}"
                    obj = getattr(obj, attr)
