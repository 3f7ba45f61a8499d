"""Packaging and public-surface guards.

Keep the documented API real: every ``__all__`` name must resolve, every
module must import cleanly, and the documentation must reference only files
and benches that exist.
"""

import ast
import importlib
import os
import pkgutil
import re

import pytest

import repro

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _all_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        out.append(info.name)
    return out


class TestImportSurface:
    @pytest.mark.parametrize("module_name", _all_modules())
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", [
        "repro", "repro.lattice", "repro.lang", "repro.machine",
        "repro.semantics", "repro.hardware", "repro.typesystem",
        "repro.quantitative", "repro.apps", "repro.attacks",
    ])
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_every_module_has_docstring(self):
        for module_name in _all_modules():
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_no_module_imports_hypothesis(self):
        # The package declares no dependencies: Hypothesis is a test tool.
        offenders = [
            where for where, module in _imports(repro.__path__[0])
            if module.split(".")[0] == "hypothesis"
        ]
        assert offenders == []

    def test_attacks_holds_only_statistics(self):
        # The attacks themselves are adversary strategies; a module here
        # that drives victims or hardware would be a second attack engine.
        banned = ("repro.hardware", "repro.apps", "repro.semantics")
        offenders = [
            where for where, module in
            _imports(os.path.join(repro.__path__[0], "attacks"))
            if any(module == b or module.startswith(b + ".") for b in banned)
        ]
        assert offenders == []


def _imports(directory):
    """``(path:line, module)`` for every module each file under
    ``directory`` imports, relative imports made absolute (a ``from``
    import also yields each imported name as a submodule)."""
    src = os.path.dirname(repro.__path__[0])
    for root, _, files in os.walk(directory):
        package = os.path.relpath(root, src).split(os.sep)
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:
                        parent = package[:len(package) - node.level + 1]
                        base = ".".join(parent + ([base] if base else []))
                    modules = [base] + [f"{base}.{alias.name}"
                                        for alias in node.names]
                else:
                    continue
                for module in modules:
                    yield f"{path}:{node.lineno}", module


class TestDocsConsistency:
    def _read(self, name):
        with open(os.path.join(REPO_ROOT, name)) as handle:
            return handle.read()

    def test_design_mentions_only_existing_modules(self):
        text = self._read("DESIGN.md")
        for match in re.findall(r"`((?:lattice|lang|machine|semantics|"
                                r"hardware|typesystem|quantitative|apps|"
                                r"attacks)/[a-z_]+\.py)`", text):
            path = os.path.join(REPO_ROOT, "src", "repro", match)
            assert os.path.exists(path), f"DESIGN.md references {match}"

    def test_design_mentions_only_existing_benches(self):
        text = self._read("DESIGN.md") + self._read("EXPERIMENTS.md")
        for match in re.findall(r"`?(bench_[a-z0-9_]+\.py)`?", text):
            path = os.path.join(REPO_ROOT, "benchmarks", match)
            assert os.path.exists(path), f"docs reference {match}"

    def test_readme_examples_exist(self):
        text = self._read("README.md")
        for match in re.findall(r"`examples/([a-z_]+\.py)`", text):
            path = os.path.join(REPO_ROOT, "examples", match)
            assert os.path.exists(path), f"README references {match}"

    def test_every_bench_documented_in_experiments(self):
        text = self._read("EXPERIMENTS.md")
        benches = [
            name for name in os.listdir(os.path.join(REPO_ROOT,
                                                     "benchmarks"))
            if name.startswith("bench_") and name.endswith(".py")
        ]
        for bench in benches:
            assert bench in text, f"{bench} missing from EXPERIMENTS.md"

    def test_experiment_results_exist_for_each_bench(self):
        results = os.path.join(REPO_ROOT, "benchmarks", "results")
        if not os.path.isdir(results):
            pytest.skip("benches not yet run in this checkout")
        produced = set(os.listdir(results))
        # Every results file is a Report's .txt, a telemetry metrics
        # document, a Chrome trace-event timeline (schema
        # repro.telemetry/1, see docs/TELEMETRY.md), or a red-team
        # campaign document (repro.adversary/1, see docs/ATTACKS.md).
        assert produced
        for name in produced:
            assert (name.endswith(".txt")
                    or name.endswith("_metrics.json")
                    or name.endswith("_trace.json")
                    or name.endswith("_campaign.json"))
        # Each JSON artifact sits next to its report.
        for name in produced:
            if name.endswith("_metrics.json"):
                assert name.replace("_metrics.json", ".txt") in produced
            elif name.endswith("_trace.json"):
                assert name.replace("_trace.json", ".txt") in produced
            elif name.endswith("_campaign.json"):
                assert name.replace("_campaign.json", ".txt") in produced
