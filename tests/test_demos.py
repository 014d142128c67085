"""Smoke tests for the code that drives the library from outside.

Each demo script runs to completion, and every function the benchmark's
tracer wraps by name still exists, so a rename cannot silently drop a span.
Every Python file also parses with the grammar of the oldest supported
Python, 3.10, and only ``series`` sets array flags, so the read-only rule
keeps one home (``series._read_only``).
"""

import ast
import importlib.util
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_benchmark_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [pair for pairs in tracing.SPANS.values() for pair in pairs]
    targets += [(owner, attr) for owner, attr, _ in tracing.COUNTERS]
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr}"


def test_sources_parse_as_python_3_10():
    # pyproject.toml and the CI matrix claim 3.10; a newer interpreter runs
    # the tests, so only the parser's feature_version sees newer syntax
    paths = [
        path
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_only_series_sets_array_flags():
    modules = sorted((ROOT / "src" / "hardyliou").glob("*.py"))
    assert len(modules) > 5
    setters = [path.name for path in modules if ".setflags(" in path.read_text()]
    assert setters == ["series.py"]
