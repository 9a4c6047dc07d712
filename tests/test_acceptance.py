"""Acceptance gate: every criterion runs at its stated tolerance and prints one line."""

import ast
from pathlib import Path

import pytest

import hypcurv
from hypcurv.acceptance import CRITERIA, RUNTIME_BUDGET

SEED = 7


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name, capsys):
    result = CRITERIA[name](SEED)
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.elapsed <= RUNTIME_BUDGET[name], (
        f"{name} exceeded its runtime budget: {result.elapsed:.1f}s "
        f"> {RUNTIME_BUDGET[name]:.0f}s")
    assert result.passed, result.detail


def test_no_module_imports_scipy():
    # the package runs on numpy and click alone; scipy is a test dependency, for the
    # tests' own oracles
    package = Path(hypcurv.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()
