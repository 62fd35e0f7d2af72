"""Every example's ``repro`` imports resolve.

Running the examples end to end is a CI step (they take seconds each
and write files into the working directory); this cheap check catches
the common break, an example importing a module or name that has been
removed, in the tier-1 suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path):
    """(module, name-or-None) for each ``repro`` import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0 and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(example):
    imports = list(_repro_imports(example))
    assert imports, f"{example.name} does not use repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and name != "*":
            assert hasattr(module, name) or importlib.util.find_spec(
                f"{module_name}.{name}") is not None, \
                f"{example.name}: {module_name} has no {name}"
