"""No production code is reachable only from tests: every top-level function
and class in src/complab is referenced by other package code, is a command
entry point, or is used by the benchmark (perfbench/). Test oracles live in
tests/."""

import ast
from pathlib import Path

from test_trace_names import _tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "complab"


def _names(tree: ast.AST) -> set[str]:
    """Every name a tree refers to: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _benchmark_names() -> set[str]:
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= _names(ast.parse(path.read_text(encoding="utf-8")))
    tracing = _tracing()
    for _, qualname in tracing.TARGETS:
        names.update(qualname.split("."))
    return names | set(tracing.AUTOGRAD_OPS)


def _unreached() -> list[str]:
    """module.name of each top-level def no other package code refers to.
    `__init__.py` re-exports names for users and reaches nothing."""
    definitions = []
    references = []  # (definition node it sits in, or None; names)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            references.append((node, _names(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", node))
    exempt = _benchmark_names() | {"main"}
    return [
        qualified
        for qualified, node in definitions
        if not node.name.startswith("cmd_")
        and node.name not in exempt
        and not any(node.name in names for owner, names in references if owner is not node)
    ]


def test_every_package_function_and_class_is_reached():
    assert _unreached() == []
