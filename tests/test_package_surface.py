"""The package holds only what it uses: dead API cannot grow back.

Every top-level function and class of src/collapsim, and every public method,
must be named (an ast.Name or an ast.Attribute) somewhere in the package
outside its own definition, or be a target of the benchmark's tracer, which
wraps package functions by name. A face only the tests read belongs in
tests/oracles.py.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collapsim"
TRACING = ROOT / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def names_in(node: ast.AST) -> list[str]:
    """Every name read in node's subtree, bare or as an attribute."""
    found = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.append(child.id)
        elif isinstance(child, ast.Attribute):
            found.append(child.attr)
    return found


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced() -> list[str]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    everywhere: dict[str, int] = {}
    for tree in modules.values():
        for name in names_in(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    traced = {(module, attr) for module, attr, _ in load_targets()}
    dead = []
    for module, tree in modules.items():
        for qualname, node in definitions(tree):
            if (module, qualname) in traced:
                continue
            own = names_in(node).count(node.name)  # recursion is not a use
            if everywhere.get(node.name, 0) - own == 0:
                dead.append(f"{module}.{qualname}")
    return dead


def test_every_definition_is_used_by_the_package():
    assert unreferenced() == []
