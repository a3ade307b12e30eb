"""The package holds only what it uses: dead API cannot grow back.

Every top-level function and class of src/collapsim, and every public method,
must be named (an ast.Name or an ast.Attribute) somewhere in the package
outside its own definition, or be a target of the benchmark's tracer, which
wraps package functions by name. A face only the tests read belongs in
tests/oracles.py. Every name a module assigns at its top level, dunders such
as __version__ aside, must be read somewhere in the package, so a constant
cannot outlive its last use. The command line sits on top: no other module
imports cli, not even for type checking. The package root binds its modules
and its version, no member of them, so each name has one import path.
"""

import ast
import importlib.util
import tomllib
from pathlib import Path

import collapsim

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


def assigned(tree: ast.Module):
    """Each name a top-level statement of the module assigns, but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for child in ast.walk(target):
                    if isinstance(child, ast.Name) and not (child.id[:2] == child.id[-2:] == "__"):
                        yield child.id


def unread() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    read = {child.attr if isinstance(child, ast.Attribute) else child.id
            for tree in modules.values() for child in ast.walk(tree)
            if isinstance(child, ast.Attribute)
            or isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)}
    return [f"{module}.{name}" for module, tree in modules.items()
            for name in assigned(tree) if name not in read]


def test_every_module_level_name_is_read_by_the_package():
    assert unread() == []


def imported_modules(tree: ast.Module) -> set[str]:
    """Each package module the tree imports, at any depth, by its bare name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # `from . import cli` names the module; `from .cli import main` is it
            if node.module in (None, "collapsim"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[-1])
    return found


def test_no_module_but_cli_imports_cli():
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
                 and "cli" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def test_the_root_binds_only_its_modules():
    # its docstring, `from . import` of package modules and dunders; the
    # version is stated twice, here and in pyproject.toml, so the two must agree
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    strays = [ast.unparse(node) for node in tree.body[1:] if not (
        isinstance(node, ast.ImportFrom) and node.module is None and node.level == 1
        and all(alias.name in modules and alias.asname is None for alias in node.names)
        or isinstance(node, ast.Assign)
        and all(isinstance(target, ast.Name) and target.id[:2] == target.id[-2:] == "__"
                for target in node.targets))]
    assert strays == []
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert collapsim.__version__ == pyproject["project"]["version"]
