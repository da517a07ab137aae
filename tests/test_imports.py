"""Every name a library module imports is used in that module."""

import ast
import pathlib

import pytest

import privreg

MODULES = sorted(p for p in pathlib.Path(privreg.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each import, less `from __future__` ones."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names read anywhere, including inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"classes", "dimensions", "filtering", "pipeline"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    dead = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not dead, f"{path.name}: unused imports {dead}"
