"""Every top-level function and class in `src/ealm`, and every method other
than a dunder, is referenced somewhere in `src/ealm` itself. Code that only
tests reach belongs in `tests/`, next to the tests that use it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ealm"


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level def/class and method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, funcs + (ast.ClassDef,)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        # a Name read, not one assigned to: a dataclass field or a local
        # variable named like a function does not reach that function
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_src_definition_is_referenced_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert trees
    used = {name for tree in trees for name in _references(tree)}
    unused = [qual for tree in trees for qual, name in _definitions(tree) if name not in used]
    assert unused == [], f"referenced only outside src/ealm: {unused}"
