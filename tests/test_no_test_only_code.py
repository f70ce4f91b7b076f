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


def _imported_names(tree: ast.Module):
    """Each name an import statement binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_src_import_is_read_in_its_module():
    paths, unread = sorted(SRC.glob("*.py")), []
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in read]
    assert unread == [], f"imported but never read: {unread}"
