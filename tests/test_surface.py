"""Every public definition in `src/fplab` is reached.

A public top-level function or class counts as reached when its name is
loaded (as an `ast.Name` or an `ast.Attribute`) somewhere in `src/fplab`
outside its own body, or when `tests/test_acceptance.py` loads it.  A public
method of a top-level class counts only through `ast.Attribute` loads
(`obj.method`), so a local variable or a function that shares its name does
not reach it.  Being exported in `fplab.__all__` reaches nothing by itself.
Attribute matching is by bare name, so a shared attribute name can still hide
a dead method, but never flags a live one.
"""

import ast
from pathlib import Path

import fplab

PACKAGE = Path(fplab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _public(name):
    return not name.startswith("_")


def _loads(tree):
    """(is_attribute, name, line) for every name or attribute the tree loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield False, node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield True, node.attr, node.lineno


def _definitions(tree):
    """(qualified name, bare name, is_method, node) for public top-level
    functions and classes and the public methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
            continue
        yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, True, item


def unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loads = {mod: list(_loads(tree)) for mod, tree in trees.items()}
    from_acceptance = list(_loads(ast.parse(ACCEPTANCE.read_text())))
    dead = []
    for mod, tree in trees.items():
        for qualname, name, is_method, node in _definitions(tree):
            if any(loaded == name and (attr or not is_method)
                   for attr, loaded, _ in from_acceptance):
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            if any(
                loaded == name and (attr or not is_method) and (other != mod or line not in lines)
                for other, found in loads.items()
                for attr, loaded, line in found
            ):
                continue
            dead.append(f"{mod}.{qualname}")
    return dead


def test_every_public_definition_is_reached():
    dead = unreached()
    assert not dead, f"reached by no command or acceptance criterion: {', '.join(dead)}"
