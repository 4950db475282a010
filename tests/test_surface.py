"""Every public definition in `src/fplab` is reached.

A public top-level function or class, or a public method of a top-level
class, counts as reached when its name is loaded (as an `ast.Name` or an
`ast.Attribute`) somewhere in `src/fplab` outside its own body, when it is in
`fplab.__all__` or is a method of an exported class, or when
`tests/test_acceptance.py` loads it.  Name matching is by bare name, so a
shared name can hide a dead definition but never flags a live one.
"""

import ast
from pathlib import Path

import fplab

PACKAGE = Path(fplab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _public(name):
    return not name.startswith("_")


def _loads(tree):
    """(name, line) for every name or attribute the tree loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _definitions(tree):
    """(qualified name, bare name, node) for public top-level functions and
    classes and the public methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loads = {mod: list(_loads(tree)) for mod, tree in trees.items()}
    from_acceptance = {name for name, _ in _loads(ast.parse(ACCEPTANCE.read_text()))}
    exported = set(fplab.__all__)
    dead = []
    for mod, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if qualname.split(".")[0] in exported or name in from_acceptance:
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            if any(
                loaded == name and (other != mod or line not in lines)
                for other, found in loads.items()
                for loaded, line in found
            ):
                continue
            dead.append(f"{mod}.{qualname}")
    return dead


def test_every_public_definition_is_reached():
    dead = unreached()
    assert not dead, f"reached by no command, export or acceptance criterion: {', '.join(dead)}"
