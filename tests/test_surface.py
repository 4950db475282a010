"""Every public definition in `src/fplab` is reached.

A public top-level function or class counts as reached when its name is
loaded (as an `ast.Name` or an `ast.Attribute`) somewhere in `src/fplab`
outside its own body, or when `tests/test_acceptance.py` loads it.  A public
method of a top-level class counts only through `ast.Attribute` loads
(`obj.method`) outside the method's body, so a local variable or a function
that shares its name does not reach it.  A public field of a top-level
dataclass counts only through `ast.Attribute` loads outside its class's body,
so the class reading its own field (`self.field` in `__repr__`) does not
reach it either.  Being exported in `fplab.__all__` reaches nothing by
itself.  Attribute matching is by bare name, so a shared attribute name can
still hide a dead method or field, but never flags a live one.

The brute-force oracles are also checked to load no name of the production
routes they referee.
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


def _is_dataclass(node):
    return any(
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
        for dec in node.decorator_list
    )


def _definitions(tree):
    """(qualified name, bare name, attribute-only, scope) for public top-level
    functions and classes, the public methods of top-level classes and the
    public fields of top-level dataclasses; loads inside scope do not count."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
            continue
        yield node.name, node.name, False, node
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and _public(item.name):
                yield f"{node.name}.{item.name}", item.name, True, item
            elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and _public(item.target.id) and _is_dataclass(node)):
                yield f"{node.name}.{item.target.id}", item.target.id, True, node


def unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loads = {mod: list(_loads(tree)) for mod, tree in trees.items()}
    from_acceptance = list(_loads(ast.parse(ACCEPTANCE.read_text())))
    dead = []
    for mod, tree in trees.items():
        for qualname, name, attr_only, scope in _definitions(tree):
            if any(loaded == name and (attr or not attr_only)
                   for attr, loaded, _ in from_acceptance):
                continue
            lines = range(scope.lineno, scope.end_lineno + 1)
            if any(
                loaded == name and (attr or not attr_only) and (other != mod or line not in lines)
                for other, found in loads.items()
                for attr, loaded, line in found
            ):
                continue
            dead.append(f"{mod}.{qualname}")
    return dead


def test_every_public_definition_is_reached():
    dead = unreached()
    assert not dead, f"reached by no command or acceptance criterion: {', '.join(dead)}"


# Names of the production routes, and of the tables and library calls they
# count with, that an oracle must not load: a referee that reached one would
# be a copy of what it checks.
PRODUCTION_NAMES = {
    "ind", "unique", "pow", "_inverse_mod", "_convolve", "diff_multiplicity",
    "MultiplicityFn", "_fibre", "_triple_cross_from_ratios", "line_spectrum",
}
REFEREES = {
    "geometry": "collinear_triples_bruteforce",
    "charsums": "count_n_bruteforce",
    "energy": "e3_bruteforce",
}


def test_bruteforce_referees_load_no_production_route():
    found = {}
    for mod, name in REFEREES.items():
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                found[name] = sorted({loaded for _, loaded, _ in _loads(node)} & PRODUCTION_NAMES)
    assert set(found) == set(REFEREES.values())
    leaks = {name: names for name, names in found.items() if names}
    assert not leaks, f"oracles load production-route names: {leaks}"
