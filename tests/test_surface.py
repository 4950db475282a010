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

A private top-level function, class or module constant (a name with one
leading underscore) counts as reached only when production code loads it
outside its own definition: tests, which may reach into private helpers,
do not count.

The brute-force oracles are also checked to load no name of the production
routes they referee, and no module but `sets.py` is allowed to convert a
set's `elems`, already the one int64 array form.
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


def _package():
    """The parsed modules of src/fplab by name, and the loads of each."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    return trees, {mod: list(_loads(tree)) for mod, tree in trees.items()}


def unreached():
    trees, loads = _package()
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


def _private_definitions(tree):
    """(name, definition node) for the private top-level functions, classes
    and module constants of a module; dunders such as __all__ are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unreached_private():
    trees, loads = _package()
    dead = []
    for mod, tree in trees.items():
        for name, node in _private_definitions(tree):
            lines = range(node.lineno, node.end_lineno + 1)
            if not any(loaded == name and (other != mod or line not in lines)
                       for other, found in loads.items() for _, loaded, line in found):
                dead.append(f"{mod}.{name}")
    return dead


def test_every_private_definition_is_reached():
    dead = unreached_private()
    assert not dead, f"loaded by no production code: {', '.join(dead)}"


# Names of the production routes, and of the tables and library calls they
# count with, that an oracle must not load: a referee that reached one would
# be a copy of what it checks.
PRODUCTION_NAMES = {
    "ind", "_index_table", "squares", "_squares_bitmap", "unique", "pow", "_inverse_mod",
    "_convolve", "_pairs", "_lag_counts", "MultiplicityFn", "_fibre_parts",
    "_triple_cross_from_ratios", "line_spectrum",
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



# Calls that would turn a set's elems into another form
CONVERTERS = {"asarray", "array", "tuple", "sorted"}


def elems_conversions(trees):
    """module:line of each converter call outside sets.py whose arguments
    load an .elems attribute."""
    return [
        f"{mod}:{node.lineno}"
        for mod, tree in trees.items() if mod != "sets"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in CONVERTERS
        and any(attr and name == "elems"
                for arg in [*node.args, *node.keywords] for attr, name, _ in _loads(arg))
    ]


def test_only_sets_converts_elems():
    for source in ("np.asarray(a.elems, dtype=np.int64)", "tuple(sorted(s.elems))",
                   "xs = np.array([x for x in s.elems])", "np.array(object=s.elems)"):
        assert elems_conversions({"energy": ast.parse(source)}), source
    assert not elems_conversions({"sets": ast.parse("np.asarray(a.elems)"),
                                  "energy": ast.parse("xs = a.elems; ys = np.array(window)")})
    trees, _ = _package()
    found = elems_conversions(trees)
    assert not found, f"set elems converted outside sets.py: {', '.join(found)}"


def test_nothing_loads_as_set():
    trees, _ = _package()
    trees.update({f"tests/{path.stem}": ast.parse(path.read_text())
                  for path in sorted(ACCEPTANCE.parent.glob("*.py"))})
    found = [f"{mod}:{line}" for mod, tree in trees.items()
             for _, name, line in _loads(tree) if name == "as_set"]
    assert not found, f"as_set loaded at {', '.join(found)}"
