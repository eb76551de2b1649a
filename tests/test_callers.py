"""No code without a caller: every top-level function and class of the
package is referenced somewhere in the package or the demos outside its
own definition, and every setting of the problem and the search is set
or read by some caller.  Tests do not count as callers."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "vwbound"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _used(node) -> list:
    """Every identifier ``node`` reads: names and attribute names."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_top_level_definition_has_a_caller():
    trees = _trees(PACKAGE, ROOT / "demos")
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _used(tree):
            uses[name] = uses.get(name, 0) + 1
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a use inside the definition itself (recursion, a class
            # naming itself) is not a caller
            if uses.get(node.name, 0) - _used(node).count(node.name) < 1:
                uncalled.append(f"{path.name}: {node.name}")
    assert uncalled == []


# the settings classes, by module: each field must have a caller
SETTINGS = {"shooting.py": "ShootingConfig",
            "quadratic.py": "QuadraticProblem"}


def test_every_setting_is_set_or_read_by_a_caller():
    # a field counts when some call of its class in the package, the demos
    # or the benchmark sets it by keyword, or when the benchmark reads it
    bench = _trees(ROOT / "perfbench")
    trees = {**_trees(PACKAGE, ROOT / "demos"), **bench}
    read = {node.attr for tree in bench.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unused = []
    for module, name in SETTINGS.items():
        cls = next(node for node in trees[PACKAGE / module].body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        fields = [node.target.id for node in cls.body
                  if isinstance(node, ast.AnnAssign)]
        set_by_keyword = {
            kw.arg for tree in trees.values() for call in ast.walk(tree)
            if isinstance(call, ast.Call) and name in _used(call.func)
            for kw in call.keywords}
        unused += [f"{name}.{field}" for field in fields
                   if field not in set_by_keyword | read]
    assert unused == []
