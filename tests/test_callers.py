"""No code without a caller: every top-level function and class of the
package is referenced somewhere in the package or the demos outside its
own definition.  Tests do not count as callers."""

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
