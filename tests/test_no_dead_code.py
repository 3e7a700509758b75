"""Every function, class and method defined in ``src/`` has a caller outside the tests.

The scan walks the syntax trees of the package (its ``__init__.py`` aside)
and of ``bench/``, and collects every name they use: ``Name`` nodes,
``Attribute`` names, import aliases and string constants.  String
constants count because the benchmark tracer hooks functions by name.
A top-level function or class of the package, or a method of such a
class, whose name is not in that set is reachable only from the tests,
and fails this test.  Dunder names are exempt: the interpreter calls them.

The scan matches bare names, not bindings, so it cannot see a definition
whose name is also used for something else: a method named like a local
variable elsewhere (``entry``, say), or a function that only calls itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bianchi_integrals"


def _sources():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return paths, paths + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, "%s.%s" % (node.name, item.name)


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_in_src_has_a_caller_outside_tests():
    defining, scanned = _sources()
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    used = {name for tree in trees.values() for name in _used_names(tree)}
    unused = [
        "%s:%s" % (path.name, label)
        for path in defining
        for name, label in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert unused == []
