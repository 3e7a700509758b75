"""Every function, class and method defined in ``src/`` has a caller outside the tests.

The scan walks the syntax trees of the package (its ``__init__.py`` aside)
and of ``bench/``, and collects every name they use.  A top-level function
or class counts as used when its name occurs as a ``Name`` node, an
``Attribute`` name, an import alias or a string constant.  A method counts
as used only when its name occurs as an ``Attribute`` name or a string
constant: a method is reached through an object, so a bare local of the
same name (``entry`` in ``for entry in rows``, say) is not a use of it.
String constants count because the benchmark tracer hooks functions by
name.  A definition whose name is not used is reachable only from the
tests, and fails this test.  Dunder names are exempt: the interpreter
calls them.

The scan still matches names, not bindings, so it cannot see a method whose
name is also an attribute of something else (``args.degree`` hid
``KPoly.degree``), or a function that only calls itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bianchi_integrals"

ENTRY_CASE = """
class Report:
    def entry(self, name):
        return name

entries = [entry for entry in vars(Report)]
"""


def _sources():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return paths, paths + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, label, is_method) for each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, "%s.%s" % (node.name, item.name), True


def _uses(tree):
    """(name, through_attribute) for each use of a name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, True


def _unused(trees, defining):
    uses = [use for tree in trees.values() for use in _uses(tree)]
    attributes = {name for name, through_attribute in uses if through_attribute}
    names = attributes | {name for name, _ in uses}
    return [
        "%s:%s" % (path.name, label)
        for path in defining
        for name, label, is_method in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (attributes if is_method else names)
    ]


def test_every_definition_in_src_has_a_caller_outside_tests():
    defining, scanned = _sources()
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    assert _unused(trees, defining) == []


def test_a_method_named_like_a_local_is_caught():
    path = Path("case.py")
    assert _unused({path: ast.parse(ENTRY_CASE)}, [path]) == ["case.py:Report.entry"]
