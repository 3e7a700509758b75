"""Every function, class, method and dataclass field defined in ``src/`` has
a use outside the tests.

The scan walks the syntax trees of the package (its ``__init__.py`` aside)
and of ``bench/``, and collects every name they use.  A top-level function
or class counts as used when its name occurs as a ``Name`` node, an
``Attribute`` name, an import alias or a string constant.  A method counts
as used only when its name occurs as an ``Attribute`` name or a string
constant: a method is reached through an object, so a bare local of the
same name (``entry`` in ``for entry in rows``, say) is not a use of it.  A
dataclass field counts as used when its name occurs as an ``Attribute``
name, a keyword argument or a string constant: a field that is only ever
filled positionally is never read.  String constants count because the
benchmark tracer hooks functions by name.  A definition whose name is not
used is reachable only from the tests, and fails this test.  Dunder names
are exempt: the interpreter calls them.

The scan still matches names, not bindings, so it cannot see a method whose
name is also an attribute of something else (``args.degree`` hid
``KPoly.degree``), or a function that only calls itself.

A second scan, module by module, checks that every name an import binds in
a ``src/`` module occurs in that module as a ``Name`` node: an import the
module does not use is left over from deleted code.  ``from __future__``
imports are exempt, as they bind nothing.
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

FIELD_CASE = """
@dataclass(frozen=True)
class Pair:
    left: int
    right: int

right = Pair(1, 2).left
"""

IMPORT_CASE = """
from __future__ import annotations

import os.path
from math import gcd, lcm
from typing import Optional as Maybe

def halve(a: Maybe[int]) -> int:
    return gcd(a, 2)
"""

# The kinds of use that count for each kind of definition.
COUNTS = {
    "top": ("name", "attribute", "string"),
    "method": ("attribute", "string"),
    "field": ("attribute", "keyword", "string"),
}


def _sources():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return paths, paths + sorted((ROOT / "bench").glob("*.py"))


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _definitions(tree):
    """(name, label, kind) for each top-level definition, method and dataclass field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, "top"
        if isinstance(node, ast.ClassDef):
            has_fields = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, "%s.%s" % (node.name, item.name), "method"
                elif has_fields and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, "%s.%s" % (node.name, item.target.id), "field"


def _uses(tree):
    """(name, kind of use) for each use of a name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "name"
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, "attribute"
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, "keyword"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, "string"


def _unused(trees, defining):
    uses = {use for tree in trees.values() for use in _uses(tree)}
    return [
        "%s:%s" % (path.name, label)
        for path in defining
        for name, label, kind in _definitions(trees[path])
        if not (name.startswith("__") and name.endswith("__"))
        and not any((name, use) in uses for use in COUNTS[kind])
    ]


def _unused_imports(tree):
    """Each name an import outside __future__ binds that the module never uses."""
    bound = [alias.asname or alias.name.split(".", 1)[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_definition_in_src_has_a_caller_outside_tests():
    defining, scanned = _sources()
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    assert _unused(trees, defining) == []


def test_a_method_named_like_a_local_is_caught():
    path = Path("case.py")
    assert _unused({path: ast.parse(ENTRY_CASE)}, [path]) == ["case.py:Report.entry"]


def test_a_dataclass_field_only_filled_positionally_is_caught():
    path = Path("case.py")
    assert _unused({path: ast.parse(FIELD_CASE)}, [path]) == ["case.py:Pair.right"]


def test_every_import_in_src_is_used_in_its_module():
    unused = ["%s:%s" % (path.name, name)
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []


def test_an_unused_import_is_caught():
    assert _unused_imports(ast.parse(IMPORT_CASE)) == ["os", "lcm"]
