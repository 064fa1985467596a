"""Every top-level definition and method in the package is reachable from the CLI.

The walk follows the package modules that `cli.py` imports, directly or
through other package modules.  Its roots are all of `cli.py` and the
module-level code of each of those modules.  A top-level function or
class is reached when its name appears in reached code, and its whole
body then becomes reached code.  Import statements bind names without
using them, so they reach nothing, and the re-exports in `__init__.py`
are the library surface rather than a use.  A reached class brings in
its bases, decorators, class-level statements and dunder methods; any
other method is reached when reached code names it as an attribute
(`x.name`), since a call through an instance names only the attribute.
A bare local variable of the same name reaches no method.

The same import walk checks the layering: the p-adic certificate layer
(`series`, `conic`, `cosets`) reaches neither cyclotomic fields nor
Laurent polynomials.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import padicloci
from padicloci import cli

PACKAGE = Path(padicloci.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(module):
    path = PACKAGE / (module + ".py")
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def runtime_modules(root="cli"):
    """Parsed tree of root and of every package module it imports,
    directly or through other package modules, by name."""
    trees = {}
    todo = [root]
    while todo:
        module = todo.pop()
        if module not in trees:
            trees[module] = _parse(module)
            todo.extend(_package_imports(trees[module]))
    return trees


def _names_used(nodes):
    """("name", x) for every bare or attribute name x in the nodes, and
    ("attr", x) for every attribute name: top-level definitions are
    keyed by the first, methods by the second."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(("name", sub.id))
            elif isinstance(sub, ast.Attribute):
                out |= {("name", sub.attr), ("attr", sub.attr)}
    return out


def _class_parts(node):
    """(reached with the class, {method name: method}) of a class body."""
    parts = node.bases + node.keywords + node.decorator_list
    methods = {}
    for item in node.body:
        name = getattr(item, "name", "")
        if not isinstance(item, DEFINITIONS) or name.startswith("__") and name.endswith("__"):
            parts.append(item)
        else:
            methods[name] = item
    return parts, methods


def unreached_definitions():
    trees = runtime_modules()
    defs = {}
    frontier = list(trees["cli"].body)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(("name", node.name), []).append(node)
            else:
                frontier.append(node)
    reached = set()
    reached_nodes = set()

    def reach(node):
        reached_nodes.add(node)
        if not isinstance(node, ast.ClassDef):
            frontier.append(node)
            return
        parts, methods = _class_parts(node)
        frontier.extend(parts)
        for name, method in methods.items():
            defs.setdefault(("attr", name), []).append(method)
            if ("attr", name) in reached:
                reach(method)

    while frontier:
        fresh = _names_used(frontier) - reached
        reached |= fresh
        frontier = []
        for name in fresh:
            for node in defs.get(name, ()):
                reach(node)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = trees.get(module) or _parse(module)
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node not in reached_nodes:
                out.append("%s.%s" % (module, node.name))
            elif isinstance(node, ast.ClassDef):
                out.extend(
                    "%s.%s.%s" % (module, node.name, name)
                    for name, method in _class_parts(node)[1].items()
                    if method not in reached_nodes
                )
    return out


def test_the_walk_follows_the_cli_imports():
    assert {"cli", "complexes", "conic", "cosets", "padic", "series"} <= set(
        runtime_modules()
    )


def test_every_top_level_definition_is_reached_from_the_cli():
    assert unreached_definitions() == []


@pytest.mark.parametrize("module", ["series", "conic", "cosets"])
def test_the_padic_layer_imports_no_exact_field(module):
    assert not {"cyclotomic", "laurent"} & set(runtime_modules(module))


def test_a_method_named_nowhere_is_reported(monkeypatch):
    # a copy of complexes.py whose TwistedComplex gains a method that no
    # reached code names and one named like a local variable of reached
    # code (`scan_torsion` binds `euler`); their dunder twin is reached
    # with the class
    parse = _parse
    extra = ast.parse(
        "def stray_method(self):\n    return 1\n\n"
        "def euler(self):\n    return 1\n\n"
        "def __len__(self):\n    return 1\n"
    )

    def with_stray_methods(module):
        tree = parse(module)
        if module == "complexes":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "TwistedComplex":
                    node.body.extend(extra.body)
        return tree

    monkeypatch.setitem(globals(), "_parse", with_stray_methods)
    assert unreached_definitions() == [
        "complexes.TwistedComplex.stray_method",
        "complexes.TwistedComplex.euler",
    ]


def unexecuted_serializers():
    """Every `to_json` defined on a class of the package that `demo` never
    runs.  The name check above takes any method named `to_json` as a use
    of all of them; this one follows the calls `demo` actually makes."""
    serializers = {}
    for info in pkgutil.iter_modules(padicloci.__path__):
        module = importlib.import_module("padicloci." + info.name)
        for name, obj in sorted(vars(module).items()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                method = vars(obj).get("to_json")
                if method is not None:
                    serializers[method.__code__] = "%s.%s.to_json" % (info.name, name)
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(record)
    try:
        assert cli.main(["demo"]) == 0
    finally:
        sys.setprofile(old)
    return [name for code, name in serializers.items() if code not in ran]


def test_every_serializer_runs_in_the_demo(capsys):
    assert unexecuted_serializers() == []


def test_a_serializer_the_demo_never_runs_is_reported(monkeypatch, capsys):
    from padicloci.series import PolyDisc

    monkeypatch.setattr(PolyDisc, "to_json", lambda self: {}, raising=False)
    assert unexecuted_serializers() == ["series.PolyDisc.to_json"]
