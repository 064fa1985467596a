"""Every top-level definition in the package is reachable from the CLI.

The walk follows the package modules that `cli.py` imports, directly or
through other package modules.  Its roots are all of `cli.py` and the
module-level code of each of those modules.  A top-level function or
class is reached when its name appears in reached code, and its whole
body then becomes reached code.  Import statements bind names without
using them, so they reach nothing, and the re-exports in `__init__.py`
are the library surface rather than a use.  Methods are outside the
walk: a reached class brings in every method it has.

The same import walk checks the layering: the p-adic certificate layer
(`series`, `conic`, `cosets`) reaches neither cyclotomic fields nor
Laurent polynomials.
"""

import ast
from pathlib import Path

import pytest

import padicloci

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
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unreached_definitions():
    trees = runtime_modules()
    defs = {}
    frontier = list(trees["cli"].body)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append(node)
            else:
                frontier.append(node)
    reached = set()
    while frontier:
        fresh = _names_used(frontier) - reached
        reached |= fresh
        frontier = [node for name in fresh for node in defs.get(name, ())]
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        for node in _parse(module).body:
            if isinstance(node, DEFINITIONS):
                if module not in trees or node.name not in reached:
                    out.append("%s.%s" % (module, node.name))
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
