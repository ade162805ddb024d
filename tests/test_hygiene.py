"""Source hygiene of the package, checked with the standard library's ``ast``.

Every module of ``src/antipodal/`` except ``__init__.py`` (which re-exports
names on purpose) must use each name it imports.  A name counts as used when
it is loaded anywhere in the module, including inside an annotation written
as a string; a name that appears only in a docstring or another string is
not used.

Every private function or class defined at the top level of a package
module must be referenced somewhere in the package outside its own
definition: a helper nothing calls is dead code.  A reference is a name or
an attribute with the helper's name; a mention in a docstring is not one.

No package module may keep a cache across calls at its top level: a
function decorated with, or a name bound to, ``functools.lru_cache`` or
``functools.cache`` (however imported) fails, except the per-descriptor
triangle table ``membership._suspect_pairs``.  Reuse inside one call (the
counterexamples a witness search keeps) stays local to that call, so
repeated calls, benchmark passes included, pay the same cost.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "antipodal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names of ``source`` that it never loads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level helper no code references.

    ``sources`` maps module names to their source text.  The references are
    looked for in every module, skipping the helper's own definition.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in inside and
                       (isinstance(n, ast.Name) and n.id == name or
                        isinstance(n, ast.Attribute) and n.attr == name)
                       for other in trees.values() for n in ast.walk(other)):
                dead.append(f"{module}.{name}")
    return dead


CACHE_ALLOWED = ["membership._suspect_pairs"]
CACHES = ("lru_cache", "cache")


def top_level_caches(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or name cached by ``functools``.

    ``sources`` maps module names to their source text.  A function counts
    when a decorator is ``lru_cache``/``cache`` (bare, called, through the
    ``functools`` module or imported under any name); an assignment counts
    when its value calls one of them.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules, names = {"functools"}, set(CACHES)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "functools")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names.update(a.asname or a.name for a in node.names if a.name in CACHES)

        def is_cache(expr) -> bool:
            while isinstance(expr, ast.Call):
                expr = expr.func
            return (isinstance(expr, ast.Name) and expr.id in names or
                    isinstance(expr, ast.Attribute) and expr.attr in CACHES and
                    isinstance(expr.value, ast.Name) and expr.value.id in modules)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(is_cache(d) for d in node.decorator_list):
                    found.append(f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if any(isinstance(n, ast.Call) and is_cache(n) for n in ast.walk(node.value)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [f"{module}.{n.id}" for t in targets for n in ast.walk(t)
                              if isinstance(n, ast.Name)]
    return found


def test_package_modules_are_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Iterator, Mapping\n"
              "import xml.dom\n"
              "def f(x: 'Mapping') -> Iterator:\n"
              "    'os'\n"
              "    return sys.argv\n")
    assert unused_imports(source) == ["os", "xml"]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_detector_sees_dead_and_live_helpers():
    sources = {
        "a": ("def _dead(n):\n"
              "    return _dead(n - 1) if n else 0\n"
              "def _called():\n"
              "    '_dead'\n"
              "class _Imported:\n"
              "    pass\n"
              "def _by_attribute():\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    return _called()\n"
              "def public():\n"
              "    pass\n"),
        "b": ("from a import _Imported\n"
              "import a\n"
              "x = [_Imported, a._by_attribute]\n"),
    }
    assert dead_helpers(sources) == ["a._dead"]


def test_no_cross_call_cache():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert top_level_caches(sources) == CACHE_ALLOWED


def test_detector_sees_top_level_caches():
    sources = {
        "a": ("import functools\n"
              "import functools as ft\n"
              "from functools import lru_cache, cache as memo\n"
              "@functools.lru_cache(maxsize=8)\n"
              "def _table(n):\n"
              "    return n\n"
              "@memo\n"
              "def aliased(n):\n"
              "    return n\n"
              "@ft.cache\n"
              "def module_alias(n):\n"
              "    return n\n"
              "wrapped = lru_cache(None)(len)\n"
              "def plain(n):\n"
              "    @functools.cache\n"
              "    def inner(k):\n"
              "        return k\n"
              "    return inner(n)\n"
              "@functools.wraps(len)\n"
              "def decorated(n):\n"
              "    return n\n"),
    }
    assert top_level_caches(sources) == ["a._table", "a.aliased", "a.module_alias",
                                         "a.wrapped"]
