"""Every name a module lists in ``__all__`` exists, so a deleted function
cannot stay advertised, and the program calls it, so a public name that only
the tests use does not stay in ``src/``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cardproj

MODULES = sorted(info.name for info in pkgutil.iter_modules(cardproj.__path__))
SRC = Path(cardproj.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    loaded = importlib.import_module(f"cardproj.{module}")
    missing = [name for name in getattr(loaded, "__all__", ()) if not hasattr(loaded, name)]
    assert not missing


def _references(path: Path, own: str | None) -> set:
    """(module, name) pairs the code of one file refers to.

    A name counts when the file reaches it through its imports of cardproj
    modules (``dg.cumsum`` after ``from . import diffgraph as dg``, or
    ``Var`` after ``from .diffgraph import Var``), or, in the module ``own``
    that defines it, by its bare name anywhere but inside its own top-level
    definition.  Strings, such as the entries of ``__all__``, do not count.
    """
    tree = ast.parse(path.read_text())
    modules, names = {}, {}  # local name -> module; local name -> (module, name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source != "cardproj" and not source.startswith("cardproj."):
                continue
            source = source[len("cardproj."):]
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = (source, alias.name)
            else:
                modules[local] = alias.name
    found = set()
    for stmt in tree.body:
        defined = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    found.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    found.add(names[node.id])
                elif own is not None and node.id != defined:
                    found.add((own, node.id))
    return found


def test_every_exported_name_has_a_program_caller():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _references(path, path.stem)
    for path in sorted(BENCH.glob("*.py")):
        found |= _references(path, None)
    uncalled = [
        f"{module}.{name}"
        for module in MODULES
        for name in getattr(importlib.import_module(f"cardproj.{module}"), "__all__", ())
        if (module, name) not in found
    ]
    assert not uncalled
