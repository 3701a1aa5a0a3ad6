"""Every name a module lists in ``__all__`` exists, so a deleted function
cannot stay advertised, and the program calls it, so a public name that only
the tests use does not stay in ``src/``.  The same holds for the public
methods and properties of an exported class.  The number of public names, of
public settable values and of ``raise`` statements is pinned exactly, so
neither growth nor a removal goes unnoticed: inputs are checked once, where
they enter the program, so a new check below that boundary shows up here.  And every file the program writes
goes through ``data._open_new``, so none is truncated in place."""

import ast
import dataclasses
import functools
import importlib
import inspect
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


def _members(cls) -> list:
    """Public methods, classmethods and properties a class body defines."""
    kinds = (classmethod, staticmethod, property, functools.cached_property)
    return [name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, kinds))]


def test_every_exported_method_has_a_program_caller():
    # any attribute of that name read in src/ or bench/ counts: receivers'
    # types are not resolved, so a member goes unflagged when another
    # object's attribute shares its name
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)}
    uncalled = []
    for module in MODULES:
        loaded = importlib.import_module(f"cardproj.{module}")
        for name in getattr(loaded, "__all__", ()):
            cls = getattr(loaded, name)
            if inspect.isclass(cls) and cls.__module__ == loaded.__name__:
                uncalled += [f"{module}.{name}.{member}" for member in _members(cls)
                             if member not in read]
    assert not uncalled


# the counts as last recorded: a change that removes or adds a name, a value
# or a raise changes them here, where the change shows
EXPORTED_NAMES = 80
SETTABLE_VALUES = 108
RAISE_SITES = 57


def _defaulted(fn) -> int:
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def _settable_values(obj) -> int:
    """Values a caller can set on one exported name: the defaulted
    parameters of a function, of a class's public methods and of its own
    ``__init__``, and every field of a dataclass (whose generated
    ``__init__`` is not counted again)."""
    if not inspect.isclass(obj):
        return _defaulted(obj) if inspect.isfunction(obj) else 0
    record = dataclasses.is_dataclass(obj)
    count = len(dataclasses.fields(obj)) if record else 0
    for name, member in vars(obj).items():
        if name.startswith("_") and (record or name != "__init__"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            count += _defaulted(member)
    return count


def test_public_surface_does_not_grow():
    exported = [getattr(loaded, name)
                for loaded in (importlib.import_module(f"cardproj.{m}") for m in MODULES)
                for name in getattr(loaded, "__all__", ())]
    assert len(exported) == EXPORTED_NAMES
    assert sum(map(_settable_values, exported)) == SETTABLE_VALUES


def test_raise_sites_do_not_grow():
    count = sum(isinstance(node, ast.Raise)
                for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text())))
    assert count == RAISE_SITES


def _writes(tree) -> list:
    """(enclosing top-level function, line) of each call that may write a
    file: ``open`` with a mode that is not a read-only literal, and
    ``write_text``/``write_bytes``."""
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if not modes:
                    continue
                mode = modes[0]
                if isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value):
                    continue
            elif not (isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("write_text", "write_bytes")):
                continue
            found.append((getattr(stmt, "name", None), node.lineno))
    return found


def test_every_file_is_written_through_open_new():
    # truncating a file in place makes the next write of it wait for the
    # writeback of the old contents; _open_new writes a new file instead
    writes = {path.name: _writes(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    bypassing = [f"{name}:{line}" for name, found in writes.items()
                 for function, line in found if (name, function) != ("data.py", "_open_new")]
    assert not bypassing
    assert [function for function, _ in writes["data.py"]] == ["_open_new"]
