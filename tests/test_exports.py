"""Every name a module lists in ``__all__`` exists, so a deleted function
cannot stay advertised."""

import importlib
import pkgutil

import pytest

import cardproj

MODULES = sorted(info.name for info in pkgutil.iter_modules(cardproj.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    loaded = importlib.import_module(f"cardproj.{module}")
    missing = [name for name in getattr(loaded, "__all__", ()) if not hasattr(loaded, name)]
    assert not missing
