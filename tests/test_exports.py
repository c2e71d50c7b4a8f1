"""Every name a rodpade module exports in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import rodpade

# ``__main__`` runs the command line on import
MODULES = ["rodpade"] + [
    f"rodpade.{info.name}" for info in pkgutil.iter_modules(rodpade.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
