"""Every name a rodpade module exports in ``__all__`` resolves."""

from __future__ import annotations

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

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


def _top_level_names(tree) -> set[str]:
    """Names a module binds itself at top level: defs, classes and assignments, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _all_assignments(tree):
    """Every top-level statement that binds ``__all__``: plain, annotated or augmented."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if [getattr(t, "id", None) for t in targets] == ["__all__"]:
            yield node


def test_every_module_exports_only_what_it_defines():
    # a re-exported or computed name in __all__ is a second import path for one object
    flagged = []
    for path in sorted(Path(rodpade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = _top_level_names(tree)
        for node in _all_assignments(tree):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                flagged.append((path.name, "__all__ is computed"))
                continue
            for elt in node.value.elts:
                if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                    flagged.append((path.name, ast.dump(elt)))
                elif elt.value not in defined:
                    flagged.append((path.name, elt.value))
    assert flagged == []
    assert not hasattr(rodpade, "__getattr__")


def _names_in(node) -> set[str]:
    """The class names an ``except`` type or a base list names: ``E``, ``mod.E`` or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names_in, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_exception_class_of_the_package_is_caught_by_name():
    # a class is worth defining only if some handler tells it apart from its base
    paths = Path(rodpade.__file__).parent.glob("*.py")
    nodes = [node for path in paths for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    bases = {
        node.name: set().union(*map(_names_in, node.bases)) for node in nodes if isinstance(node, ast.ClassDef)
    }
    # an exception class derives from a builtin exception, or from another exception class
    exceptions = {
        name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    while new := {name for name, named in bases.items() if named & exceptions} - exceptions:
        exceptions |= new
    defined = exceptions & bases.keys()
    caught = set().union(*(_names_in(node.type) for node in nodes if isinstance(node, ast.ExceptHandler)))
    assert sorted(defined - caught) == []
    assert "TableCheckError" in defined
