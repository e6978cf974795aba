"""Every name the package exports must resolve.

A definition deleted while its name stays in a module's ``__all__`` breaks
``from stochflow.<module> import *`` only when someone runs it; a name left in
the package's own import list breaks ``import stochflow`` outright.  Both are
checked here against the source, so a stale export fails the suite.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import stochflow


def _submodules():
    return [
        importlib.import_module(f"stochflow.{info.name}")
        for info in pkgutil.iter_modules(stochflow.__path__)
    ]


def test_every_all_entry_of_every_module_resolves():
    modules = _submodules()
    assert any(hasattr(m, "__all__") for m in modules)
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(stochflow.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = []
    for module, name, bound in imported:
        source = importlib.import_module(f"stochflow.{module}")
        if not hasattr(source, name) or not hasattr(stochflow, bound):
            missing.append(f"stochflow.{module}.{name}")
    assert not missing
