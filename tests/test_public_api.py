"""Every name the package exports must resolve, and every stored field is read.

A definition deleted while its name stays in a module's ``__all__`` breaks
``from stochflow.<module> import *`` only when someone runs it; a name left in
the package's own import list breaks ``import stochflow`` outright.  Both are
checked here against the source, so a stale export fails the suite.  A dataclass
field that the package builds but never reads costs work on every run and shows
up nowhere; the records that carry a run's inputs and results are checked for
such fields.
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


# Records whose every field the package must read somewhere outside the class.
_READ_RECORDS = (
    "ScenarioConfig", "CoefficientSet", "EntropyReport", "OracleSeries", "GridField", "McField",
    "JensenResult",
)


def _loaded_attributes(node) -> set:
    return {
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def test_every_field_of_the_run_records_is_read():
    # Attribute reads are matched by name: a field counts as read when an attribute
    # of that name is loaded outside the record's class, or inside one of its
    # methods that is itself called from outside (``cfg.params_for`` reads
    # ``check_params``).
    fields, methods, outside = {}, {}, {name: set() for name in _READ_RECORDS}
    for path in sorted(Path(stochflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in _READ_RECORDS:
                inside[cls.name] = {id(sub) for sub in ast.walk(cls)}
                fields[cls.name] = [
                    stmt.target.id for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                methods[cls.name] = {
                    stmt.name: _loaded_attributes(stmt) for stmt in cls.body
                    if isinstance(stmt, ast.FunctionDef)
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                for name in _READ_RECORDS:
                    if id(node) not in inside.get(name, ()):
                        outside[name].add(node.attr)
    assert sorted(fields) == sorted(_READ_RECORDS)
    unread = []
    for cls, names in fields.items():
        read = set(outside[cls])
        for method, attrs in methods[cls].items():
            if method in outside[cls]:
                read |= attrs
        unread += [f"{cls}.{name}" for name in names if name not in read]
    assert not unread, f"stored but never read: {', '.join(unread)}"
