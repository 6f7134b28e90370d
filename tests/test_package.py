"""The package root: one name, one object; and its source, the same
program with and without ``python -O``."""

import ast
import importlib
from pathlib import Path

import designlab

MODULES = ("errors", "qseries", "modforms", "codes", "lattices", "voa")


def test_package_root_exports_every_module_name():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"designlab.{name}")
        for attr in module.__all__:
            assert attr not in owner, (attr, owner.get(attr), name)
            owner[attr] = name
            assert getattr(designlab, attr) is getattr(module, attr), attr
    assert designlab.InternalCheckError.__module__ == "designlab.errors"


def raised_names(tree):
    """The names of what the module's ``raise`` statements raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            yield getattr(exc, "id", getattr(exc, "attr", None))


def test_every_guard_runs_under_optimize():
    # python -O drops assert statements and takes __debug__ as False; a
    # module whose bytecode is the same either way has neither, so every
    # guard in it runs under -O.  An AssertionError would escape the JSON
    # error contract: guards raise DesignLabError subclasses.  Read from the
    # imported package, so an installed build checks the installed copy
    paths = sorted(Path(designlab.__file__).parent.rglob("*.py"))
    assert {"__init__.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert compile(text, str(path), "exec", optimize=0) == \
            compile(text, str(path), "exec", optimize=1), path
        assert "AssertionError" not in raised_names(ast.parse(text)), path
