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


def module_level_statements(body):
    """The statements run at import: the module body, and the bodies of
    its module-level ``if`` and ``try`` blocks, however deeply nested."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse]
            if isinstance(node, ast.Try):
                blocks += [node.finalbody, *(h.body for h in node.handlers)]
            for block in blocks:
                yield from module_level_statements(block)


def imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and \
        node.module.split(".")[0] == "numpy"


def test_no_module_imports_numpy_at_import():
    # numpy loads inside the functions that run array code, so importing
    # the package, and every q-series command, runs without it
    paths = sorted(Path(designlab.__file__).parent.rglob("*.py"))
    assert {"codes.py", "lattices.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in module_level_statements(tree.body)
                 if imports_numpy(node)]
        assert not found, (path, found)
