"""The package root: one name, one object."""

import importlib

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
