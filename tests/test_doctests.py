"""Every docstring example in the package runs and holds."""

import doctest
import importlib
import pkgutil

import pytest

import unitprod

MODULES = ["unitprod"] + [
    f"unitprod.{info.name}" for info in pkgutil.iter_modules(unitprod.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_exist():
    examples = {
        name: doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    }
    assert examples["unitprod.arith"] >= 2 and examples["unitprod.lab"] >= 2
    assert examples["unitprod.search"] >= 2
