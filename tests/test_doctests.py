import doctest
import importlib
import pkgutil

import pytest

import descpoly

MODULES = sorted(f"descpoly.{info.name}" for info in pkgutil.iter_modules(descpoly.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
