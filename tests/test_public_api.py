"""The package's export list is the public API: it is kept sorted and free of
duplicates, it names exactly the public objects the package holds, and a star
import of it works, so a removal or an addition shows up here."""

from types import ModuleType

import descpoly


def test_all_is_sorted_without_duplicates():
    assert descpoly.__all__ == sorted(set(descpoly.__all__))


def test_all_names_every_public_object():
    public = {
        name
        for name, value in vars(descpoly).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(descpoly.__all__) == public


def test_star_import():
    namespace: dict = {}
    exec("from descpoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(descpoly.__all__)
