"""Each public name is exported once, by the module that defines it.

The package star-imports every module's ``__all__``, so a name left in the
``__all__`` of a module it moved out of would still import and pass unnoticed.
"""

import importlib
import pkgutil

import pytest

import ncyclo

MODULES = sorted(info.name for info in pkgutil.iter_modules(ncyclo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_its_own_names(name):
    module = importlib.import_module(f"ncyclo.{name}")
    foreign = {item: getattr(module, item).__module__ for item in getattr(module, "__all__", [])
               if getattr(module, item).__module__ != module.__name__}
    assert not foreign


def test_package_exports_each_name_once():
    assert len(ncyclo.__all__) == len(set(ncyclo.__all__))
