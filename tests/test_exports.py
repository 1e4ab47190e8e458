"""Every public name a module lists in ``__all__`` exists on it."""
import importlib
import pkgutil

import pytest

import fedcox

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fedcox.__path__, "fedcox.")
)


def test_all_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
