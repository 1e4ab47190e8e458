"""Every public name a module lists in ``__all__`` exists on it, and no
module reads another module's private names."""
import ast
import importlib
import pkgutil
from pathlib import Path

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


SOURCES = sorted(Path(fedcox.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path):
    """``(line, name)`` for each private name that the module at ``path``
    imports from, or reads as an attribute of, another fedcox module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to fedcox modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "fedcox"
        ):
            for alias in node.names:
                if node.module in (None, "fedcox"):  # from . import dataio
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_names_read_across_modules(path):
    assert _private_reads(path) == []


def test_private_read_check_finds_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import dataio as io\n"
        "from .aggregation import _HIDDEN, shown\n"
        "from fedcox.kernel import _packed\n"
        "io._check(io.public, shown)\n"
    )
    assert _private_reads(path) == [(2, "aggregation._HIDDEN"),
                                    (3, "fedcox.kernel._packed"),
                                    (4, "io._check")]
