"""LAPACK's Cholesky factor and solves, from scipy's wrappers without scipy.

fedcox factors and solves with scipy's f2py wrappers of LAPACK ``dpotrf``,
``dpotrs`` and ``dtrtrs``, so every factor and solve is bit-identical to
``scipy.linalg.lapack``'s.  The wrappers live in the extension module
``scipy/linalg/_flapack``, which needs nothing from scipy's Python
packages (about 26 MB of peak memory).  So the extension is found with
:func:`importlib.util.find_spec`, which runs no scipy code, and loaded
under the name ``fedcox._flapack``, never as a scipy module.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from pathlib import Path

__all__ = ["dpotrf", "dpotrs", "dtrtrs", "load"]

_ROUTINES = ("dpotrf", "dpotrs", "dtrtrs")


def _library_path() -> Path:
    """Path of scipy's ``linalg/_flapack`` extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(
            "fedcox calls LAPACK's dpotrf in scipy's linalg/_flapack "
            "extension, and scipy is not installed"
        )
    package = Path(spec.submodule_search_locations[0])
    # scipy's Windows wheels keep the LAPACK DLL in scipy.libs, which
    # scipy/__init__.py adds to the DLL search path.
    libs = package.with_name("scipy.libs")
    if hasattr(os, "add_dll_directory") and libs.is_dir():
        os.add_dll_directory(str(libs))
    stem = package / "linalg" / "_flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            return path
    raise ImportError(
        f"fedcox calls LAPACK's dpotrf in scipy's {stem} extension, and no "
        f"such file exists with any of the suffixes "
        f"{importlib.machinery.EXTENSION_SUFFIXES}"
    )


def load(path) -> tuple:
    """``dpotrf``, ``dpotrs`` and ``dtrtrs`` of the f2py extension at ``path``.

    A module without one of them raises ``ImportError`` naming the routine
    and the file.
    """
    path = Path(path)
    name = f"fedcox.{path.name.partition('.')[0]}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for routine in _ROUTINES:
        if not hasattr(module, routine):
            raise ImportError(
                f"{path} has no {routine}, so LAPACK's {routine} cannot be called"
            )
    return tuple(getattr(module, routine) for routine in _ROUTINES)


dpotrf, dpotrs, dtrtrs = load(_library_path())
