"""scipy's compiled LAPACK routines without importing scipy.linalg.

`from scipy.linalg.lapack import ...` runs the scipy.linalg package
__init__, which imports most of scipy.linalg: about half of a process's
start-up. The routines live in one f2py extension, scipy/linalg/_flapack,
whose only import is numpy. That file is loaded on its own and registered
in sys.modules under its own name, so a later `import scipy.linalg`
reuses the module and hands out the same routine objects. If scipy.linalg
was imported first, its module is reused. If the file is not where scipy
puts it, or does not load, the routines come from the public
scipy.linalg.lapack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import sys

_NAME = "scipy.linalg._flapack"


def _load_extension():
    """scipy.linalg._flapack loaded from its file, or None when the file
    is missing or does not load."""
    scipy = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy is None or not scipy.submodule_search_locations:
        return None
    linalg = pathlib.Path(scipy.submodule_search_locations[0], "linalg")
    # the exact file names this interpreter loads, in the import system's
    # order: a stale build for another Python is never picked up
    paths = (linalg / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(_NAME, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        sys.modules.pop(_NAME, None)
        return None
    return module


def _flapack():
    """The module that holds scipy's f2py LAPACK routines."""
    module = sys.modules.get(_NAME) or _load_extension()
    if module is None:
        from scipy.linalg import lapack as module
    return module


_module = _flapack()
dgbtrf, dgbtrs = _module.dgbtrf, _module.dgbtrs
dptsv, dpttrf, dpttrs = _module.dptsv, _module.dpttrf, _module.dpttrs
