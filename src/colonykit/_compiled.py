"""LAPACK's banded solvers, expit and find_peaks's core from scipy's compiled
modules alone.

LAPACK's dgtsv, dgbtrf and dgbtrs, which only ``discrete`` calls, live in
the extension module ``scipy.linalg._flapack``, ``expit`` in
``scipy.special._special_ufuncs`` and the two functions
``scipy.signal.find_peaks`` runs in ``scipy.signal._peak_finding_utils``.
Importing them through ``scipy.linalg`` and ``scipy.special`` runs those
packages' ``__init__`` files, about 0.4 s that mostly goes to
``scipy._lib._array_api`` and the numpy modules it pulls in.  Here each
extension is loaded from its file in scipy's directory (a few ms) and
registered in ``sys.modules``, so a later scipy import in the same process
reuses it and the objects are the public ones.  Where the file is missing
or will not load (an older scipy layout, or a platform whose extensions need
scipy's own set-up first) the public module is imported instead.  The
peak finder's module runs ``scipy/__init__`` (about 20 ms), so
``peak_finding`` loads it on its first call, not at import.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dgtsv", "dgbtrf", "dgbtrs", "expit", "peak_finding"]


def _module(package: str, name: str):
    """The extension module scipy.<package>.<name>, loaded from its file
    unless it is already in sys.modules."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy_spec = importlib.util.find_spec("scipy")  # finds the package, runs none of it
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package directory")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
            return module
    raise ImportError(f"no compiled {full} in {directory}")


def load(package: str, name: str, attrs: tuple[str, ...], public: str) -> tuple:
    """The callables ``attrs`` of the extension module scipy.<package>.<name>,
    or, if it cannot be loaded on its own, of the public module ``public``."""
    try:
        module = _module(package, name)
        return tuple(getattr(module, a) for a in attrs)
    except (ImportError, OSError, AttributeError):
        module = importlib.import_module(public)
        return tuple(getattr(module, a) for a in attrs)


dgtsv, dgbtrf, dgbtrs = load("linalg", "_flapack", ("dgtsv", "dgbtrf", "dgbtrs"),
                             "scipy.linalg.lapack")
(expit,) = load("special", "_special_ufuncs", ("expit",), "scipy.special")


@functools.cache
def peak_finding() -> tuple:
    """scipy.signal's compiled ``_local_maxima_1d`` and ``_peak_prominences``,
    loaded on the first call."""
    return load("signal", "_peak_finding_utils", ("_local_maxima_1d", "_peak_prominences"),
                "scipy.signal._peak_finding_utils")
