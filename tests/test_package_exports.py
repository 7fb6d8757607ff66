"""Every name a ``repro.*`` package lists in ``__all__`` resolves.

A normal import never reads the ``__all__`` strings, so a stale entry
(say, a deleted class still exported by name) would otherwise go
unnoticed until someone ran ``from package import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    name for _, name, is_pkg in pkgutil.walk_packages(repro.__path__, "repro.") if is_pkg
)


def test_every_package_is_checked():
    assert {"repro.core", "repro.msg", "repro.predict", "repro.sim"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
