"""Every name a module of the package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import reflectsde

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(reflectsde.__path__, "reflectsde.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
