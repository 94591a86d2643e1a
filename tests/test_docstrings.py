"""Docstring coverage gate for the documented-API packages.

`repro.service`, `repro.profdb` and `repro.metrics` are the packages
whose docs pages promise a stable, navigable API — every public module,
class, function and method in them must say what it is for.  Private
names (leading underscore) and inherited/imported members are exempt.
"""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = ("repro.service", "repro.profdb", "repro.metrics")


def public_modules():
    found = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        found.append(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            if not info.name.startswith("_"):
                found.append("%s.%s" % (package_name, info.name))
    return found


def _own_members(owner, module_name):
    """(name, member) pairs defined here — not imported, not dunder."""
    for name, member in vars(owner).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(member) or inspect.isfunction(member):
            if getattr(member, "__module__", None) == module_name:
                yield name, member


@pytest.mark.parametrize("module_name", public_modules())
def test_module_and_members_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    if not inspect.getdoc(module):
        missing.append(module_name)
    for name, member in _own_members(module, module_name):
        if not inspect.getdoc(member):
            missing.append("%s.%s" % (module_name, name))
        if inspect.isclass(member):
            for attr, value in vars(member).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if not (inspect.isfunction(value)
                        or isinstance(value, (staticmethod,
                                              classmethod, property))):
                    continue
                target = (value.__func__
                          if isinstance(value, (staticmethod,
                                                classmethod))
                          else value.fget
                          if isinstance(value, property) else value)
                if attr == "__init__":
                    # an undocumented __init__ is fine when the class
                    # docstring carries the construction contract
                    continue
                if target is not None and not inspect.getdoc(target):
                    missing.append("%s.%s.%s"
                                   % (module_name, name, attr))
    assert not missing, ("public names without docstrings:\n  "
                         + "\n  ".join(missing))
