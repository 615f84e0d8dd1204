"""Documentation contract: every public item carries a docstring.

"Public" = importable module under ``repro`` plus every class, function
and method not prefixed with an underscore defined in those modules.
"""

import importlib
import inspect
import pkgutil

import repro

SKIP_MEMBER_NAMES = {"__init__"}


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield importlib.import_module(info.name)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if not defined_here:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for m_name, member in vars(obj).items():
                    if m_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(
                            member, property):
                        yield (f"{module.__name__}.{name}.{m_name}",
                               member)


def test_every_module_has_docstring():
    missing = [m.__name__ for m in _iter_modules() if not m.__doc__]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_item_has_docstring():
    missing = []
    for module in _iter_modules():
        for qualname, obj in _public_members(module):
            target = obj.fget if isinstance(obj, property) else obj
            if not inspect.getdoc(target):
                missing.append(qualname)
    assert not missing, \
        f"{len(missing)} public items without docstrings: {missing[:20]}"
