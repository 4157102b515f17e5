"""The number of options on the public API, pinned.

A defaulted parameter is an option a caller can set.  Counting them over the
public functions, methods and dataclass fields of the numerical modules makes
a new option show up as an edit to this test.
"""

import dataclasses
import importlib
import inspect

MODULES = ("grids", "injectivity", "structures", "special", "fieldio", "transforms")


def _defaulted(fn):
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def _options(obj):
    """Defaulted parameters of a function, or of a class's public methods,
    __init__ and __call__; a dataclass counts each field default once, in
    place of its generated __init__."""
    if inspect.isfunction(obj):
        return _defaulted(obj)
    count = 0
    if dataclasses.is_dataclass(obj):
        count += sum(f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING
                     for f in dataclasses.fields(obj))
    for name, member in vars(obj).items():
        if not inspect.isfunction(member):
            continue
        if name == "__init__" and dataclasses.is_dataclass(obj):
            continue
        if not name.startswith("_") or name in ("__init__", "__call__"):
            count += _defaulted(member)
    return count


def test_defaulted_parameter_count():
    counts = {}
    for name in MODULES:
        module = importlib.import_module(f"metivier.{name}")
        counts[name] = sum(
            _options(obj) for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        )
    assert counts == {"grids": 5, "injectivity": 18, "structures": 2, "special": 0,
                      "fieldio": 1, "transforms": 5}
    assert sum(counts.values()) == 31
