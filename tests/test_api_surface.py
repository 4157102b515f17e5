"""The number of options on the public API, and the one way into and out of
the special Hermite core, pinned.

A defaulted parameter is an option a caller can set.  Counting them over the
public functions, methods and dataclass fields of the numerical modules makes
a new option show up as an edit to this test.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

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
    assert counts == {"grids": 3, "injectivity": 18, "structures": 2, "special": 0,
                      "fieldio": 1, "transforms": 5}
    assert sum(counts.values()) == 29


SOURCE = pathlib.Path(importlib.import_module("metivier").__file__).parent


def _callers(tree, name):
    """Names of the functions of a module tree that call `name`."""
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name}


def test_analysis_and_synthesis_have_one_entry_each():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}
    transforms = trees["transforms"]
    assert _callers(transforms, "_matrix_coefficients") == {"_analyse"}
    assert _callers(transforms, "_synthesize_values") == {"synthesize"}
    for module, tree in trees.items():
        if module != "transforms":
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not names & {"_matrix_coefficients", "_synthesize_values"}, module
    analysis = next(fn for fn in ast.walk(transforms)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_matrix_coefficients")
    assert "fhat" not in {arg.arg for arg in analysis.args.args + analysis.args.kwonlyargs}


def test_the_unchecked_field_constructor_has_one_caller():
    # SampledField._proven_finite skips the finiteness read, so only the
    # synthesis, which proves its values finite first, may call it
    callers = {(path.stem, fn.name) for path in SOURCE.glob("*.py")
               for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "_proven_finite"}
    assert callers == {("transforms", "synthesize")}
