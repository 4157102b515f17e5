"""The number of options on the public API, the public names that only
their stated users call, and the one way into and out of the special
Hermite core, pinned.

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
                      "fieldio": 1, "transforms": 4}
    assert sum(counts.values()) == 28


SOURCE = pathlib.Path(importlib.import_module("metivier").__file__).parent

# The public functions and classes that no module of the package (outside
# their own definition) and no code in perfbench/ refers to, each with the
# user it serves; perfbench's docstrings and comments do not count.  A name
# that loses its last caller appears here, and needs a stated user or goes.
UNCALLED = {
    "hermite_h": "criterion 9: the Hermite functions of the special-function layer",
    "inner_product": "the grid L2 inner product of the orthonormality checks of Psi_{alpha,beta}",
    "matrix_coefficient": "the one-pair (f, Psi_{alpha,beta}) checked against grid quadrature",
    "read_spectrum": "reads the spectrum manifest that write_spectrum writes",
    "sample_periodic": "criterion 8: the centre-periodic input of the two-radii theorem",
    "twisted_mean": "the full-grid n = 1 twisted mean, checked against twisted_mean_at",
    "two_radii_reconstruct": "criterion 8: the two-radii theorem",
    "weighted_norm": "the tempered-growth weight of the paper's first result",
    "write_spectrum": "writes a HermiteCoefficients spectrum as one manifest.json",
    "write_structure": "writes the structure files that the command line's --structure reads",
}


def _code_names(tree):
    """The names, attributes, imported names and string constants of a
    module tree, leaving out its docstrings: perfbench's tracer names the
    functions it wraps as strings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.add(node.value)
    return names


def test_every_uncalled_public_name_has_a_stated_user():
    owners = {}  # name -> top-level definitions that refer to it
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None:
                    owners.setdefault(name, set()).add(owner)
    bench = set()
    for path in (SOURCE.parents[1] / "perfbench").glob("*.py"):
        bench |= _code_names(ast.parse(path.read_text()))
    package = importlib.import_module("metivier")
    uncalled = {name for name, obj in vars(package).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                and not owners.get(name, set()) - {name}
                and name not in bench}
    assert uncalled == set(UNCALLED)


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


def _n_branches(fn):
    """The comparisons of n (a name or an attribute) with integer literals
    in fn, and its references to UnsupportedDimension, as source text."""
    def is_n(node):
        return (isinstance(node, ast.Name) and node.id == "n"
                or isinstance(node, ast.Attribute) and node.attr == "n")

    def is_int(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_int(e) for e in node.elts)
        return isinstance(node, ast.Constant) and type(node.value) is int

    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_n, sides)) and any(map(is_int, sides)):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "UnsupportedDimension":
            found.append(node.id)
    return found


def test_the_sphere_rule_and_the_pointwise_mean_do_not_branch_on_n():
    # one construction for every n: no n == 1 / n == 2 cases, and no n that
    # the pointwise means refuse
    for module, name in (("grids", "build_sphere_rule"), ("transforms", "_mean_at")):
        tree = ast.parse((SOURCE / f"{module}.py").read_text())
        fn = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == name)
        assert _n_branches(fn) == [], f"{module}.{name}"
