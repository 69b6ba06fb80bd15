import ast
import importlib
import inspect
import os
import pkgutil
import re
import typing
import warnings

import numpy as np
import pytest

import hologroup
from hologroup import NonFinite
from hologroup.errors import quiet, refuse_non_finite
from hologroup.words import GeneratorStep

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, os.pardir, "src", "hologroup")


def _sources(*dirs):
    """(file name, parsed module) of each .py file in dirs."""
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    yield name, ast.parse(fh.read())


def _calls(node, callee, where, func, found):
    """Append (file, enclosing function) for each call whose callee's
    source contains `callee`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Call) and callee in ast.unparse(node.func):
        found.append((where, func))
    for child in ast.iter_child_nodes(node):
        _calls(child, callee, where, func, found)


def _callers(callee) -> list:
    found = []
    for name, tree in _sources(SRC):
        _calls(tree, callee, name, None, found)
    return found


def test_errstate_is_entered_only_by_quiet():
    # one overflow policy: every numeric block runs under errors.quiet()
    assert _callers("errstate") == [("errors.py", "quiet")]


def test_random_generators_are_made_only_by_the_sampled_checks():
    # only the sampled checks draw random points, each from a generator made
    # from its caller's seed; domain preservation draws none
    assert _callers("random") == [("homotopy.py", "_sample"),
                                  ("torus.py", "commutes_with_torus"),
                                  ("torus.py", "extract_diagonal")]


def test_every_step_applies_without_a_mask():
    # one mode per step: singular rows are the masked driver's business, so
    # no step takes a mask and the strict inversion alone raises SingularPoint
    for cls in typing.get_args(GeneratorStep):
        assert list(inspect.signature(cls.apply_batch).parameters) == \
            ["self", "cur", "work", "jac"], cls.__name__
    assert _callers("SingularPoint") == [("words.py", "apply_batch")]


def _isinstance_classes(tree) -> set:
    """The words in the class argument of each isinstance call."""
    return {word for call in ast.walk(tree) if isinstance(call, ast.Call)
            and ast.unparse(call.func) == "isinstance"
            for word in re.findall(r"\w+", ast.unparse(call.args[1]))}


def test_monomial_steps_are_told_apart_only_in_words():
    # which steps are monomial maps is stated once, by words.monomial, which
    # torus and domains read; only words and serialize test for the classes
    sources = dict(_sources(SRC))
    tested = {name: sorted(found) for name, tree in sources.items()
              if name not in ("words.py", "serialize.py")
              and (found := _isinstance_classes(tree) & {"Diagonal", "Permutation"})}
    assert tested == {}
    generators = {c.__name__ for c in typing.get_args(GeneratorStep)}
    imported = {a.asname or a.name for node in ast.walk(sources["torus.py"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & generators == set()


def test_no_function_cache_in_the_package():
    # what is derived from an object's data is kept on the object, as a
    # cached_property; a process-wide cache would be a second copy of it
    cached = [(name, ast.unparse(node)) for name, tree in _sources(SRC)
              for node in ast.walk(tree)
              if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and {a.name for a in node.names} & {"lru_cache", "cache"})
              or (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))]
    assert cached == []


def _unused_imports(tree) -> set:
    """Names a module imports but never reads; a name in `__all__` is read."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in map(ast.unparse, node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_read():
    unused = [(name, sorted(names)) for name, tree in _sources(SRC, TESTS)
              if (names := _unused_imports(tree))]
    assert unused == []


def test_package_exports_match_its_imports():
    # test_every_import_is_read counts an `__all__` entry as read, so a stale
    # or missing export would only show in `from hologroup import *`
    names = hologroup.__all__
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(hologroup, n)] == []
    assert sorted(imported - set(names)) == []


def test_no_module_array_is_writable():
    # a module-level array is shared by every call in the process, so a
    # caller that wrote to one would change every later verdict
    writable = []
    for info in pkgutil.iter_modules(hologroup.__path__):
        module = importlib.import_module(f"hologroup.{info.name}")
        for name, value in vars(module).items():
            members = value if isinstance(value, tuple) else (value,)
            if any(isinstance(a, np.ndarray) and a.flags.writeable for a in members):
                writable.append(f"{info.name}.{name}")
    assert writable == []


def test_quiet_is_fresh_so_it_nests():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with quiet():
            with quiet():
                assert np.isinf(np.exp(np.array(1000.0)))
            assert np.isnan(np.array(np.inf) * 0.0)
            assert np.isinf(np.array(1.0) / 0.0)
    assert quiet() is not quiet()


def test_refusal_names_the_first_row_that_is_not_finite():
    values = np.array([[1.0, 2.0], [3.0, np.inf], [np.nan, 0.0]])
    with pytest.raises(NonFinite, match=r"^x is \[ 3. inf\] at row 1, which is not finite$"):
        refuse_non_finite(values, "x", lambda i: f"row {i}")
    with pytest.raises(NonFinite, match=r"^y is nan at t = 0\.5, which is not finite$"):
        refuse_non_finite(np.array([0.0, np.nan]), "y", lambda i: f"t = {0.5 * i}")
    finite = np.arange(4.0)
    assert refuse_non_finite(finite, "z", None) is finite
