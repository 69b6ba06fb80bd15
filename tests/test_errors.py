import ast
import os
import warnings

import numpy as np
import pytest

from hologroup import NonFinite
from hologroup.errors import quiet, refuse_non_finite

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hologroup")


def _calls(node, where, func, found):
    """Append (file, enclosing function) for each call to an `errstate`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Call) and "errstate" in ast.unparse(node.func):
        found.append((where, func))
    for child in ast.iter_child_nodes(node):
        _calls(child, where, func, found)


def test_errstate_is_entered_only_by_quiet():
    # one overflow policy: every numeric block runs under errors.quiet()
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                _calls(ast.parse(fh.read()), name, None, found)
    assert found == [("errors.py", "quiet")]


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
