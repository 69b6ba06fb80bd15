"""JSON schemas for every value the CLI reads or writes.

Complex numbers travel as [re, im] pairs, polynomials as lists of
{"exponents": [...], "re": x, "im": y} terms, generator steps as tagged
unions on a "type" field, and a scene file groups named words,
contours, paths, and exponent matrices around one optional domain.

Output goes through `dumps`, the one place where a value becomes JSON.
Its encoder owns the output formats: every float has 17 significant
digits, so identical inputs yield byte-identical output (the stdlib
encoder's float formatting is not pinned down, which would make golden
tests flaky), and a non-finite float raises NonFinite; a complex number
becomes [re, im]; a numpy array becomes nested lists; a dataclass
instance (a verdict or report) becomes an object of its fields in
declaration order.

Parsing failures raise SceneError with a message naming the offending
field, a constructor's complaint about the parsed values included
(`_scene_errors`); mathematical validity of exponent matrices is
deliberately not checked here, so that the unimodularity verdict stays
an operation result rather than a file-loading side effect. The numbers
that size the work are bounded here, at the scene boundary: a word,
domain, path or exponent matrix has at most MAX_DIMENSION coordinates,
a polynomial term a total degree of at most MAX_DEGREE, and an exponent
matrix entry a magnitude under MAX_EXPONENT_ENTRY. An exponent over
MAX_DEGREE, or a dimension or axis over MAX_DIMENSION, in magnitude is
refused by its limit alone, since its digits may run to thousands.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .domains import DomainSpec, FullSpace, HyperplaneComplement, Punctured
from .errors import HoloError, NonFinite, SceneError
from .homotopy import BumpFunction, HomotopyPath, OvershearPath, TranspositionPath
from .polynomials import Poly
from .words import Diagonal, Inversion, Linear, Overshear, Permutation, Word

# An exponent matrix's exact determinant costs n^3 big-integer steps; a
# term of total degree d costs d monomials per evaluation.
MAX_DIMENSION = 64
MAX_DEGREE = 1000
# with 63-bit entries a 64 x 64 determinant has at most about 1,272 digits,
# well within what Python will format as a decimal string (4,300 digits)
MAX_EXPONENT_ENTRY = 2 ** 63


# ---------------------------------------------------------------------------
# deterministic encoder

def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise NonFinite(f"cannot serialize non-finite float {x}")
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def dumps(obj) -> str:
    """Encode to compact JSON with pinned float formatting and stable key order."""
    pieces = []
    _encode(obj, pieces)
    return "".join(pieces)


def _encode(obj, out: list):
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, complex):
        _encode([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(("," if i else "") + json.dumps(key) + ":")
            _encode(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    elif is_dataclass(obj) and not isinstance(obj, type):
        _encode({f.name: getattr(obj, f.name) for f in fields(obj)}, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing helpers

@contextmanager
def _scene_errors(where: str):
    """Re-raise a constructor's ValueError, TypeError or HoloError as a
    SceneError naming `where`; a SceneError passes through unchanged."""
    try:
        yield
    except SceneError:
        raise
    except (HoloError, ValueError, TypeError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _want(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SceneError(f"{where}: missing field {key!r}")
    return obj[key]


def _want_list(obj, key: str, where: str) -> list:
    v = _want(obj, key, where)
    if not isinstance(v, list):
        raise SceneError(f"{where}: {key} must be a list")
    return v


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SceneError(f"{where}: expected an integer, got {v!r}")
    return v


def _as_bounded(v, where: str, what: str = "an axis", limit: int = MAX_DIMENSION) -> int:
    n = _as_int(v, where)
    if abs(n) > limit:
        raise SceneError(f"{where}: {what} has magnitude over the limit of {limit}")
    return n


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SceneError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise SceneError(f"{where}: a number has magnitude beyond the float range") from None


def parse_complex(v, where: str) -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise SceneError(f"{where}: expected [re, im], got {v!r}")
    return complex(_as_number(v[0], where), _as_number(v[1], where))


# ---------------------------------------------------------------------------
# polynomials and words

def poly_to_json(p: Poly) -> list:
    return [{"exponents": list(exps), "re": c.real, "im": c.imag} for exps, c in p]


def parse_poly(v, n_vars: int, where: str) -> Poly:
    if not isinstance(v, list):
        raise SceneError(f"{where}: expected a list of terms")
    terms = {}
    for t in v:
        key = tuple(_as_bounded(e, where, "an exponent", MAX_DEGREE)
                    for e in _want_list(t, "exponents", where))
        if sum(key) > MAX_DEGREE:
            raise SceneError(f"{where}: a term of total degree {sum(key)} is over "
                             f"the limit of {MAX_DEGREE}")
        coeff = complex(_as_number(_want(t, "re", where), where),
                        _as_number(_want(t, "im", where), where))
        terms[key] = terms.get(key, 0) + coeff
    with _scene_errors(where):
        return Poly(n_vars, terms)


def step_to_json(step) -> dict:
    if isinstance(step, Overshear):
        return {"type": "overshear", "axis": step.axis,
                "f": poly_to_json(step.f), "g": poly_to_json(step.g)}
    if isinstance(step, Permutation):
        return {"type": "permutation", "perm": list(step.perm)}
    if isinstance(step, Diagonal):
        return {"type": "diagonal", "lambda": step.lam}
    if isinstance(step, Linear):
        return {"type": "linear", "matrix": step.matrix}
    if isinstance(step, Inversion):
        return {"type": "inversion", "axis": step.axis}
    raise TypeError(f"unknown step {type(step).__name__}")


def parse_step(v, n: int, where: str):
    kind = _want(v, "type", where)
    with _scene_errors(where):
        if kind == "overshear":
            return Overshear(_as_bounded(_want(v, "axis", where), where),
                             parse_poly(_want(v, "f", where), n, where + ".f"),
                             parse_poly(_want(v, "g", where), n, where + ".g"))
        if kind == "permutation":
            return Permutation(tuple(_as_bounded(p, where, "a permutation entry")
                                     for p in _want_list(v, "perm", where)))
        if kind == "diagonal":
            return Diagonal(tuple(parse_complex(c, where) for c in _want_list(v, "lambda", where)))
        if kind == "linear":
            rows = _want(v, "matrix", where)
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise SceneError(f"{where}: matrix must be a list of rows")
            m = [[parse_complex(c, where) for c in row] for row in rows]
            return Linear(np.array(m, dtype=np.complex128))
        if kind == "inversion":
            return Inversion(_as_bounded(_want(v, "axis", where), where))
    raise SceneError(f"{where}: unknown step type {kind!r}")


def word_to_json(w: Word) -> dict:
    return {"n": w.n, "steps": [step_to_json(s) for s in w.steps]}


def parse_word(v, where: str) -> Word:
    n = _as_bounded(_want(v, "n", where), where, "a dimension")
    parsed = tuple(parse_step(s, n, f"{where}.steps[{i}]")
                   for i, s in enumerate(_want_list(v, "steps", where)))
    with _scene_errors(where):
        return Word(n, parsed)


# ---------------------------------------------------------------------------
# domains, contours, paths, matrices

def parse_domain(v, where: str) -> DomainSpec:
    kind = _want(v, "kind", where)
    n = _as_bounded(_want(v, "n", where), where, "a dimension")
    with _scene_errors(where):
        if kind == "full":
            return FullSpace(n)
        if kind == "punctured":
            return Punctured(n)
        if kind == "complement":
            return HyperplaneComplement(n, frozenset(_as_bounded(i, where)
                                                     for i in _want_list(v, "deleted", where)))
    raise SceneError(f"{where}: unknown domain kind {kind!r}")


@dataclass(frozen=True)
class RawContour:
    """Contour data before validation against the scene domain."""

    axis: int
    p: tuple
    R: float


def parse_contour(v, where: str) -> RawContour:
    axis = _as_bounded(_want(v, "axis", where), where)
    p = tuple(parse_complex(c, where + ".p") for c in _want_list(v, "p", where))
    R = _as_number(_want(v, "R", where), where + ".R")
    return RawContour(axis, p, R)


def parse_bump(v, where: str) -> BumpFunction:
    with _scene_errors(where):
        if v == "sin" or v is None:
            return BumpFunction("sin")
        if isinstance(v, dict) and "table" in v:
            return BumpFunction("table", tuple(_as_number(x, where)
                                               for x in _want_list(v, "table", where)))
    raise SceneError(f"{where}: bump must be \"sin\" or {{\"table\": [...]}}")


def parse_path(v, where: str) -> HomotopyPath:
    kind = _want(v, "type", where)
    n = _as_bounded(_want(v, "n", where), where, "a dimension")
    with _scene_errors(where):
        if kind == "overshear":
            return OvershearPath(parse_step(v, n, where), n)
        if kind == "transposition":
            return TranspositionPath(_as_bounded(_want(v, "j", where), where),
                                     _as_bounded(_want(v, "k", where), where),
                                     n, parse_bump(v.get("bump"), where + ".bump"))
    raise SceneError(f"{where}: unknown path type {kind!r}")


def parse_exponent_matrix(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise SceneError(f"{where}: expected an n x n integer matrix")
    n = _as_bounded(len(v), where, "a dimension")
    out = []
    for row in v:
        if not isinstance(row, list) or len(row) != n:
            raise SceneError(f"{where}: expected an n x n integer matrix")
        entries = [_as_int(x, where) for x in row]
        if any(abs(x) >= MAX_EXPONENT_ENTRY for x in entries):
            raise SceneError(f"{where}: an entry has magnitude 2^63 or more")
        out.append(entries)
    return out


# ---------------------------------------------------------------------------
# scene files

@dataclass(frozen=True)
class Scene:
    domain: Optional[DomainSpec]
    words: dict
    contours: dict
    paths: dict
    exponent_matrices: dict


def _named_section(v, where: str, parse_one):
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise SceneError(f"{where}: expected a name -> object map")
    return {name: parse_one(item, f"{where}.{name}") for name, item in v.items()}


def parse_scene(v) -> Scene:
    if not isinstance(v, dict):
        raise SceneError("scene: top level must be a JSON object")
    domain = None
    if v.get("domain") is not None:
        domain = parse_domain(v["domain"], "scene.domain")
    words = _named_section(v.get("words"), "scene.words", parse_word)
    contours = _named_section(v.get("contours"), "scene.contours", parse_contour)
    paths = _named_section(v.get("paths"), "scene.paths", parse_path)
    matrices = _named_section(v.get("exponent_matrices"), "scene.exponent_matrices",
                              parse_exponent_matrix)
    if contours and domain is None:
        raise SceneError("scene: contours require a domain")
    if domain is not None:
        for name, w in words.items():
            if w.n != domain.n:
                raise SceneError(
                    f"scene.words.{name}: dimension {w.n} != domain dimension {domain.n}")
        for name, c in contours.items():
            if len(c.p) != domain.n:
                raise SceneError(
                    f"scene.contours.{name}: base point has {len(c.p)} coordinates, "
                    f"domain dimension is {domain.n}")
        for name, p in paths.items():
            if p.n != domain.n:
                raise SceneError(
                    f"scene.paths.{name}: dimension {p.n} != domain dimension {domain.n}")
    return Scene(domain, words, contours, paths, matrices)


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SceneError(f"scene file {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the
        # decoder's recursion limit
        raise SceneError(f"scene file {path} cannot be decoded: {exc}") from exc
    return parse_scene(data)
