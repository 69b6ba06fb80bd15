"""Exception types shared across the package.

Every error that a caller is expected to catch derives from HoloError,
and the class alone decides the CLI's exit status: SceneError and
DimensionMismatch are malformed input (exit 1); every other HoloError,
NonFinite included, is a well-posed request whose mathematics fails
(exit 2, with an {"error": ...} document on stdout). New error types
belong here rather than as bare ValueErrors from the numeric modules.

Overflow has one policy: numeric work runs under `quiet()`, and a value
that must be finite passes `refuse_non_finite`, which names it and where.
"""

import operator

import numpy as np


class HoloError(Exception):
    """Base class for all hologroup domain errors."""


class DimensionMismatch(HoloError):
    """Vector, word, or domain dimensions disagree."""


class SingularPoint(HoloError):
    """A coordinate inversion received the value 0."""


class NonInvertibleStep(HoloError):
    """A generator step is singular (zero diagonal entry, singular matrix)."""


class NotUnimodular(HoloError):
    """An integer exponent matrix has determinant other than +1 or -1."""

    def __init__(self, det: int):
        super().__init__(f"determinant is {det}, expected +1 or -1")
        self.det = det


class NotDiagonal(HoloError):
    """Diagonal extraction failed its consistency check at the point it names."""

    def __init__(self, message: str, point):
        super().__init__(f"{message} at p {point}")
        self.point = point


class InvalidAxis(HoloError):
    """Contour axis is not one of the domain's deleted coordinates."""


class OutsideDomain(HoloError):
    """A point that must lie in the domain does not."""


class ZeroOnContour(HoloError):
    """The tracked coordinate function vanishes on the contour."""


class BudgetExhausted(HoloError):
    """A computation would exceed its work budget: adaptive refinement ran
    out of samples without converging, or a requested time grid has more
    points than allowed."""


class OutOfRange(HoloError):
    """A numeric argument lies outside its allowed range: a path parameter
    t outside [0, 1], a time step or grid size, or a sampling radius that
    is negative or not finite."""


class NonFinite(HoloError):
    """A value that must be finite is NaN or infinite: a parsed input, a
    computed result, or an intermediate such as a determinant that
    overflowed."""


class DomainNotPreserved(HoloError):
    """Operation requires a word that maps the domain into itself."""


class SceneError(HoloError):
    """A scene file is malformed (schema, names, or dimensions)."""


def quiet() -> np.errstate:
    """A fresh error state that computes overflow, 0 * inf and division by
    zero as inf or NaN, without a warning; fresh, since numpy refuses to
    re-enter an errstate object, and the word pass nests inside others."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def refuse_non_finite(values: np.ndarray, what: str, place):
    """`values`, unless a row of them (one number of a 1-d array) is NaN
    or infinite: then NonFinite "`what` is V at `place(i)`, which is not
    finite" names the first such row i and its value V."""
    finite = np.isfinite(values)
    if not np.logical_and.reduce(finite, axis=None):
        i = int(np.flatnonzero(~finite.reshape(len(values), -1).all(axis=1))[0])
        raise NonFinite(f"{what} is {values[i]} at {place(i)}, which is not finite")
    return values


def integer(v, what: str) -> int:
    """`v` as an int; ValueError "`what` must be an integer, got V" for a
    float (even 2.0) or any other value that is not an integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None
