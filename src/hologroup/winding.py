"""Connected-component invariant: winding numbers along coordinate circles.

Freeze every coordinate of a base point except one deleted axis s, run
that coordinate around the circle of radius R about 0, and count how
many times the s-th output coordinate of a word winds around 0. The
count is an integer on every automorphism of the domain and separates
components: orientation-preserving generators give +1, one inversion
gives -1.

The integer is computed by continuous argument tracking. Quadrature of
the logarithmic derivative would need a numerical derivative; tracking
needs only function values, and its one failure mode (an argument jump
that refuses to shrink under bisection) is detected and reported. The
tracking runs under `errors.quiet()`; a sample, or a quotient of two
consecutive samples, that is not finite (the word overflowed on the
contour) is refused with NonFinite, naming its theta, before an angle
is taken of it.

The start samples are fixed module arrays: the INITIAL_SAMPLES + 1
angles (with the closing 2*pi knot) and their points on the unit
circle, computed once at import as `np.linspace` and `np.exp` compute
them, and read-only, since every call shares them. The tracker calls
the ufuncs that `np.angle`, `np.sum`, `np.flatnonzero` and `.min()` are
defined as, with the same bits and without their Python-level set-up,
which on 64 samples costs about as much as the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import HyperplaneComplement, contains
from .errors import (BudgetExhausted, DimensionMismatch, InvalidAxis, NonFinite,
                     OutOfRange, OutsideDomain, ZeroOnContour, integer, quiet,
                     refuse_non_finite)
from .words import Word, eval_word_batch

INITIAL_SAMPLES = 64
MAX_SAMPLES = 2 ** 20
ZERO_TOL = 1e-13
# bisect any interval whose argument increment reaches a quarter turn
REFINE_ANGLE = np.pi / 2
START_THETAS = np.linspace(0.0, 2.0 * np.pi, INITIAL_SAMPLES + 1)
START_CIRCLE = np.exp(1j * START_THETAS[:-1])
START_THETAS.setflags(write=False)
START_CIRCLE.setflags(write=False)


@dataclass(frozen=True)
class ContourSpec:
    """Circle of radius R in the axis coordinate, others frozen at p."""

    domain: HyperplaneComplement
    axis: int
    p: tuple
    R: float


@dataclass(frozen=True)
class IndexResult:
    index: int
    raw: float
    samples_used: int


def make_contour(d, axis: int, p, R: float) -> ContourSpec:
    if not isinstance(d, HyperplaneComplement):
        raise InvalidAxis("contours are defined on hyperplane complements only")
    axis = integer(axis, "a contour axis")
    if axis not in d.deleted:
        raise InvalidAxis(f"axis {axis} is not a deleted axis of the domain")
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (d.n,):
        raise DimensionMismatch(f"base point has shape {p.shape}, domain dimension is {d.n}")
    if not (np.isfinite(p).all() and math.isfinite(R)):
        raise NonFinite(f"contour base point and radius must be finite, got {p} and {R}")
    if not contains(d, p):
        raise OutsideDomain("contour base point lies on a deleted hyperplane")
    if not R > 0:
        raise OutOfRange(f"contour radius must be positive, got {R}")
    return ContourSpec(d, axis, tuple(complex(c) for c in p), float(R))


def _points(c: ContourSpec, circle: np.ndarray) -> np.ndarray:
    """The contour points at the unit-circle points `circle`, column-major,
    as the word pass takes them."""
    pts = np.empty((len(circle), c.domain.n), dtype=np.complex128, order="F")
    pts[...] = c.p
    pts[:, c.axis - 1] = c.R * circle
    return pts


def _profile(w: Word, c: ContourSpec, thetas: np.ndarray, circle: np.ndarray) -> np.ndarray:
    values = eval_word_batch(w, _points(c, circle))[:, c.axis - 1]
    refuse_non_finite(values, "the output coordinate", lambda i: f"theta {thetas[i]}")
    if np.minimum.reduce(np.abs(values)) < ZERO_TOL:
        raise ZeroOnContour(
            "output coordinate vanishes on the contour; "
            "the word is not an automorphism of this domain")
    return values


def _insert_after(a: np.ndarray, coarse: np.ndarray, new: np.ndarray) -> np.ndarray:
    """np.insert(a, coarse + 1, new) for increasing `coarse`, without its
    per-call set-up, which costs more than the copy."""
    slots = coarse + np.arange(1, coarse.size + 1)
    out = np.empty(a.size + coarse.size, dtype=a.dtype)
    kept = np.ones(out.size, dtype=bool)
    kept[slots] = False
    out[kept] = a
    out[slots] = new
    return out


def winding_index(w: Word, c: ContourSpec) -> IndexResult:
    """Winding number of the restricted output coordinate around 0.

    Starts from 64 uniform angle samples (the 2*pi knot reuses the
    first value, closing the loop exactly) and bisects every interval
    whose argument increment reaches pi/2, so each increment determines
    the continuous argument branch unambiguously, up to MAX_SAMPLES
    samples in all (then BudgetExhausted). The accumulated increments
    divided by 2*pi round to the reported integer. A non-finite sample,
    or quotient of consecutive samples, raises NonFinite (module docstring).
    """
    if w.n != c.domain.n:
        raise DimensionMismatch(f"word dimension {w.n} != contour dimension {c.domain.n}")
    thetas = START_THETAS
    values = np.empty(INITIAL_SAMPLES + 1, dtype=np.complex128)
    with quiet():
        values[:-1] = _profile(w, c, thetas[:-1], START_CIRCLE)
        values[-1] = values[0]
        while True:
            quotients = refuse_non_finite(
                values[1:] / values[:-1], "the quotient of the output coordinate by "
                "its previous sample", lambda i: f"theta {thetas[i + 1]}")
            increments = np.arctan2(quotients.imag, quotients.real)
            coarse = (np.abs(increments) >= REFINE_ANGLE).nonzero()[0]
            if coarse.size == 0:
                break
            if thetas.size - 1 + coarse.size > MAX_SAMPLES:
                raise BudgetExhausted(
                    f"argument tracking did not converge within {MAX_SAMPLES} samples")
            mids = 0.5 * (thetas[coarse] + thetas[coarse + 1])
            new = _profile(w, c, mids, np.exp(1j * mids))
            thetas, values = _insert_after(thetas, coarse, mids), _insert_after(values, coarse, new)
    raw = float(np.add.reduce(increments) / (2.0 * np.pi))
    return IndexResult(index=int(round(raw)), raw=raw, samples_used=thetas.size - 1)


def in_negative_component(w: Word, c: ContourSpec) -> bool:
    """Membership in the component class with reversed winding."""
    return winding_index(w, c).index < 0
