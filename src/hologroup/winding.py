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
that refuses to shrink under bisection) is detected and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import HyperplaneComplement, contains
from .errors import (BudgetExhausted, DimensionMismatch, InvalidAxis, NonFinite,
                     OutOfRange, OutsideDomain, ZeroOnContour)
from .words import Word, eval_word_batch

INITIAL_SAMPLES = 64
MAX_SAMPLES = 2 ** 20
ZERO_TOL = 1e-13
# bisect any interval whose argument increment reaches a quarter turn
REFINE_ANGLE = np.pi / 2
_NOT_FINITE = "the accumulated winding is {}: the output coordinate is not finite on the contour"


@dataclass(frozen=True)
class ContourSpec:
    """Circle of radius R in the axis coordinate, others frozen at p."""

    domain: HyperplaneComplement
    axis: int
    p: tuple
    R: float

    @property
    def base(self) -> np.ndarray:
        return np.array(self.p, dtype=np.complex128)


@dataclass(frozen=True)
class IndexResult:
    index: int
    raw: float
    samples_used: int


def make_contour(d, axis: int, p, R: float) -> ContourSpec:
    if not isinstance(d, HyperplaneComplement):
        raise InvalidAxis("contours are defined on hyperplane complements only")
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
    return ContourSpec(d, int(axis), tuple(complex(c) for c in p), float(R))


def contour_points(c: ContourSpec, thetas: np.ndarray) -> np.ndarray:
    # column-major, as the word pass takes it
    pts = np.broadcast_to(c.base, (len(thetas), c.domain.n)).copy(order="F")
    pts[:, c.axis - 1] = c.R * np.exp(1j * np.asarray(thetas, dtype=np.float64))
    return pts


def _profile(w: Word, c: ContourSpec, thetas: np.ndarray) -> np.ndarray:
    values = eval_word_batch(w, contour_points(c, thetas))[:, c.axis - 1]
    moduli = np.abs(values)
    # NaN or inf, refused before the increments divide it
    if not moduli.max() < np.inf:
        raise NonFinite(_NOT_FINITE.format(np.nan))
    if moduli.min() < ZERO_TOL:
        raise ZeroOnContour(
            "output coordinate vanishes on the contour; "
            "the word is not an automorphism of this domain")
    return values


def winding_index(w: Word, c: ContourSpec) -> IndexResult:
    """Winding number of the restricted output coordinate around 0.

    Starts from 64 uniform angle samples (the 2*pi knot reuses the
    first value, closing the loop exactly) and bisects every interval
    whose argument increment reaches pi/2, so each increment determines
    the continuous argument branch unambiguously, up to MAX_SAMPLES
    samples in all (then BudgetExhausted). The accumulated increments
    divided by 2*pi round to the reported integer. A non-finite sample
    (the word overflowed on the contour) or sum raises NonFinite.
    """
    if w.n != c.domain.n:
        raise DimensionMismatch(f"word dimension {w.n} != contour dimension {c.domain.n}")
    thetas = np.linspace(0.0, 2.0 * np.pi, INITIAL_SAMPLES + 1)
    values = np.empty(INITIAL_SAMPLES + 1, dtype=np.complex128)
    values[:-1] = _profile(w, c, thetas[:-1])
    values[-1] = values[0]
    used = INITIAL_SAMPLES
    while True:
        increments = np.angle(values[1:] / values[:-1])
        coarse = np.flatnonzero(np.abs(increments) >= REFINE_ANGLE)
        if coarse.size == 0:
            break
        if used + coarse.size > MAX_SAMPLES:
            raise BudgetExhausted(
                f"argument tracking did not converge within {MAX_SAMPLES} samples")
        mids = 0.5 * (thetas[coarse] + thetas[coarse + 1])
        thetas = np.insert(thetas, coarse + 1, mids)
        values = np.insert(values, coarse + 1, _profile(w, c, mids))
        used += coarse.size
    raw = float(np.sum(increments) / (2.0 * np.pi))
    if not math.isfinite(raw):
        raise NonFinite(_NOT_FINITE.format(raw))
    return IndexResult(index=int(round(raw)), raw=raw, samples_used=used)


def in_negative_component(w: Word, c: ContourSpec) -> bool:
    """Membership in the component class with reversed winding."""
    return winding_index(w, c).index < 0
