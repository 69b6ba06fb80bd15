"""Automorphism words: explicit generators, evaluation, composition,
inversion, and Jacobian determinants.

A word is a finite ordered list of generator steps sharing a dimension
n; it represents the composite map obtained by applying the steps
left to right (the first listed step acts first). The empty word is the
identity. Generators:

    Overshear(axis, f, g)   z_axis -> f(z') + exp(g(z')) * z_axis
    Permutation(perm)       coordinate i moves to slot perm[i-1]
    Diagonal(lam)           z_j -> lam_j * z_j
    Linear(matrix)          z -> A z
    Inversion(axis)         z_axis -> 1 / z_axis

f and g are polynomials that must not involve the overshear axis, so
the multiplier exp(g) is entire and nowhere zero by construction.
All step and word values are immutable; every operation is pure.

Every step has one evaluation method, `apply_batch(cur, jac, valid)`.
It takes a column-major (P, n) batch, in which each coordinate is one
contiguous column, and returns the image as a new column-major array,
plus the step's Jacobian determinant (an array or a scalar) when `jac`
is true, else None. numpy works on a contiguous column several times
faster than on a strided one, and every step reads or writes whole
coordinates. `valid` matters only to Inversion: when it is None a zero
coordinate raises SingularPoint, otherwise the singular rows get NaN
and are cleared in `valid`. `_word_pass` puts its input in that layout
once and chains the steps. Overflow, 0 * inf and division by zero
inside the pass give inf or NaN without a warning; callers that refuse
them check the values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NonFinite, NonInvertibleStep, SingularPoint
from .polynomials import Poly

# Linear steps must have |det| above this after scaling rows to unit norm.
TAU_DET = 1e-12


def _as_batch(pts) -> np.ndarray:
    """pts as a column-major (P, n) complex batch, copied only if it is not one."""
    pts = np.asarray(pts, dtype=np.complex128)
    if pts.ndim != 2:
        raise ValueError(f"expected a (P, n) batch of points, got shape {pts.shape}")
    return np.asfortranarray(pts)


@dataclass(frozen=True)
class Overshear:
    """z_axis -> f(z') + exp(g(z')) * z_axis, other coordinates fixed.

    f and g are stored as polynomials in all n variables with zero
    exponent on the axis variable, which the constructor enforces.
    """

    axis: int
    f: Poly
    g: Poly

    def __post_init__(self):
        if self.f.n_vars != self.g.n_vars:
            raise DimensionMismatch(
                f"f has {self.f.n_vars} variables, g has {self.g.n_vars}")
        if not 1 <= self.axis <= self.f.n_vars:
            raise ValueError(f"axis {self.axis} out of range 1..{self.f.n_vars}")
        if self.f.references(self.axis) or self.g.references(self.axis):
            raise ValueError(f"overshear data may not involve variable {self.axis}")

    @property
    def dim(self) -> Optional[int]:
        return self.f.n_vars

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The union exponent table of f and g, and their coefficients as
        its two columns (zero where one of them lacks the term)."""
        union = sorted(self.f.terms.keys() | self.g.terms.keys())
        exps = np.array(union, dtype=np.int64).reshape(len(union), self.f.n_vars)
        coeffs = np.array([(self.f.terms.get(e, 0), self.g.terms.get(e, 0)) for e in union],
                          dtype=np.complex128).reshape(len(union), 2)
        return exps, coeffs

    def apply_batch(self, cur: np.ndarray, jac: bool, valid: Optional[np.ndarray]):
        a = self.axis - 1
        fv, gv = _kernels.poly_eval(*self._tables, cur)
        out = cur.copy(order="K")
        if self.g.is_zero:
            # exp(0) = 1; fv is never -0.0, so fv + z rounds as fv + 1 * z
            out[:, a] = fv + cur[:, a]
            return out, (1.0 if jac else None)
        hv = np.exp(gv)
        out[:, a] = fv + hv * cur[:, a]
        return out, (hv if jac else None)

    def inverse(self) -> tuple:
        # (y - f) * exp(-g) is not overshear-shaped in one step unless
        # f or g vanishes, so split into a translation and a scaling.
        if self.g.is_zero:
            return (Overshear(self.axis, -self.f, self.g),)
        if self.f.is_zero:
            return (Overshear(self.axis, self.f, -self.g),)
        zero = Poly.zero(self.f.n_vars)
        return (Overshear(self.axis, -self.f, zero),
                Overshear(self.axis, zero, -self.g))


@dataclass(frozen=True)
class Permutation:
    """Coordinate permutation; perm[i-1] is the 1-based image of i."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{len(perm)}")

    @property
    def dim(self) -> Optional[int]:
        return len(self.perm)

    @property
    def sign(self) -> int:
        seen = [False] * len(self.perm)
        sign = 1
        for i in range(len(self.perm)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.perm[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    @cached_property
    def _sources(self) -> np.ndarray:
        """The 0-based coordinate that moves to each slot."""
        return np.argsort(self.perm)

    def apply_batch(self, cur: np.ndarray, jac: bool, valid: Optional[np.ndarray]):
        return cur[:, self._sources], (complex(self.sign) if jac else None)

    def inverse(self) -> tuple:
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p - 1] = i + 1
        return (Permutation(tuple(inv)),)


@dataclass(frozen=True)
class Diagonal:
    """z_j -> lam_j * z_j with all lam_j nonzero."""

    lam: tuple

    def __post_init__(self):
        lam = tuple(complex(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        if not all(cmath.isfinite(v) for v in lam):
            raise NonFinite(f"diagonal entries must be finite, got {lam}")
        if any(v == 0 for v in lam):
            raise NonInvertibleStep("diagonal entries must be nonzero")

    @property
    def dim(self) -> Optional[int]:
        return len(self.lam)

    def apply_batch(self, cur: np.ndarray, jac: bool, valid: Optional[np.ndarray]):
        det = complex(np.prod(np.array(self.lam))) if jac else None
        return cur * np.array(self.lam), det

    def inverse(self) -> tuple:
        return (Diagonal(tuple(1.0 / v for v in self.lam)),)


def check_invertible(m: np.ndarray) -> None:
    """Raise NonInvertibleStep unless each (n, n) matrix in `m` (one, or a
    stack) has no zero row and |det| > TAU_DET with its rows scaled to unit
    norm."""
    norms = np.linalg.norm(m, axis=-1)
    if (norms == 0).any():
        raise NonInvertibleStep("linear step has a zero row")
    if (np.abs(np.linalg.det(m / norms[..., None])) <= TAU_DET).any():
        raise NonInvertibleStep("linear step is singular to tolerance")


@dataclass(frozen=True, eq=False)
class Linear:
    """z -> A z for an invertible complex matrix A."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NonFinite("linear step has a non-finite entry")
        check_invertible(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_det", complex(np.linalg.det(m)))

    def __eq__(self, other):
        return isinstance(other, Linear) and np.array_equal(self.matrix, other.matrix)

    @property
    def dim(self) -> Optional[int]:
        return self.matrix.shape[0]

    def apply_batch(self, cur: np.ndarray, jac: bool, valid: Optional[np.ndarray]):
        return np.asfortranarray(cur @ self.matrix.T), (self._det if jac else None)

    def inverse(self) -> tuple:
        try:
            inv = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleStep(str(exc)) from exc
        return (Linear(inv),)


@dataclass(frozen=True)
class Inversion:
    """z_axis -> 1 / z_axis; undefined where the coordinate is zero."""

    axis: int

    def __post_init__(self):
        if self.axis < 1:
            raise ValueError("axis must be a positive coordinate index")

    @property
    def dim(self) -> Optional[int]:
        return None  # compatible with any n >= axis

    def apply_batch(self, cur: np.ndarray, jac: bool, valid: Optional[np.ndarray]):
        a = self.axis - 1
        col = cur[:, a]
        zero = col == 0
        # rows singular at an earlier step are not divided and keep their values
        skip = zero if valid is None else zero | ~valid
        singular = skip.any()
        if singular:
            if valid is None:
                raise SingularPoint(f"inversion of coordinate {self.axis} at value 0")
            valid &= ~zero
            col = np.where(skip, 1.0, col)
        out = cur.copy(order="K")
        out[:, a] = 1.0 / col
        if singular:
            out[skip, a] = np.where(zero, np.nan, cur[:, a])[skip]
        return out, (-1.0 / col ** 2 if jac else None)

    def inverse(self) -> tuple:
        return (self,)


GeneratorStep = Union[Overshear, Permutation, Diagonal, Linear, Inversion]


@dataclass(frozen=True)
class Word:
    """An automorphism word: dimension n plus an ordered tuple of steps."""

    n: int
    steps: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be a positive integer")
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        for step in steps:
            d = step.dim
            if d is not None and d != self.n:
                raise DimensionMismatch(
                    f"step {type(step).__name__} has dimension {d}, word has {self.n}")
            if isinstance(step, Inversion) and step.axis > self.n:
                raise DimensionMismatch(
                    f"inversion axis {step.axis} exceeds dimension {self.n}")

    @staticmethod
    def identity(n: int) -> "Word":
        return Word(n, ())

    def __call__(self, z):
        return eval_word(self, z)


def _check_point(word: Word, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (word.n,):
        raise DimensionMismatch(f"point has shape {z.shape}, word dimension is {word.n}")
    return z


def eval_word(word: Word, z) -> np.ndarray:
    """Image of the point z under the word (steps applied left to right)."""
    z = _check_point(word, z)
    return eval_word_batch(word, z.reshape(1, -1))[0]


def _word_pass(word: Word, pts, jac: bool = False, masked: bool = False):
    """The one evaluation pass: (images, det, valid) on a (P, n) batch,
    with the images column-major.

    det is the Jacobian determinant when `jac`, valid the mask of rows
    that met no singular inversion when `masked`; each is None otherwise.
    Without `masked` the first inversion that meets zero raises. Images
    and det are meaningful only on valid rows.
    """
    cur = _as_batch(pts)
    if cur.shape[1] != word.n:
        raise DimensionMismatch(f"points have {cur.shape[1]} coordinates, word has {word.n}")
    det = np.ones(cur.shape[0], dtype=np.complex128) if jac else None
    valid = np.ones(cur.shape[0], dtype=bool) if masked else None
    if not word.steps:
        cur = cur.copy(order="F")  # steps return new arrays; the identity must too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in word.steps:
            cur, d = step.apply_batch(cur, jac, valid)
            if jac:
                det *= d
    return cur, det, valid


def eval_word_batch(word: Word, pts) -> np.ndarray:
    """Vectorized evaluation on a (P, n) batch; raises on singular points."""
    return _word_pass(word, pts)[0]


def eval_word_batch_masked(word: Word, pts) -> tuple[np.ndarray, np.ndarray]:
    """Like eval_word_batch but flags singular points instead of raising.

    Returns (images, valid) where invalid rows hold NaN in the
    coordinate that hit an inversion at zero.
    """
    images, _, valid = _word_pass(word, pts, masked=True)
    return images, valid


def compose(a: Word, b: Word) -> Word:
    """The word evaluating as z -> b(a(z)): concatenation of step lists."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compose words of dimensions {a.n} and {b.n}")
    return Word(a.n, a.steps + b.steps)


def invert_word(word: Word) -> Word:
    """Reverse the steps and invert each one.

    An overshear with both f and g nonzero inverts to two overshear
    steps (subtract f, then scale by exp(-g)); every other generator
    inverts to a single step.
    """
    inv_steps = []
    for step in reversed(word.steps):
        inv_steps.extend(step.inverse())
    return Word(word.n, tuple(inv_steps))


def jacobian_det(word: Word, z) -> complex:
    """Determinant of the complex Jacobian of the word at z (chain rule)."""
    z = _check_point(word, z)
    return complex(jacobian_det_batch(word, z.reshape(1, -1))[0])


def jacobian_det_batch(word: Word, pts) -> np.ndarray:
    """Jacobian determinants at a (P, n) batch of points."""
    return _word_pass(word, pts, jac=True)[1]
