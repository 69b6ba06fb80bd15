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
All step and word values are immutable, and every operation is pure:
only `apply_batch` writes, into memory that the pass calling it owns.
So a step keeps what it derives, computed on first use: an overshear its
term tables and their kernel plan, a permutation its sources, a diagonal
its multipliers, each step its `inverse` steps, and a word its pass's
`work_rows`. Every caller may share them, as none of them is written; a
refused inverse is not kept, and is refused again on every call.

Every step has one evaluation method, `apply_batch(cur, work, jac)`.
`cur` is a column-major (P, n) batch, in which each coordinate is one
contiguous column; the step overwrites it with its image and returns its
Jacobian determinant (an array or a scalar) when `jac` is true, else
None. numpy works on a contiguous column several times faster than on a
strided one, and every step reads or writes whole coordinates. `work` is
a C-ordered (step.work_rows, P) scratch array that the step may
overwrite; a determinant the step returns may live in it, until the next
step. An Inversion that meets a zero coordinate raises SingularPoint.

`_word_pass` owns the memory of one pass: it copies its input once into
the column-major array it returns, sizes one `work` array for the
largest need among the steps, and hands both to every step in turn.
Diagonal and Inversion work on `cur` in place and need no scratch. Of
the steps only Inversion allocates arrays of P values, for its
determinant when `jac`, so a wide pass reuses the same pages from step
to step instead of faulting in new ones. Each pass returns new arrays that
share no memory with its input, with an earlier result or with any
buffer a later pass writes; nothing outlives the call. Overflow, 0 * inf
and division by zero inside the pass give inf or NaN without a warning;
callers that refuse them check the values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Union

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NonFinite, NonInvertibleStep, SingularPoint, integer, quiet
from .polynomials import Poly

# Linear steps must have |det| above this after scaling rows to unit norm.
TAU_DET = 1e-12


def _as_batch(pts) -> np.ndarray:
    """A new column-major (P, n) complex copy of pts."""
    pts = np.array(pts, dtype=np.complex128, order="F")
    if pts.ndim != 2:
        raise ValueError(f"expected a (P, n) batch of points, got shape {pts.shape}")
    return pts


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
        if not 1 <= integer(self.axis, "an axis") <= self.f.n_vars:
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

    @cached_property
    def _plan(self) -> tuple:
        return _kernels.build_plan(self._tables[0])

    @cached_property
    def work_rows(self) -> int:
        """f and g, then the kernel's slots and temporary, the first of which
        then takes exp(g) * z_axis."""
        return 3 + self._plan[2]

    def apply_batch(self, cur: np.ndarray, work: np.ndarray, jac: bool):
        _kernels.poly_eval(*self._tables, cur, out=work[:2], work=work[2:], plan=self._plan)
        fv, gv, z = work[0], work[1], cur[:, self.axis - 1]
        if self.g.is_zero:
            # kept for speed: every overshear with f and g inverts through such a step.
            # exp(0) = 1; fv is never -0.0, so fv + z rounds as fv + 1 * z. A
            # complex add rounds each part once, so writing over z keeps its bits
            np.add(fv, z, out=z)
            return 1.0 if jac else None
        hv = np.exp(gv, out=gv)
        np.add(fv, np.multiply(hv, z, out=work[2]), out=z)
        return hv if jac else None

    @cached_property
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
        perm = tuple(integer(p, "a permutation entry") for p in self.perm)
        object.__setattr__(self, "perm", perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{len(perm)}")

    @property
    def dim(self) -> Optional[int]:
        return len(self.perm)

    @cached_property
    def sign(self) -> int:
        """-1 to the number of inversions, the pairs that perm puts out of order."""
        return (-1) ** sum(a > b for a, b in combinations(self.perm, 2))

    work_rows = dim  # the image, one row per coordinate

    @cached_property
    def _sources(self) -> list:
        """The 0-based coordinate that moves to each slot."""
        return np.argsort(self.perm).tolist()

    def apply_batch(self, cur: np.ndarray, work: np.ndarray, jac: bool):
        for j, source in enumerate(self._sources):
            work[j] = cur[:, source]
        cur[...] = work[:len(self.perm)].T
        return complex(self.sign) if jac else None

    @cached_property
    def inverse(self) -> tuple:
        return (Permutation(tuple(source + 1 for source in self._sources)),)


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

    work_rows = 0  # each coordinate is multiplied in place

    @cached_property
    def _multipliers(self) -> np.ndarray:
        lam = np.array(self.lam)
        lam.setflags(write=False)
        return lam

    def apply_batch(self, cur: np.ndarray, work: np.ndarray, jac: bool):
        np.multiply(cur, self._multipliers, out=cur)
        return complex(np.prod(self._multipliers)) if jac else None

    @cached_property
    def inverse(self) -> tuple:
        return (Diagonal(tuple(1.0 / v for v in self.lam)),)


def check_invertible(m: np.ndarray) -> None:
    """Raise NonInvertibleStep unless each (n, n) matrix in `m` (one, or a
    stack) has no zero row and |det| > TAU_DET with its rows scaled to unit
    norm.

    Each row is first divided by its largest |entry|, which leaves the
    row-normalised determinant as it is: the norm squares the entries,
    which on the raw rows overflow above about 1e154 and underflow to 0
    below about 1e-162. The parts are divided as reals, since complex
    division takes 1 / scale, which overflows at a subnormal scale. Only a
    non-finite entry then makes |det| NaN, and the caller refuses it where
    it can name its place: `Linear` first, a transposition path by time."""
    scales = np.maximum.reduce(np.abs(m), axis=-1)[..., None]
    if not scales.all():
        raise NonInvertibleStep("linear step has a zero row")
    rows = (np.ascontiguousarray(m).view(np.float64) / scales).view(np.complex128)
    # np.linalg.norm(rows, axis=-1), with the same operations and bits,
    # without its dispatch, which costs more than the arithmetic on a 2x2
    rows /= np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=-1))[..., None]
    if (np.abs(np.linalg.det(rows)) <= TAU_DET).any():
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
        with quiet():
            check_invertible(m)
            object.__setattr__(self, "_det", complex(np.linalg.det(m)))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        return isinstance(other, Linear) and np.array_equal(self.matrix, other.matrix)

    @property
    def dim(self) -> Optional[int]:
        return self.matrix.shape[0]

    work_rows = dim  # the image, one row per coordinate

    def apply_batch(self, cur: np.ndarray, work: np.ndarray, jac: bool):
        # the product rounds as `cur @ A.T` does only when it is written
        # row-major, so it goes to `work` as a (P, n) array and is copied back
        image = work[:cur.shape[1]].reshape(cur.shape)
        np.matmul(cur, self.matrix.T, out=image)
        cur[...] = image
        return self._det if jac else None

    @cached_property
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
        if integer(self.axis, "an axis") < 1:
            raise ValueError("axis must be a positive coordinate index")

    work_rows = 0  # the column is divided in place

    @property
    def dim(self) -> Optional[int]:
        return None  # compatible with any n >= axis

    def apply_batch(self, cur: np.ndarray, work: np.ndarray, jac: bool):
        col = cur[:, self.axis - 1]
        if not np.logical_and.reduce(col):
            raise SingularPoint(f"inversion of coordinate {self.axis} at value 0")
        det = -1.0 / col ** 2 if jac else None
        np.divide(1.0, col, out=col)
        return det

    @property
    def inverse(self) -> tuple:
        return (self,)


GeneratorStep = Union[Overshear, Permutation, Diagonal, Linear, Inversion]


def monomial(step) -> Optional[tuple]:
    """(lam, src, inverted) when the step is z -> (lam_i * z_src[i] ** e_i)_i,
    e_i being -1 on the 0-based slots in the tuple `inverted`, else 1; None
    for any other step. lam is None when every multiplier is 1, src None for
    the identity: `Inversion(a)` is (None, None, (a - 1,))."""
    if isinstance(step, Diagonal):
        return step._multipliers, None, ()
    if isinstance(step, Permutation):
        return None, step._sources, ()
    if isinstance(step, Inversion):
        return None, None, (step.axis - 1,)
    if isinstance(step, Linear) and np.all(np.count_nonzero(step.matrix, axis=1) == 1):
        src = np.argmax(step.matrix != 0, axis=1)
        return step.matrix[np.arange(len(src)), src], src.tolist(), ()
    if isinstance(step, Overshear) and step.f.is_zero and set(step.g.terms) <= {(0,) * step.dim}:
        lam = np.ones(step.dim, dtype=np.complex128)
        lam[step.axis - 1] = np.exp(step.g.constant_term)
        return lam, None, ()
    return None


@dataclass(frozen=True)
class Word:
    """An automorphism word: dimension n plus an ordered tuple of steps."""

    n: int
    steps: tuple = ()

    def __post_init__(self):
        if integer(self.n, "a dimension") < 1:
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

    @cached_property
    def work_rows(self) -> int:
        return max([step.work_rows for step in self.steps], default=0)


def _check_point(word: Word, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (word.n,):
        raise DimensionMismatch(f"point has shape {z.shape}, word dimension is {word.n}")
    return z


def eval_word(word: Word, z) -> np.ndarray:
    """Image of the point z under the word (steps applied left to right)."""
    z = _check_point(word, z)
    return eval_word_batch(word, z.reshape(1, -1))[0]


def _word_pass(word: Word, pts, jac: bool = False):
    """The one evaluation pass: (images, det) on a (P, n) batch, with the
    images column-major and det the Jacobian determinant when `jac`, else
    None. The first inversion that meets zero raises SingularPoint. Every
    evaluation runs here: `eval_word_batch_masked` is a driver that hands
    this pass one step at a time and evaluates nothing itself.
    """
    images = _as_batch(pts)
    if images.shape[1] != word.n:
        raise DimensionMismatch(f"points have {images.shape[1]} coordinates, word has {word.n}")
    det = np.ones(images.shape[0], dtype=np.complex128) if jac else None
    if not word.steps:
        return images, det
    work = np.empty((word.work_rows, images.shape[0]), dtype=np.complex128)
    with quiet():
        for step in word.steps:
            d = step.apply_batch(images, work, jac)
            if jac:
                det *= d
    return images, det


def eval_word_batch(word: Word, pts) -> np.ndarray:
    """Vectorized evaluation on a (P, n) batch; raises on singular points."""
    return _word_pass(word, pts)[0]


def eval_word_batch_masked(word: Word, pts) -> tuple[np.ndarray, np.ndarray]:
    """Like eval_word_batch but flags singular points instead of raising.

    Returns (images, valid) where invalid rows hold NaN in the coordinate
    that hit an inversion at zero. This driver evaluates nothing itself: it
    hands `_word_pass` one step at a time, and before each inversion it
    marks the rows that are zero there invalid, writes NaN into that
    coordinate and passes on only the rows still valid. Invalid rows go
    through every other step, and a later inversion leaves them as they are.
    """
    images = _word_pass(Word(word.n), pts)[0]
    valid = np.ones(images.shape[0], dtype=bool)
    for step in word.steps:
        rows = slice(None)
        if isinstance(step, Inversion):
            zero = images[:, step.axis - 1] == 0
            images[zero, step.axis - 1] = np.nan
            valid &= ~zero
            rows = valid
        images[rows] = _word_pass(Word(word.n, (step,)), images[rows])[0]
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
    return Word(word.n, tuple(s for step in reversed(word.steps) for s in step.inverse))


def jacobian_det(word: Word, z) -> complex:
    """Determinant of the complex Jacobian of the word at z (chain rule)."""
    z = _check_point(word, z)
    return complex(jacobian_det_batch(word, z.reshape(1, -1))[0])


def jacobian_det_batch(word: Word, pts) -> np.ndarray:
    """Jacobian determinants at a (P, n) batch of points."""
    return _word_pass(word, pts, jac=True)[1]
