"""Torus rotations: exponent matrices and centralizer tests.

The standard torus acts by independent coordinate rotations
z_j -> e^{i theta_j} z_j. An integer matrix that twists the angles must
have determinant +1 or -1; `validate_exponent_matrix` decides that in
exact arithmetic, with fraction-free integer elimination, never floating
point.

`commutes_with_torus` and `extract_diagonal` are the two halves of the
dichotomy this package relies on: a word commutes with every torus
rotation exactly when it is a diagonal map, and in that case its
diagonal is recoverable from a single orbit ratio. A word is exactly
diagonal when every step is a coordinate permutation followed by a
diagonal map (a `Diagonal`, a `Permutation`, a `Linear` with one nonzero
entry per row, an `Overshear` with f = 0 and constant g) and the
permutations compose to the identity. Such a word is decided by proof:
it commutes, and its diagonal is the product of the steps' multipliers.
Every other word is sampled, quietly, as the word pass is: a deviation,
orbit ratio or probe shift that is not finite (the word overflowed) is
refused with NonFinite, since no comparison with NaN can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainNotPreserved, NonFinite, NotDiagonal,
                     NotUnimodular)
from .domains import DomainSpec, sample_points, word_preserves_domain
from .words import Diagonal, Linear, Overshear, Permutation, Word, eval_word_batch

COMMUTE_TOL = 1e-10
DIAG_RATIO_TOL = 1e-9
DIAG_DEPENDENCE_TOL = 1e-10
DIAG_PROBE_STEP = 1e-3


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination over Python integers: every
    intermediate division is exact, so there is no rounding anywhere.
    """
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("matrix must be nonempty")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def validate_exponent_matrix(a: Sequence[Sequence[int]]) -> int:
    """Return the exact integer determinant if it is +1 or -1."""
    det = integer_det(a)
    if det not in (1, -1):
        raise NotUnimodular(det)
    return det


@dataclass(frozen=True, eq=False)
class CentralizerWitness:
    theta: np.ndarray
    z: np.ndarray
    deviation: float


@dataclass(frozen=True, eq=False)
class CentralizerVerdict:
    commutes: bool
    witness: Optional[CentralizerWitness]


def _step_multipliers(step, n: int) -> Optional[tuple]:
    """(lam, src) when the step is exactly z -> (lam_i * z_src[i])_i, a
    coordinate permutation followed by a diagonal map; else None."""
    if isinstance(step, Diagonal):
        return step._multipliers, np.arange(n)
    if isinstance(step, Permutation):
        return np.ones(n, dtype=np.complex128), step._sources
    if isinstance(step, Linear) and np.all(np.count_nonzero(step.matrix, axis=1) == 1):
        src = np.argmax(step.matrix != 0, axis=1)
        return step.matrix[np.arange(n), src], src
    if isinstance(step, Overshear) and step.f.is_zero \
            and set(step.g.terms) <= {(0,) * n}:
        lam = np.ones(n, dtype=np.complex128)
        lam[step.axis - 1] = np.exp(step.g.constant_term)
        return lam, np.arange(n)
    return None


def _exact_diagonal(w: Word, what: str) -> Optional[np.ndarray]:
    """The product, in step order, of the multipliers of a word whose
    steps are permutations followed by diagonal maps, carried along the
    permutations, once these compose to the identity; None for any other
    word. A product that is not finite raises NonFinite."""
    lam, src = np.ones(w.n, dtype=np.complex128), np.arange(w.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for step in w.steps:
            mult = _step_multipliers(step, w.n)
            if mult is None:
                return None
            lam, src = lam[mult[1]] * mult[0], src[mult[1]]
    if not np.array_equal(src, np.arange(w.n)):
        return None
    if not np.all(np.isfinite(lam)):
        raise NonFinite(f"{what}: the diagonal multipliers multiply to {lam}, "
                        f"which is not finite")
    return lam


def commutes_with_torus(w: Word, d: DomainSpec, seed: int) -> CentralizerVerdict:
    """Test w(t(z)) = t(w(z)) over 64 seeded rotations and 64 seeded points.

    The word must preserve the domain; torus orbits never leave it, so
    both sides are always defined. An exactly diagonal word (see the
    module docstring) commutes by proof, without sampling, once its multipliers
    multiply to a finite diagonal (else NonFinite). For any
    other word the verdict is the max deviation in
    sup norm over the full 64x64 grid, compared against 1e-10, with the
    maximizing pair returned on failure; a non-finite deviation (the
    word overflowed) raises NonFinite. Enumeration order is fixed, so
    the verdict is reproducible for a given seed. The grid is compared
    coordinate by coordinate, one 64x64 block each, in that same order.
    """
    guard = word_preserves_domain(w, d, seed)
    if not guard.preserves:
        raise DomainNotPreserved(
            f"word does not preserve the domain (witness {guard.witness})")
    if _exact_diagonal(w, "centralizer check") is not None:
        return CentralizerVerdict(True, None)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(64, w.n))
    pts = sample_points(d, 64, rng)
    # row i * 64 + j is rotation i applied to point j; the grid is
    # column-major, as the word pass keeps it, so each coordinate is one
    # contiguous 64x64 block, since numpy is slow along a last axis of n
    coeffs_t = np.ascontiguousarray(np.exp(1j * thetas).T)
    pts_t = np.ascontiguousarray(pts.T)
    rotated = np.empty((64 * 64, w.n), dtype=np.complex128, order="F")
    for c in range(w.n):
        rotated[:, c] = np.multiply.outer(coeffs_t[c], pts_t[c]).ravel()
    images = eval_word_batch(w, rotated)
    wz = eval_word_batch(w, pts)
    dev = np.zeros((64, 64))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c in range(w.n):
            col = np.abs(images[:, c].reshape(64, 64) - np.multiply.outer(coeffs_t[c], wz[:, c]))
            np.maximum(dev, col, out=dev)
    worst = float(dev.max())
    if not math.isfinite(worst):
        i, j = np.unravel_index(int(np.flatnonzero(~np.isfinite(dev))[0]), dev.shape)
        raise NonFinite(f"centralizer check: the deviation |w(t(z)) - t(w(z))| is "
                        f"{dev[i, j]} at theta {thetas[i]}, z {pts[j]}")
    if worst < COMMUTE_TOL:
        return CentralizerVerdict(True, None)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return CentralizerVerdict(False, CentralizerWitness(thetas[i], pts[j], worst))


def _refuse_non_finite(values: np.ndarray, pts: np.ndarray, what: str) -> None:
    """Raise NonFinite, naming the first point, unless the values at each
    point (a row, or one number) are finite."""
    rows = np.flatnonzero(~np.isfinite(values.reshape(len(pts), -1)).all(axis=1))
    if rows.size:
        raise NonFinite(f"diagonal extraction: {what} is {values[rows[0]]} "
                        f"at p {pts[rows[0]]}, which is not finite")


def extract_diagonal(w: Word, d: DomainSpec, seed: int) -> np.ndarray:
    """Recover lambda from a word assumed to commute with the torus.

    An exactly diagonal word (see the module docstring) gives the exact
    product of its multipliers, in step order; a product that is not finite, or
    has a zero entry, raises NonFinite. For any other word,
    lambda_j = w_j(p) / p_j at one seeded base point with every
    |p_j| in [0.5, 1.5]; then two verifications back the assumption up:
    the same ratio at 32 further points agrees to 1e-9, and nudging any
    one coordinate moves no other output coordinate by more than 1e-10.
    Either failure raises NotDiagonal with the offending point, meaning
    the commutation precondition held only to sampling accuracy. A ratio,
    or a shift of another coordinate, that is not finite (the word
    overflowed) raises NonFinite with its point before it is compared.
    """
    if w.n != d.n:
        raise DimensionMismatch(f"word dimension {w.n} != domain dimension {d.n}")
    lam = _exact_diagonal(w, "diagonal extraction")
    if lam is not None:
        if np.any(lam == 0):
            raise NonFinite(f"diagonal extraction: the diagonal multipliers "
                            f"multiply to {lam}, which has a zero entry")
        return lam
    rng = np.random.default_rng(seed)
    n = w.n
    r = rng.uniform(0.5, 1.5, size=(33, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(33, n))
    pts = r * np.exp(1j * ang)
    images = eval_word_batch(w, pts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = images / pts
        drift = np.abs(ratios[1:] - ratios[0])
    _refuse_non_finite(ratios, pts, "the orbit ratio w(p) / p")
    lam = ratios[0]
    bad = np.flatnonzero(np.max(drift, axis=1) >= DIAG_RATIO_TOL)
    if bad.size:
        raise NotDiagonal("orbit ratio is not constant across sample points",
                          point=pts[1 + bad[0]])
    # each output coordinate may respond only to its own input coordinate
    probes = np.repeat(pts, n, axis=0)
    probes[np.arange(33 * n), np.tile(np.arange(n), 33)] += DIAG_PROBE_STEP
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shifts = np.abs(eval_word_batch(w, probes) - np.repeat(images, n, axis=0))
    shifts = shifts.reshape(33, n, n)
    cross = np.max(np.where(np.eye(n, dtype=bool)[None, :, :], 0.0, shifts), axis=(1, 2))
    _refuse_non_finite(cross, pts, "the largest cross shift under a nudge of p")
    bad = np.flatnonzero(cross >= DIAG_DEPENDENCE_TOL)
    if bad.size:
        raise NotDiagonal("an output coordinate depends on a foreign input coordinate",
                          point=pts[bad[0]])
    return lam
