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
diagonal when every step is a monomial map without an inverted slot
(`words.monomial`), a coordinate permutation followed by a diagonal map,
and the permutations compose to the identity. Such a word is decided by
proof: it commutes, and its diagonal is the product of the steps'
multipliers. The proof composes the permutations in Python integers and
multiplies the multipliers in numpy, as whole vectors in step order:
Python's complex product rounds differently in the last bit. Every other
word is sampled under `errors.quiet()`, as the word pass is: a deviation
or orbit ratio that is not finite (the word overflowed) is refused with
NonFinite, naming its place, since no comparison with NaN can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainNotPreserved, NonFinite, NotDiagonal,
                     NotUnimodular, quiet, refuse_non_finite)
from .domains import DomainSpec, word_preserves_domain
from .words import Word, _word_pass, eval_word_batch, monomial

COMMUTE_TOL = 1e-10
DIAG_RATIO_TOL = 1e-9


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


def sample_points(d: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded sample of domain points.

    Coordinates are r * exp(i theta) with r uniform on [0.2, 2.0], so
    every coordinate stays clear of the deleted hyperplanes.
    """
    r = rng.uniform(0.2, 2.0, size=(count, d.n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, d.n))
    return r * np.exp(1j * theta)


@dataclass(frozen=True, eq=False)
class CentralizerWitness:
    theta: np.ndarray
    z: np.ndarray
    deviation: float


@dataclass(frozen=True, eq=False)
class CentralizerVerdict:
    commutes: bool
    witness: Optional[CentralizerWitness]


def _exact_diagonal(w: Word, what: str) -> Optional[np.ndarray]:
    """The product, in step order, of the multipliers of a word of monomial
    steps with no inverted slot whose permutations compose to the identity,
    carried along them; else None. NonFinite if the product is not finite."""
    one = np.ones(w.n, dtype=np.complex128)
    lam, src = one, list(range(w.n))
    with quiet():
        for step in w.steps:
            mult = monomial(step)
            if mult is None or mult[2]:
                return None
            step_lam, step_src, _ = mult
            if step_src is not None:
                lam, src = lam[step_src], [src[j] for j in step_src]
            lam = lam * (one if step_lam is None else step_lam)
    if src != list(range(w.n)):
        return None
    if not np.isfinite(lam).all():
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
    the verdict is reproducible for a given seed. The rotated points and
    the points themselves are evaluated in one word pass over one batch,
    which this call builds and the pass overwrites, and the deviation is
    taken coordinate by coordinate in the same order, through buffers
    that every coordinate reuses.
    """
    guard = word_preserves_domain(w, d)
    if not guard.preserves:
        raise DomainNotPreserved(
            f"word does not preserve the domain (witness {guard.witness})")
    if _exact_diagonal(w, "centralizer check") is not None:
        return CentralizerVerdict(True, None)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(64, w.n))
    pts = sample_points(d, 64, rng)
    # row i * 64 + j is rotation i applied to point j, and the last 64 rows
    # are the points, so one pass gives both w(t(z)) and w(z). The grid is
    # column-major, as the word pass keeps it, so each coordinate is one
    # contiguous 64x64 block, since numpy is slow along a last axis of n
    coeffs_t = np.ascontiguousarray(np.exp(1j * thetas).T)
    grid = np.empty((64 * 64 + 64, w.n), dtype=np.complex128, order="F")
    for c in range(w.n):
        np.multiply.outer(coeffs_t[c], pts[:, c], out=grid[:4096, c].reshape(64, 64))
    grid[4096:] = pts
    _word_pass(w, grid)
    dev = np.zeros((64, 64))
    diff, mag = np.empty((64, 64), dtype=np.complex128), np.empty((64, 64))
    with quiet():
        for c in range(w.n):
            np.multiply.outer(coeffs_t[c], grid[4096:, c], out=diff)
            np.subtract(grid[:4096, c].reshape(64, 64), diff, out=diff)
            np.maximum(dev, np.abs(diff, out=mag), out=dev)
    refuse_non_finite(dev.ravel(), "centralizer check: the deviation |w(t(z)) - t(w(z))|",
                      lambda k: f"theta {thetas[k // 64]}, z {pts[k % 64]}")
    worst = float(dev.max())
    if worst < COMMUTE_TOL:
        return CentralizerVerdict(True, None)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return CentralizerVerdict(False, CentralizerWitness(thetas[i], pts[j], worst))


def extract_diagonal(w: Word, d: DomainSpec, seed: int) -> np.ndarray:
    """Recover lambda from a word assumed to commute with the torus.

    An exactly diagonal word (see the module docstring) gives the exact
    product of its multipliers, in step order; a product that is not finite, or
    has a zero entry, raises NonFinite. For any other word,
    lambda_j = w_j(p) / p_j at one seeded base point with every
    |p_j| in [0.5, 1.5], and the same ratio at 32 further points must
    agree with it to 1e-9; else NotDiagonal names the first point that
    disagrees, meaning the commutation precondition held only to sampling
    accuracy. A ratio that is not finite (the word overflowed) raises
    NonFinite with its point before it is compared.
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
    r = rng.uniform(0.5, 1.5, size=(33, w.n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(33, w.n))
    pts = r * np.exp(1j * ang)
    with quiet():
        ratios = refuse_non_finite(eval_word_batch(w, pts) / pts, "diagonal extraction: "
                                   "the orbit ratio w(p) / p", lambda i: f"p {pts[i]}")
        drift = np.abs(ratios[1:] - ratios[0])
    bad = np.flatnonzero(np.max(drift, axis=1) >= DIAG_RATIO_TOL)
    if bad.size:
        raise NotDiagonal("orbit ratio is not constant across sample points",
                          point=pts[1 + bad[0]])
    return ratios[0]
