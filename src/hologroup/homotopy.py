"""Explicit paths joining overshears and transpositions to the identity.

An overshear deforms by scaling both of its data polynomials: at time t
the step is Overshear(axis, (1-t) f, (1-t) g), so the multiplier
exp((1-t) g) interpolates continuously with no branch ambiguity. A
transposition of coordinates j < k deforms through invertible linear
maps mixing the (j, k) plane with coefficients

    row j:  t        1-t
    row k:  (1-t) + i f(t)   t

where f is a real bump on [0, 1] with f(0) = f(1) = 0 and f(1/2) != 0;
the block determinant (2t-1) - i(1-t) f(t) then never vanishes, since
its real part is zero only at t = 1/2 where the bump keeps the
imaginary part away from 0. Both families hit the target map at t = 0
and the identity at t = 1.

Certification is empirical on one compact set per call: endpoint
errors, a global lower bound on |det| over a t-grid, worst inverse
residual, and a modulus of continuity in t.

Both checks walk their time grid in blocks of BLOCK_TIMES times and
evaluate each block in closed form, without building a Word per time,
as (T, P, k) arrays of the k coordinates that the path moves. For an
overshear path that is its axis alone, since every other coordinate of
an image is the point's own, and f and g are evaluated together from
the step's own table at the scaled coefficients (1-t) c term by term,
sharing monomials built once per call; since neither reads the axis
coordinate, the inverse at time t is exp(-(1-t) g) * (w - (1-t) f) on
the same values. For a transposition path the block is a stack of
matrices with batched products, determinants and inverses. The results
equal those of evaluating path_at(path, t) at each time, and
`tests/oracles.py` keeps that per-time algorithm to check it. Grids are
capped at MAX_GRID_TIMES times (BudgetExhausted). Blocks are computed
under the word pass's error state, so overflow, 0 * inf and division by
zero give inf or NaN without a warning; a time whose |det|, residual or
jump is then not finite (exp((1-t) g) overflowed) is refused by `_finite`
with NonFinite rather than reported as a finite-looking extremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._kernels import scaled_poly_evaluator
from .errors import BudgetExhausted, NonFinite, OutOfRange
from .words import (Linear, Overshear, Permutation, Word, check_invertible,
                    eval_word_batch)

BUMP_ENDPOINT_TOL = 1e-12
BUMP_MIDPOINT_TOL = 1e-12
CERTIFY_POINTS = 100
DEFAULT_CERTIFY_SEED = 42
# Times evaluated together. A block's (T, P, n) arrays stay small: 256
# times ran faster but raised the CLI's peak RSS by about 10%.
BLOCK_TIMES = 32
# Most grid times one certify_path or continuity_modulus call may walk.
MAX_GRID_TIMES = 10 ** 6


@dataclass(frozen=True)
class BumpFunction:
    """Real continuous function on [0,1], zero at the ends, nonzero at 1/2.

    Either the named default sin(pi t) or a piecewise-linear table over
    a uniform grid on [0,1]. The three defining constraints are checked
    at construction (endpoints to 1e-12, since sin(pi*1) is itself only
    zero to roundoff).
    """

    name: str
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.name == "sin":
            if self.table is not None:
                raise ValueError("the sin bump takes no table")
        elif self.name == "table":
            if self.table is None or len(self.table) < 3:
                raise ValueError("a table bump needs at least 3 values")
            object.__setattr__(self, "table", tuple(float(v) for v in self.table))
        else:
            raise ValueError(f"unknown bump function {self.name!r}")
        if abs(self(0.0)) > BUMP_ENDPOINT_TOL or abs(self(1.0)) > BUMP_ENDPOINT_TOL:
            raise ValueError("bump function must vanish at t=0 and t=1")
        if abs(self(0.5)) <= BUMP_MIDPOINT_TOL:
            raise ValueError("bump function must be nonzero at t=1/2")

    def __call__(self, t):
        if self.name == "sin":
            return np.sin(np.pi * t)
        knots = np.linspace(0.0, 1.0, len(self.table))
        return np.interp(t, knots, self.table)


SIN_BUMP = BumpFunction("sin")


@dataclass(frozen=True)
class OvershearPath:
    """Deformation of one overshear step to the identity."""

    target: Overshear
    n: int

    def __post_init__(self):
        if self.target.dim != self.n:
            raise ValueError(f"target acts in dimension {self.target.dim}, path says {self.n}")


@dataclass(frozen=True)
class TranspositionPath:
    """Deformation of the swap of coordinates j and k to the identity."""

    j: int
    k: int
    n: int
    bump: BumpFunction = SIN_BUMP

    def __post_init__(self):
        if not 1 <= self.j < self.k <= self.n:
            raise ValueError(f"need 1 <= j < k <= n, got j={self.j}, k={self.k}, n={self.n}")


HomotopyPath = Union[OvershearPath, TranspositionPath]


def _check_t(t: float):
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"path parameter must lie in [0, 1], got {t}")


def transposition_matrix(path: TranspositionPath, t) -> np.ndarray:
    """The path's matrix at time t: (n, n), or (T, n, n) for T times."""
    t = np.asarray(t, dtype=np.float64)
    m = np.broadcast_to(np.eye(path.n, dtype=np.complex128), t.shape + (path.n, path.n)).copy()
    j, k = path.j - 1, path.k - 1
    ft = path.bump(t)
    m[..., j, j] = t
    m[..., j, k] = 1.0 - t
    m[..., k, j] = (1.0 - t) + 1j * ft
    m[..., k, k] = t
    return m


def path_at(path: HomotopyPath, t: float) -> Word:
    """The automorphism at time t: the target at t=0, identity at t=1."""
    _check_t(t)
    if isinstance(path, OvershearPath):
        s = 1.0 - t
        step = Overshear(path.target.axis, path.target.f.scale(s), path.target.g.scale(s))
        return Word(path.n, (step,))
    return Word(path.n, (Linear(transposition_matrix(path, t)),))


def path_det(path: TranspositionPath, t: float) -> complex:
    """Closed-form Jacobian determinant of the transposition path."""
    if not isinstance(path, TranspositionPath):
        raise TypeError("closed-form determinant exists for transposition paths only")
    return complex((2.0 * t - 1.0) - 1j * (1.0 - t) * float(path.bump(t)))


def path_target(path: HomotopyPath) -> Word:
    """The map the path starts from at t=0."""
    if isinstance(path, OvershearPath):
        return Word(path.n, (path.target,))
    perm = list(range(1, path.n + 1))
    perm[path.j - 1], perm[path.k - 1] = path.k, path.j
    return Word(path.n, (Permutation(tuple(perm)),))


def sample_polydisc(n: int, count: int, radius: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Points with every coordinate uniform on the closed disc of `radius`."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return r * np.exp(1j * ang)


def _sample(path: HomotopyPath, radius: float, seed: int) -> np.ndarray:
    if not (np.isfinite(radius) and radius >= 0.0):
        raise OutOfRange(f"sample radius must be finite and non-negative, got {radius}")
    return sample_polydisc(path.n, CERTIFY_POINTS, radius, np.random.default_rng(seed))


def _check_budget(count, what: str):
    # no count in the message: it may overflow a float or run to 300 digits
    if count > MAX_GRID_TIMES:
        raise BudgetExhausted(f"{what} is over the budget of {MAX_GRID_TIMES} times")


def _finite(values: np.ndarray, times: np.ndarray, what: str) -> np.ndarray:
    """The per-time values, unless one is NaN or infinite (NonFinite)."""
    if not np.isfinite(values).all():
        t = times[np.flatnonzero(~np.isfinite(values))[0]]
        raise NonFinite(f"{what} is not finite at t = {t}")
    return values


def _blocks(times: np.ndarray):
    return (times[i:i + BLOCK_TIMES] for i in range(0, len(times), BLOCK_TIMES))


def _moving(path: HomotopyPath) -> slice:
    """The coordinates that the evaluator of `path` returns: the overshear
    axis, or all n for a transposition."""
    if isinstance(path, OvershearPath):
        return slice(path.target.axis - 1, path.target.axis)
    return slice(None)


def _evaluator(path: HomotopyPath, pts: np.ndarray):
    """Return evaluate(times, certify) -> (images, dets, residuals).

    images is (T, P, k): the coordinates `_moving(path)` of the path at
    each of a block of times, applied to the (P, n) points. With
    `certify`, dets and residuals are (T,): per time, the least |det| of
    the Jacobian over the points and the largest |inverse(image) -
    point|; else both are None.
    """
    if isinstance(path, OvershearPath):
        s = path.target.axis - 1
        fg = scaled_poly_evaluator(*path.target._tables, pts)
        zs = pts[:, s]

        def evaluate(times, certify):
            fv, gv = fg(1.0 - times)
            hv = np.exp(gv)
            ws = fv + hv * zs
            if not certify:
                return ws[:, :, None], None, None
            back = np.exp(-gv) * (ws - fv)
            return ws[:, :, None], np.min(np.abs(hv), axis=1), np.max(np.abs(back - zs), axis=1)
        return evaluate

    def evaluate(times, certify):
        m = transposition_matrix(path, times)
        check_invertible(m)
        images = pts @ m.transpose(0, 2, 1)
        if not certify:
            return images, None, None
        # the rows of inv(m) have m's row norms over |det|, so its row-normalised
        # |det| is m's, which check_invertible(m) has already bounded
        back = images @ np.linalg.inv(m).transpose(0, 2, 1)
        return images, np.abs(np.linalg.det(m)), np.max(np.abs(back - pts), axis=(1, 2))
    return evaluate


@dataclass(frozen=True)
class CertificationReport:
    endpoint_err0: float
    endpoint_err1: float
    min_abs_det: float
    max_inverse_residual: float


def certify_path(path: HomotopyPath, grid_size: int, sample_radius: float,
                 seed: int = DEFAULT_CERTIFY_SEED) -> CertificationReport:
    """Measure how well the path behaves on one compact polydisc.

    Over a uniform t-grid and 100 seeded points: sup-norm error against
    the target map at t=0 and the identity at t=1, the minimum |det| of
    the Jacobian, and the worst round-trip residual through the inverse
    at each grid time.
    """
    if grid_size < 2:
        raise OutOfRange(f"grid must have at least 2 points, got {grid_size}")
    _check_budget(grid_size, "the grid")
    pts = _sample(path, sample_radius, seed)
    first = None
    min_det, max_resid = np.inf, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        evaluate = _evaluator(path, pts)
        for times in _blocks(np.linspace(0.0, 1.0, grid_size)):
            images, dets, resids = evaluate(times, True)
            if first is None:
                first = images[0]
            min_det = np.minimum.reduce(_finite(dets, times, "|det|"), initial=min_det)
            max_resid = np.maximum.reduce(_finite(resids, times, "the inverse residual"),
                                          initial=max_resid)
    moving = _moving(path)
    err0 = float(np.max(np.abs(first - eval_word_batch(path_target(path), pts)[:, moving])))
    err1 = float(np.max(np.abs(images[-1] - pts[:, moving])))
    return CertificationReport(err0, err1, float(min_det), float(max_resid))


def continuity_modulus(path: HomotopyPath, dt: float, sample_radius: float,
                       seed: int = DEFAULT_CERTIFY_SEED) -> float:
    """Largest sup-norm jump between consecutive grid times at spacing dt.

    A computable stand-in for continuity in the topology of uniform
    convergence on compact sets, measured on one seeded polydisc; for
    these smooth-in-t paths it scales linearly with dt.
    """
    if not 0.0 < dt <= 1.0:
        raise OutOfRange(f"time step must lie in (0, 1], got {dt}")
    count = np.floor(1.0 / dt + 1e-9) + 1.0
    _check_budget(count, f"the grid at time step {dt}")
    pts = _sample(path, sample_radius, seed)
    modulus = 0.0
    prev = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        evaluate = _evaluator(path, pts)
        for times in _blocks(np.minimum(np.arange(int(count)) * dt, 1.0)):
            images = evaluate(times, False)[0]
            if prev is not None:
                images = np.concatenate((prev[None], images))
            jumps = np.max(np.abs(np.diff(images, axis=0)), axis=(1, 2))
            modulus = np.maximum.reduce(_finite(jumps, times[-len(jumps):], "the jump"),
                                        initial=modulus)
            prev = images[-1]
    return float(modulus)
