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
errors, the least |det| over the grid and the sample points, worst
inverse residual, and a modulus of continuity in t.

Both checks walk their time grid in blocks of BLOCK_TIMES times through
one workspace per call: `_evaluator` allocates its (T, P) arrays once,
each block writes into them with `out=`, and the arrays that `evaluate`
returns are valid until its next call, so callers copy what they keep.
Each block is evaluated in closed form, without a Word per time, as
(T, P, k) arrays of only the k coordinates that the path moves
(`_moving`), since every other coordinate of an image is the point's
own. For an overshear path that is its axis alone. f(z) and g(z) are
evaluated once per call from the step's own table and scaled per time:
the image is (1-t) f(z) + exp((1-t) g(z)) z_axis, and since neither
reads the axis coordinate, the inverse at time t is
exp(-(1-t) g) * (w - (1-t) f) on the same values. Each exp((+-)(1-t) g)
is taken in modulus-phase form, the real exp((+-)(1-t) Re g) times
cos((1-t) Im g) +- i sin((1-t) Im g), so the image and the round trip
share one phase per time and point, and |det| is read off the modulus
as exp((1-t) Re g), with no complex abs. At t = 1, and for g = 0, the
modulus is exactly 1 and the phase exactly 1 + 0i, so those bits are
complex exp's; for g != 0 the image at t = 0 agrees with the target
word's to about one ulp, and its last digits depend on the real exp
that numpy dispatches to on the host CPU. A transposition path moves
z_j and z_k alone: its block is a (T, 2, 2) stack of the matrices above
on (z_j, z_k), with batched invertibility checks, products,
determinants and inverses. `tests/oracles.py` keeps the per-time
reference of both families. Grids are capped at MAX_GRID_TIMES times
(BudgetExhausted). Blocks are computed under `errors.quiet()`, so
overflow, 0 * inf and division by zero give inf or NaN without a
warning; the earliest time whose |det|, residual or jump is then not
finite (exp((1-t) g) overflowed) is refused with NonFinite, "|det| is
nan at t = 0.1, which is not finite", |det| before the residual, rather
than reported as a finite-looking extremum. An f(z) or g(z) that is not
finite at a sample point is refused there, before any time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .errors import BudgetExhausted, NonFinite, OutOfRange, integer, quiet, refuse_non_finite
from .words import Overshear, Permutation, Word, check_invertible, eval_word_batch

BUMP_ENDPOINT_TOL = 1e-12
BUMP_MIDPOINT_TOL = 1e-12
CERTIFY_POINTS = 100
DEFAULT_CERTIFY_SEED = 42
# Times evaluated together, in one workspace per call. At 96 the CLI's peak
# RSS is 37.1 MB, 1.2% above 32 times; 128 was no faster and added 2.2%.
BLOCK_TIMES = 96
# Most grid times one certify_path or continuity_modulus call may walk.
MAX_GRID_TIMES = 10 ** 6


@dataclass(frozen=True)
class BumpFunction:
    """Real continuous function on [0,1], zero at the ends, nonzero at 1/2.

    Either the named default sin(pi t), exactly 0 at both ends, or a
    piecewise-linear table over a uniform grid on [0,1]. The three
    defining constraints are checked at construction (endpoints to
    BUMP_ENDPOINT_TOL, so that a table may end on values that are zero
    only to roundoff), after a NaN or infinite table value is refused
    (NonFinite), since NaN would pass every comparison.
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
            bad = np.flatnonzero(~np.isfinite(self.table))
            if bad.size:
                i = int(bad[0])
                raise NonFinite(f"bump table value {i} is {self.table[i]}, which is not finite")
        else:
            raise ValueError(f"unknown bump function {self.name!r}")
        if abs(self(0.0)) > BUMP_ENDPOINT_TOL or abs(self(1.0)) > BUMP_ENDPOINT_TOL:
            raise ValueError("bump function must vanish at t=0 and t=1")
        if abs(self(0.5)) <= BUMP_MIDPOINT_TOL:
            raise ValueError("bump function must be nonzero at t=1/2")

    def __call__(self, t):
        if self.name == "sin":
            # 1 - t is exact for t >= 1/2, so the bump is 0 at t = 1, where
            # sin(pi * 1.0) is 1.2e-16
            return np.sin(np.pi * np.minimum(t, 1.0 - t))
        knots = np.linspace(0.0, 1.0, len(self.table))
        values = np.interp(t, knots, self.table)
        if np.isfinite(values).all():
            return values
        # np.interp's slope overflows where neighbours differ by more than the
        # float range times the spacing; (1 - w) y_j + w y_j+1 does not
        j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
        w, y = (t - knots[j]) / (knots[j + 1] - knots[j]), np.array(self.table)
        return np.where(np.isfinite(values), values, (1.0 - w) * y[j] + w * y[j + 1])


SIN_BUMP = BumpFunction("sin")


@dataclass(frozen=True)
class OvershearPath:
    """Deformation of one overshear step to the identity."""

    target: Overshear
    n: int

    def __post_init__(self):
        if not isinstance(self.target, Overshear):
            raise TypeError(f"the target must be an Overshear, got {type(self.target).__name__}")
        if self.target.dim != integer(self.n, "a dimension"):
            raise ValueError(f"target acts in dimension {self.target.dim}, path says {self.n}")


@dataclass(frozen=True)
class TranspositionPath:
    """Deformation of the swap of coordinates j and k to the identity."""

    j: int
    k: int
    n: int
    bump: BumpFunction = SIN_BUMP

    def __post_init__(self):
        j, k, n = (integer(getattr(self, a), f"a transposition path's {a}") for a in "jkn")
        if not 1 <= j < k <= n:
            raise ValueError(f"need 1 <= j < k <= n, got j={self.j}, k={self.k}, n={self.n}")


HomotopyPath = Union[OvershearPath, TranspositionPath]


def path_det(path: TranspositionPath, t: float) -> complex:
    """Closed-form Jacobian determinant of the transposition path."""
    if not isinstance(path, TranspositionPath):
        raise TypeError("closed-form determinant exists for transposition paths only")
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"path parameter must lie in [0, 1], got {t}")
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


def _blocks(times: np.ndarray):
    return (times[i:i + BLOCK_TIMES] for i in range(0, len(times), BLOCK_TIMES))


def _moving(path: HomotopyPath) -> list:
    """The 0-based coordinates that `path` moves, and its evaluator returns:
    the overshear axis, or j and k for a transposition."""
    if isinstance(path, OvershearPath):
        return [path.target.axis - 1]
    return [path.j - 1, path.k - 1]


def _polar(mod: np.ndarray, c: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = mod * (c + i s), written through its real and imaginary views."""
    np.multiply(mod, c, out=out.real)
    np.multiply(mod, s, out=out.imag)
    return out


def _evaluator(path: HomotopyPath, pts: np.ndarray, rows: int):
    """Return evaluate(times, certify) -> (images, dets, residuals) for
    blocks of at most `rows` times.

    images is (T, P, k): the coordinates `_moving(path)` of the path at
    each of a block of times, applied to the (P, n) points. With
    `certify`, dets and residuals are (T,): per time, the least |det| of
    the Jacobian over the points and the largest |inverse(image) -
    point|; else both are None. images is a view of the evaluator's
    workspace, valid until the next call.

    An overshear block takes cos and sin of (1-t) Im g once and builds
    exp((1-t) g) and exp(-(1-t) g) from them and the real exps of
    (+-)(1-t) Re g; its |det| is the least exp((1-t) Re g). A
    transposition block is the (T, 2, 2) stack of the path's matrices on
    (z_j, z_k), applied to those two coordinates of the points.
    """
    if isinstance(path, OvershearPath):
        f, g = _kernels.poly_eval(*path.target._tables, pts, plan=path.target._plan)
        for name, values in (("f(z)", f), ("g(z)", g)):
            refuse_non_finite(values, f"the overshear's {name}", lambda i: f"z {pts[i]}")
        gr, gi = g.real.copy(), g.imag.copy()
        zs = pts[:, path.target.axis - 1]
        real = np.empty((4, rows, len(pts)))
        cplx = np.empty((3, rows, len(pts)), dtype=np.complex128)

        def evaluate(times, certify):
            phase, c, s, mod = real[:, :len(times)]
            fv, ws, back = cplx[:, :len(times)]
            scale = (1.0 - times)[:, None]
            np.cos(np.multiply(scale, gi, out=phase), out=c)
            np.sin(phase, out=s)
            np.exp(np.multiply(scale, gr, out=phase), out=mod)
            np.multiply(scale, f, out=fv)
            np.add(fv, np.multiply(_polar(mod, c, s, ws), zs, out=ws), out=ws)
            if not certify:
                return ws[:, :, None], None, None
            np.exp(np.negative(phase, out=phase), out=phase)
            _polar(phase, c, np.negative(s, out=s), back)
            np.multiply(back, np.subtract(ws, fv, out=fv), out=back)
            np.abs(np.subtract(back, zs, out=back), out=c)
            return ws[:, :, None], np.min(mod, axis=1), np.max(c, axis=1)
        return evaluate

    zs = pts[:, _moving(path)]
    mats = np.empty((rows, 2, 2), dtype=np.complex128)
    cplx = np.empty((2, rows) + zs.shape, dtype=np.complex128)
    size = np.empty((rows, zs.size))

    def evaluate(times, certify):
        m = mats[:len(times)]
        images, back = cplx[:, :len(times)]
        s = 1.0 - times
        m[:, 0, 0] = times
        m[:, 0, 1] = s
        m[:, 1, 0] = s + 1j * path.bump(times)
        m[:, 1, 1] = times
        check_invertible(m)
        np.matmul(zs, m.transpose(0, 2, 1), out=images)
        if not certify:
            return images, None, None
        # the rows of inv(m) have m's row norms over |det|, so its row-normalised
        # |det| is m's, which check_invertible(m) has already bounded
        np.matmul(images, np.linalg.inv(m).transpose(0, 2, 1), out=back)
        resid = size[:len(times)]
        np.abs(np.subtract(back, zs, out=back).reshape(resid.shape), out=resid)
        return images, np.abs(np.linalg.det(m)), np.max(resid, axis=1)
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
    if integer(grid_size, "the grid size") < 2:
        raise OutOfRange(f"grid must have at least 2 points, got {grid_size}")
    _check_budget(grid_size, "the grid")
    pts = _sample(path, sample_radius, seed)
    min_det, max_resid = np.inf, 0.0
    with quiet():
        evaluate = _evaluator(path, pts, min(BLOCK_TIMES, grid_size))
        for b, times in enumerate(_blocks(np.linspace(0.0, 1.0, grid_size))):
            images, dets, resids = evaluate(times, True)
            if b == 0:
                first = images[0].copy()
            # refuse the earliest time at which either is not finite, |det| first
            upto = np.argmin(np.isfinite(dets) & np.isfinite(resids)) + 1
            at = lambda i: f"t = {times[i]}"
            refuse_non_finite(dets[:upto], "|det|", at)
            refuse_non_finite(resids[:upto], "the inverse residual", at)
            min_det = np.minimum.reduce(dets, initial=min_det)
            max_resid = np.maximum.reduce(resids, initial=max_resid)
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
    times = np.minimum(np.arange(int(count)) * dt, 1.0)
    rows = min(BLOCK_TIMES, len(times))
    # jumps[r] is images[r] - images[r - 1], and jumps[0] images[0] - prev, the
    # last image of the block before; the first time has none
    jumps = np.empty((rows, len(pts) * len(_moving(path))), dtype=np.complex128)
    size, prev = np.empty(jumps.shape), np.zeros(jumps.shape[1], dtype=np.complex128)
    modulus = 0.0
    with quiet():
        evaluate = _evaluator(path, pts, rows)
        for b, block in enumerate(_blocks(times)):
            images = evaluate(block, False)[0].reshape(len(block), -1)
            np.subtract(images[1:], images[:-1], out=jumps[1:len(block)])
            np.subtract(images[0], prev, out=jumps[0])
            lo = int(b == 0)
            sizes = np.max(np.abs(jumps[lo:len(block)], out=size[lo:len(block)]), axis=1)
            modulus = np.maximum.reduce(
                refuse_non_finite(sizes, "the jump", lambda i: f"t = {block[lo + i]}"),
                initial=modulus)
            prev[...] = images[-1]
    return float(modulus)
