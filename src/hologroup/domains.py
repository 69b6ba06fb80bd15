"""The three domain classes, membership, Stein flags, and preservation checks.

A domain is C^n, the punctured space C^n \\ {0}, or C^n minus a nonempty
union of coordinate hyperplanes {z_i = 0}; the first two have an empty
`deleted` set. Membership is exact: a coordinate is "nonzero" iff it
differs from floating-point zero.

`word_preserves_domain` classifies each step once with `_escapes`, which
reads all but `Linear` and `Overshear` steps through `words.monomial`;
its docstring says how the classes decide it. It draws no random point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NonFinite, NonInvertibleStep, SingularPoint, quiet
from .words import Inversion, Linear, Overshear, Word, eval_word, invert_word, monomial


@dataclass(frozen=True)
class FullSpace:
    n: int
    deleted = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class Punctured:
    """C^n with the origin removed."""

    n: int
    deleted = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class HyperplaneComplement:
    """C^n without the hyperplanes {z_i = 0} for i in `deleted` (1-based)."""

    n: int
    deleted: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        deleted = frozenset(int(i) for i in self.deleted)
        object.__setattr__(self, "deleted", deleted)
        if not deleted:
            raise ValueError("deleted set must be nonempty")
        if not all(1 <= i <= self.n for i in deleted):
            raise ValueError(f"deleted indices {sorted(deleted)} out of range 1..{self.n}")


DomainSpec = Union[FullSpace, Punctured, HyperplaneComplement]


@dataclass(frozen=True)
class DomainClass:
    kind: str
    is_stein: bool


@dataclass(frozen=True)
class PreservationVerdict:
    preserves: bool
    witness: Optional[np.ndarray]


def contains(d: DomainSpec, z) -> bool:
    """Exact membership of one point, decided as `contains_batch` decides
    it: a coordinate is nonzero iff it compares `!= 0`, with no tolerance,
    so -0.0 is zero and NaN, inf and subnormals are nonzero. The point's
    coordinates are compared one by one, as Python complex numbers."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != d.n:
        raise DimensionMismatch(f"point has {z.size} coordinates, domain has {d.n}")
    coords = z.tolist()
    if isinstance(d, Punctured):
        return any(c != 0 for c in coords)
    return all(coords[i - 1] != 0 for i in d.deleted)


def contains_batch(d: DomainSpec, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.complex128)
    if pts.shape[-1] != d.n:
        raise DimensionMismatch(f"point has {pts.shape[-1]} coordinates, domain has {d.n}")
    if isinstance(d, Punctured):
        return np.any(pts != 0, axis=1)
    cols = np.array(sorted(d.deleted), dtype=np.intp) - 1
    return np.all(pts[:, cols] != 0, axis=1)


# Stein-ness is a fixed classification table: C^n and hyperplane
# complements are Stein, the punctured space is not once n >= 2.
def classify_domain(d: DomainSpec) -> DomainClass:
    if isinstance(d, FullSpace):
        return DomainClass("full", True)
    if isinstance(d, Punctured):
        return DomainClass("punctured", d.n == 1)
    return DomainClass("complement", True)


# ---------------------------------------------------------------------------
# structural analysis

# the constant coordinates of the points at which odd steps are solved
FILLERS = (1.0 + 0.0j, 1.3 + 0.0j, 0.7 + 0.4j, -0.9 + 0.6j)

# The relative error allowed for each step of a pull-back evaluated in
# floating point, on top of the error it carries in: a step rounds a few
# times, by 2^-53 each, so this leaves room for some thousand roundings.
ROUNDING = 2.0 ** -40


def _solutions(d: DomainSpec, solves: list, fillers: tuple, generic: bool):
    """For each (coordinate j, solver) pair: the points with constant
    coordinates `fillers`, with z_j set to 0 and then to solve(z), computed
    under `quiet()`, kept when finite and in d. When none is kept and
    `generic`, the same is done at one point with pairwise distinct,
    nonzero coordinates, for equations that vanish wherever all
    coordinates agree."""
    n = d.n
    for j, solve in solves:
        kept = False
        for c in fillers + (None,):  # None stands for the distinct point
            if c is not None:
                z = np.full(n, c, dtype=np.complex128)
            elif generic and not kept:
                z = np.sqrt(np.arange(2, n + 2)) * np.exp(1j * np.arange(1, n + 1))
            else:
                break
            z[j] = 0.0
            with quiet():
                z[j] = solve(z)
            if np.isfinite(z).all() and contains(d, z):
                kept = True
                yield z


def _escapes(step, d: DomainSpec):
    """None when the step maps d bijectively onto d; otherwise a lazy
    iterator over its solved points in d, which it sends out of d or onto
    a zero it inverts.

    A step must map the deleted coordinates among themselves, and on
    C^n \\ {0} fix the origin; C^n and C^n \\ {0} have no deleted axes.
    The rules are exact for one step once C \\ {0} is read as the
    complement of {z1 = 0}, as `word_preserves_domain` reads it:
    - Linear: when each deleted row has one nonzero entry, in a deleted
      column; else w_i = 0 is solved, for each other deleted row i, in
      its first free coordinate, else in its last deleted one.
    - Overshear on C^n \\ {0}: when f(0) = 0; else it escapes at the
      unique preimage of the origin. Elsewhere: on a free axis, or with
      f = 0; else f(z') + exp(g(z')) * z_axis = 0 is solved for z_axis.
    - Any other step, a monomial one (`words.monomial`): when each
      deleted or inverted slot draws on a deleted coordinate; else it
      escapes where such a free source coordinate is 0, in source order.
    Each equation is solved at the points FILLERS (an overshear on
    C^n \\ {0} at the origin); a linear or overshear one that none of
    them solves in d is then solved at one generic point (`_solutions`).
    """
    deleted = d.deleted
    if isinstance(step, Linear):
        solves = []
        for i in sorted(deleted):
            row = step.matrix[i - 1]
            support = np.flatnonzero(row)
            if len(support) == 1 and support[0] + 1 in deleted:
                continue
            free = [j for j in support if j + 1 not in deleted]
            j0 = free[0] if free else support[-1]
            solves.append((j0, lambda z, row=row, j0=j0: -(row @ z) / row[j0]))
        return _solutions(d, solves, FILLERS, True) if solves else None
    if isinstance(step, Overshear):
        if isinstance(d, Punctured):
            f0, g0 = step.f.constant_term, step.g.constant_term
            if f0 == 0:
                return None
            return _solutions(d, [(step.axis - 1, lambda z: -f0 * np.exp(-g0))], (0.0,), False)
        if step.axis not in deleted or step.f.is_zero:
            return None
        return _solutions(d, [(step.axis - 1, lambda z: -step.f(z) * np.exp(-step.g(z)))],
                          FILLERS, True)
    _, src, inverted = monomial(step)
    drawn = {i if src is None else src[i] for i in [j - 1 for j in deleted] + list(inverted)}
    solves = [(j, lambda z: 0.0) for j in sorted(drawn) if j + 1 not in deleted]
    return _solutions(d, solves, FILLERS, False) if solves else None


def _pullbacks(w: Word, k: int, points):
    """Each solved point of the odd step k, pulled back through the steps
    before it to z, with a callable bounding |z - z*| per coordinate, z*
    the exact pull-back (`_rounding_bound`); (None, None) for a z that is
    not finite. A prefix that cannot be inverted is refused with NonFinite."""
    try:
        back = invert_word(Word(w.n, w.steps[:k]))
    except (NonInvertibleStep, NonFinite) as exc:
        raise NonFinite(f"preservation check: the steps before step {k + 1} "
                        f"({type(w.steps[k]).__name__}) cannot be inverted: {exc}") from exc
    for p in points:
        try:
            z = eval_word(back, p)
        except SingularPoint:
            continue
        yield (z, lambda p=p: _rounding_bound(back, p)) if np.isfinite(z).all() else (None, None)


def _majorant(step, m: np.ndarray) -> np.ndarray:
    """The step with each coefficient replaced by its modulus, at the
    nonnegative point m. It bounds the moduli of the step's image, and of
    the change of each term, on the polydisc |z_i| <= m_i; not for an
    inversion."""
    if isinstance(step, Overshear):
        exps, coeffs = step._tables
        f, g = _kernels.poly_eval(exps, np.abs(coeffs), m[None, :])[:, 0].real
        out = m.copy()
        out[step.axis - 1] = f + np.exp(g) * m[step.axis - 1]
        return out
    if isinstance(step, Linear):
        return np.abs(step.matrix) @ m
    lam, src, _ = monomial(step)
    m = m if src is None else m[src]
    return m if lam is None else np.abs(lam) * m


def _rounding_bound(back: Word, p: np.ndarray) -> np.ndarray:
    """A bound on |eval_word(back, p) - back(p*)|, coordinate by coordinate,
    where p* is p before rounding. Through each step F it grows from r to
    t |F|(t (|x| + r)) - |F|(|x|) with t = 1 + ROUNDING, |F| the majorant
    and x the computed point, which each step advances through the word
    pass, with its bits: the exact argument lies in the polydisc |x| + r,
    and F's own rounding stays within ROUNDING of its terms. NaN (from an
    overflowing majorant) bounds nothing."""
    x, r, t = p, ROUNDING * np.abs(p), 1.0 + ROUNDING
    with quiet():
        for step in back.steps:
            m = np.abs(x)
            if isinstance(step, Inversion):
                a, r = step.axis - 1, r.copy()
                r[a] = t / (m[a] - t * r[a]) - 1.0 / m[a] if m[a] > t * r[a] else np.inf
            else:
                r = t * _majorant(step, t * (m + r)) - _majorant(step, m)
            x = eval_word(Word(back.n, (step,)), x)
    return r


def _leaves(w: Word, d: DomainSpec, z: np.ndarray) -> bool:
    """True when the word sends z out of d or onto a zero it inverts."""
    try:
        return not contains(d, eval_word(w, z))
    except SingularPoint:
        return True


def word_preserves_domain(w: Word, d: DomainSpec, sampler_seed: int) -> PreservationVerdict:
    """Check that the word maps the domain into itself.

    C \\ {0} is read as the complement of {z1 = 0}. Each step is
    classified once; a step that does not map d bijectively onto d is
    odd. A word without odd steps preserves d by proof, and no point is
    evaluated. An odd step whose prefix cannot be inverted (a step of
    its inverse is singular or not finite) is refused with NonFinite.

    Otherwise the odd steps are taken in order. Each solved point p of
    an odd step k is pulled back through the steps before k, to z. A z
    in d proves False, with witness z, when both of these hold:
    (a) nothing after k can undo the escape: k is the last odd step, or
        k is an `Inversion`, so the word is undefined at z;
    (b) nothing before k can have moved the exact pull-back off d: no
        odd step precedes k, or d has no deleted axes; on C^n \\ {0}
        behind an odd step, some |z_i| must also exceed the bound on its
        rounding error (`_rounding_bound`), so that the exact pull-back
        is not the origin.
    The witness is not evaluated again, and rounding may keep its
    floating-point image inside d. Any other z in d is the witness only
    when the word, evaluated end to end, sends it out of d or onto a zero
    it inverts. Any other word is True, and a True that no rule proves is
    unproved; but where (a) and (b) hold without a bound (the first odd
    step, or any on C^n) and a step's pull-backs are none of them finite,
    the verdict is refused with NonFinite, as a finite one in d would
    prove False. No random point is tried: the points that the word sends
    out of d, or onto a zero it inverts, form a set of measure zero that
    random points miss. `sampler_seed` is ignored.

    On C^n this is the closed form "preserves iff the word has no
    inversion"; on C^n \\ {0} with n >= 2 it is "no inversion, and
    w(0) = 0" wherever the rounding bound tells w^-1(0), the last odd
    step's pull-back, from 0. `commutes_with_torus` runs this check
    first and refuses with DomainNotPreserved when it is False.
    """
    if w.n != d.n:
        raise DimensionMismatch(f"word dimension {w.n} != domain dimension {d.n}")
    d = HyperplaneComplement(1, {1}) if isinstance(d, Punctured) and d.n == 1 else d
    odd = [(k, points) for k, step in enumerate(w.steps)
           if (points := _escapes(step, d)) is not None]
    if not odd:
        return PreservationVerdict(True, None)
    lost = []
    for i, (k, points) in enumerate(odd):
        lasting = k == odd[-1][0] or isinstance(w.steps[k], Inversion)  # (a)
        sure = lasting and (i == 0 or isinstance(d, FullSpace))  # (b) without a bound
        finite = None
        for z, bound in _pullbacks(w, k, points):
            finite = finite or z is not None
            if z is None or not contains(d, z):
                continue
            proved = sure or lasting and isinstance(d, Punctured) and (np.abs(z) > bound()).any()
            if proved or _leaves(w, d, z):
                return PreservationVerdict(False, z)
        if sure and finite is False:
            lost.append(k)
    if lost:
        raise NonFinite(f"preservation check: no solved point of step {lost[0] + 1} "
                        f"({type(w.steps[lost[0]]).__name__}) pulls back to a finite value")
    return PreservationVerdict(True, None)
