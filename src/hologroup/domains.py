"""The three domain classes, membership, Stein flags, and preservation checks.

A domain is C^n, the punctured space C^n \\ {0}, or C^n minus a nonempty
union of coordinate hyperplanes {z_i = 0}; the first two have an empty
`deleted` set. Membership is exact: a coordinate is "nonzero" iff it
differs from floating-point zero.

`word_preserves_domain` classifies each step of a word once, with
`_escapes`, which states the rule of every generator; its docstring says
how the classes of the steps decide the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonInvertibleStep, SingularPoint
from .words import Diagonal, Inversion, Linear, Overshear, Permutation, Word
from .words import eval_word, eval_word_batch_masked, invert_word

# seeded domain points a word faces once no structural rule rejects it
PRESERVE_SAMPLES = 256


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
    """Exact membership test (no tolerance on the zero comparisons)."""
    return bool(contains_batch(d, np.reshape(z, (1, -1)))[0])


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


def sample_points(d: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded sample of domain points.

    Coordinates are r * exp(i theta) with r uniform on [0.2, 2.0], so
    every coordinate stays clear of the deleted hyperplanes.
    """
    r = rng.uniform(0.2, 2.0, size=(count, d.n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, d.n))
    return r * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# structural analysis

# the constant coordinates of the points at which odd steps are solved
FILLERS = (1.0 + 0.0j, 1.3 + 0.0j, 0.7 + 0.4j, -0.9 + 0.6j)


def _solutions(d: DomainSpec, solves: list, fillers: tuple, generic: bool):
    """For each (coordinate j, solver) pair: the points with constant
    coordinates `fillers`, with z_j set to 0 and then to solve(z), kept
    when finite and in d. When none is kept and `generic`, the same is
    done at one point with pairwise distinct, nonzero coordinates, for
    equations that vanish wherever all coordinates agree."""
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
    - Diagonal: always.
    - Inversion: on a deleted axis; else it escapes where its
      coordinate is 0.
    - Permutation: of the deleted set onto itself; else it escapes where
      a free coordinate that it moves to a deleted slot is 0.
    - Linear: when each deleted row has one nonzero entry, in a deleted
      column; else w_i = 0 is solved, for each other deleted row i, in
      its first free coordinate, else in its last deleted one.
    - Overshear on C^n \\ {0}: when f(0) = 0; else it escapes at the
      unique preimage of the origin. Elsewhere: on a free axis, or with
      f = 0; else f(z') + exp(g(z')) * z_axis = 0 is solved for z_axis.
    Each equation is solved at the points FILLERS (an overshear on
    C^n \\ {0} at the origin); a linear or overshear one that none of
    them solves in d is then solved at one generic point (`_solutions`).
    """
    deleted = d.deleted
    if isinstance(step, Diagonal):
        return None
    if isinstance(step, Inversion):
        if step.axis in deleted:
            return None
        return _solutions(d, [(step.axis - 1, lambda z: 0.0)], FILLERS, False)
    if isinstance(step, Permutation):
        solves = [(j - 1, lambda z: 0.0) for j, img in enumerate(step.perm, start=1)
                  if img in deleted and j not in deleted]
        return _solutions(d, solves, FILLERS, False) if solves else None
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
    if isinstance(d, Punctured):  # an overshear, from here on
        f0, g0 = step.f.constant_term, step.g.constant_term
        if f0 == 0:
            return None
        return _solutions(d, [(step.axis - 1, lambda z: -f0 * np.exp(-g0))], (0.0,), False)
    if step.axis not in deleted or step.f.is_zero:
        return None
    return _solutions(d, [(step.axis - 1, lambda z: -step.f(z) * np.exp(-step.g(z)))],
                      FILLERS, True)


def _pullbacks(w: Word, k: int, points):
    """The solved points of the odd step k, pulled back through the steps
    before it, where the pull-back is finite. A prefix that cannot be
    inverted is refused with NonFinite."""
    try:
        back = invert_word(Word(w.n, w.steps[:k]))
    except (NonInvertibleStep, NonFinite) as exc:
        raise NonFinite(f"preservation check: the steps before step {k + 1} "
                        f"({type(w.steps[k]).__name__}) cannot be inverted: {exc}") from exc
    for local in points:
        try:
            z = eval_word(back, local)
        except SingularPoint:
            continue
        if np.isfinite(z).all():
            yield z


def _leaves(w: Word, d: DomainSpec, z: np.ndarray) -> bool:
    """True when the word sends z out of d or onto a zero it inverts."""
    try:
        return not contains(d, eval_word(w, z))
    except SingularPoint:
        return True


def word_preserves_domain(w: Word, d: DomainSpec, sampler_seed: int) -> PreservationVerdict:
    """Check that the word maps the domain into itself.

    C \\ {0} is read as the complement of {z1 = 0}. The steps are
    classified once, and the verdict is decided as follows:

    - No odd step (every step is an automorphism): True by proof; no
      point is evaluated.
    - One odd step S, in the word B o S o A: False by proof once S has
      a solved escape point p in the domain. A^-1(p) lies in the
      domain, and B maps the domain one-to-one onto itself, so it cannot
      bring S's image back. The witness is the first pull-back A^-1(p),
      computed in floating point, that lies in the domain; it is not
      evaluated again, and rounding may keep its floating-point image
      inside the domain.
    - An odd step whose prefix A cannot be inverted (a step of A^-1
      is singular or not finite) is refused with NonFinite.
    - Otherwise (more odd steps, or no solved point in the domain):
      each pulled-back solved point is verified end to end; on
      C^n \\ {0} a word without inversions is then tested at the
      preimage of the origin; last, PRESERVE_SAMPLES seeded domain
      points are tried. The first escaping point is the witness, and a
      True from this branch is sampled, not proved.
    """
    if w.n != d.n:
        raise DimensionMismatch(f"word dimension {w.n} != domain dimension {d.n}")
    d = HyperplaneComplement(1, {1}) if d == Punctured(1) else d
    odd = [(k, points) for k, step in enumerate(w.steps)
           if (points := _escapes(step, d)) is not None]
    if not odd:
        return PreservationVerdict(True, None)
    for k, points in odd:
        for z in _pullbacks(w, k, points):
            if contains(d, z) and (len(odd) == 1 or _leaves(w, d, z)):
                return PreservationVerdict(False, z)
    if isinstance(d, Punctured) and not any(isinstance(s, Inversion) for s in w.steps):
        # composite rule: a word without inversions preserves C^n \ {0}
        # iff it fixes 0
        origin = np.zeros(w.n, dtype=np.complex128)
        try:
            if np.any(eval_word(w, origin) != 0):
                z = eval_word(invert_word(w), origin)
                if contains(d, z) and _leaves(w, d, z):
                    return PreservationVerdict(False, z)
        except (NonInvertibleStep, NonFinite):
            pass
    rng = np.random.default_rng(sampler_seed)
    pts = sample_points(d, PRESERVE_SAMPLES, rng)
    images, valid = eval_word_batch_masked(w, pts)
    ok = valid & contains_batch(d, np.where(valid[:, None], images, 1.0))
    bad = np.flatnonzero(~ok)
    if bad.size:
        return PreservationVerdict(False, pts[bad[0]])
    return PreservationVerdict(True, None)
