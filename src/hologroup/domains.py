"""The three domain classes, membership, Stein flags, and preservation checks.

A domain is C^n, the punctured space C^n \\ {0}, or C^n minus a nonempty
union of coordinate hyperplanes {z_i = 0}. Membership is exact: a
coordinate is "nonzero" iff it differs from floating-point zero.

`word_preserves_domain` classifies each step of a word once: a step that
maps the domain bijectively onto itself is an automorphism
(`_automorphism`), any other step is odd. A word without odd steps
preserves the domain by proof, and no point is evaluated. A word with
one odd step does not preserve it, by proof, once that step has a solved
escape point in the domain; the witness is that point pulled back
through the steps before it, checked to lie in the domain. Words with
more odd steps have each solved point verified end to end, then face a
seeded sampling pass, so True is a sampled verdict for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonInvertibleStep, SingularPoint
from .words import Inversion, Linear, Overshear, Permutation, Word
from .words import eval_word, eval_word_batch_masked, invert_word

# seeded domain points a word faces once no structural rule rejects it
PRESERVE_SAMPLES = 256


@dataclass(frozen=True)
class FullSpace:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class Punctured:
    """C^n with the origin removed."""

    n: int

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


def _check_dim(d: DomainSpec, z: np.ndarray):
    if z.shape[-1] != d.n:
        raise DimensionMismatch(f"point has {z.shape[-1]} coordinates, domain has {d.n}")


def contains(d: DomainSpec, z) -> bool:
    """Exact membership test (no tolerance on the zero comparisons)."""
    return bool(contains_batch(d, np.reshape(z, (1, -1)))[0])


def contains_batch(d: DomainSpec, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.complex128)
    _check_dim(d, pts)
    if isinstance(d, FullSpace):
        return np.ones(pts.shape[0], dtype=bool)
    if isinstance(d, Punctured):
        return np.any(pts != 0, axis=1)
    cols = np.array(sorted(d.deleted)) - 1
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


def _automorphism(step, d: DomainSpec) -> bool:
    """True only when the step maps d bijectively onto d.

    Inversion is an automorphism only of a complement, on a deleted
    axis. Every other step is an automorphism of C^n, and of
    C^n \\ {0} when it fixes the origin (an overshear needs f(0) = 0).
    On a complement a step must map the deleted coordinates among
    themselves: a diagonal step; an overshear on a free axis, or on a
    deleted axis with f = 0; a permutation of the deleted set onto
    itself; a linear map whose deleted rows each have one nonzero
    entry, in a deleted column. The rule is exact for one step once
    C \\ {0} is read as the complement of {z1 = 0}, as
    `word_preserves_domain` reads it.
    """
    if isinstance(step, Inversion):
        return isinstance(d, HyperplaneComplement) and step.axis in d.deleted
    if isinstance(d, FullSpace):
        return True
    if isinstance(d, Punctured):
        return not isinstance(step, Overshear) or step.f.constant_term == 0
    if isinstance(step, Overshear):
        return step.axis not in d.deleted or step.f.is_zero
    if isinstance(step, Permutation):
        return {step.perm[i - 1] for i in d.deleted} == d.deleted
    if isinstance(step, Linear):
        return all(_row_stays_deleted(step.matrix[i - 1], d) for i in d.deleted)
    return True


def _row_stays_deleted(row: np.ndarray, d: HyperplaneComplement) -> bool:
    """True when the row has one nonzero entry, in a deleted column."""
    support = np.flatnonzero(row)
    return len(support) == 1 and support[0] + 1 in d.deleted


def _point_with(n: int, axis: int, value: complex, filler: complex) -> np.ndarray:
    z = np.full(n, filler, dtype=np.complex128)
    z[axis - 1] = value
    return z


def _step_escapes(step, d: DomainSpec):
    """Solved points that the odd step sends out of d or onto a zero it
    inverts; the caller drops those that miss d.

    Only odd steps come here, so a permutation or linear step acts on a
    complement, and an overshear either moves the origin of C^n \\ {0}
    or acts on a deleted axis with f != 0.
    """
    n = d.n
    if isinstance(step, (Inversion, Permutation)):
        # zero a coordinate that the step inverts, or moves to a deleted slot
        axes = [step.axis] if isinstance(step, Inversion) else [
            j for j, img in enumerate(step.perm, start=1)
            if j not in d.deleted and img in d.deleted]
        for j in axes:
            for filler in FILLERS:
                yield _point_with(n, j, 0.0, filler)
    elif isinstance(step, Linear):
        # a deleted row that is not one entry in a deleted column: solve
        # w_i = 0 for its first free coordinate, else its last deleted one
        for i in sorted(d.deleted):
            row = step.matrix[i - 1]
            if _row_stays_deleted(row, d):
                continue
            support = np.flatnonzero(row)
            free = [j for j in support if j + 1 not in d.deleted]
            j0 = free[0] if free else support[-1]
            for filler in FILLERS:
                z = _point_with(n, j0 + 1, 0.0, filler)
                z[j0] = -(row @ z) / row[j0]
                yield z
    elif isinstance(d, Punctured):
        # f(0) != 0: the unique preimage of the origin
        z = np.zeros(n, dtype=np.complex128)
        z[step.axis - 1] = -step.f.constant_term * np.exp(-step.g.constant_term)
        yield z
    else:
        # solve f(z') + exp(g(z')) * z_axis = 0 for z_axis
        for filler in FILLERS:
            z = np.full(n, filler, dtype=np.complex128)
            z[step.axis - 1] = -step.f(z) * np.exp(-step.g(z))
            yield z


def _pullbacks(w: Word, k: int, d: DomainSpec):
    """The finite solved points of d for the odd step k, pulled back
    through the steps before it; a prefix that cannot be inverted gives
    none."""
    try:
        back = invert_word(Word(w.n, w.steps[:k]))
    except (NonInvertibleStep, NonFinite):
        return
    for local in _step_escapes(w.steps[k], d):
        if np.all(np.isfinite(local)) and contains(d, local):
            try:
                z = eval_word(back, local)
            except SingularPoint:
                continue
            if np.all(np.isfinite(z)):
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
    odd = [k for k, step in enumerate(w.steps) if not _automorphism(step, d)]
    if not odd:
        return PreservationVerdict(True, None)
    for k in odd:
        for z in _pullbacks(w, k, d):
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
