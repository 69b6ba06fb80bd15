"""The three domain classes, membership, Stein flags, and preservation checks.

A domain is C^n, the punctured space C^n \\ {0}, or C^n minus a nonempty
union of coordinate hyperplanes {z_i = 0}. Membership is exact: a
coordinate is "nonzero" iff it differs from floating-point zero.

`word_preserves_domain` decides by proof when every step of the word is
an automorphism of the domain (`_automorphism`): such a word maps the
domain bijectively onto itself, so no point is evaluated. Any other word
faces a structural pass (closed-form escape points for the step patterns
that sampling would miss with probability one) and then a seeded
sampling pass. Every structural rejection is backed by a verified
witness: a point of the domain whose image leaves it or hits a singular
inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, NonInvertibleStep, SingularPoint
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
    z = np.asarray(z, dtype=np.complex128)
    _check_dim(d, z)
    if isinstance(d, FullSpace):
        return True
    if isinstance(d, Punctured):
        return bool(np.any(z != 0))
    cols = np.array(sorted(d.deleted)) - 1
    return bool(np.all(z[cols] != 0))


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


def _automorphism(step, d: DomainSpec) -> bool:
    """True only when the step maps d bijectively onto d.

    A sufficient rule, not a test: False means nothing is proved.
    Inversion is an automorphism only of a complement, on a deleted
    axis. Every other step is an automorphism of C^n, and of
    C^n \\ {0} when it fixes the origin (an overshear needs f(0) = 0).
    On a complement a step must map the deleted coordinates among
    themselves: a diagonal step; an overshear on a free axis, or on a
    deleted axis with f = 0; a permutation of the deleted set onto
    itself; a linear map whose deleted rows each have one nonzero
    entry, in a deleted column.
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


def _fillers():
    yield 1.0 + 0.0j
    yield 1.3 + 0.0j
    yield 0.7 + 0.4j
    yield -0.9 + 0.6j


def _point_with(n: int, axis: int, value: complex, filler: complex) -> np.ndarray:
    z = np.full(n, filler, dtype=np.complex128)
    z[axis - 1] = value
    return z


def _overshear_escape(step: Overshear, d: DomainSpec, n: int):
    """Points an overshear that is not an automorphism of d sends into the
    deleted locus, if any."""
    if isinstance(d, HyperplaneComplement):
        # the axis is deleted and f != 0: solve
        # f(z') + exp(g(z')) * z_axis = 0 for z_axis
        for filler in _fillers():
            z = np.full(n, filler, dtype=np.complex128)
            fv = step.f(z)
            if fv == 0:
                continue
            z[step.axis - 1] = -fv * np.exp(-step.g(z))
            if z[step.axis - 1] != 0:
                yield z
    elif d.n >= 2:
        # punctured, and f(0) != 0: the unique preimage of the origin is nonzero
        z = np.zeros(n, dtype=np.complex128)
        z[step.axis - 1] = -step.f.constant_term * np.exp(-step.g.constant_term)
        yield z


def _step_escapes(step, d: DomainSpec, n: int):
    """Candidate escape points of one step; none for an automorphism of d.

    A step that reaches the rules below is not an automorphism, and a
    permutation or linear step that is not one acts on a complement.
    """
    if _automorphism(step, d):
        return
    if isinstance(step, Inversion):
        # undefined wherever coordinate `axis` vanishes inside the domain
        if not (isinstance(d, Punctured) and d.n < 2):
            for filler in _fillers():
                yield _point_with(n, step.axis, 0.0, filler)
        return
    if isinstance(step, Permutation):
        for j, img in enumerate(step.perm, start=1):
            if j not in d.deleted and img in d.deleted:
                for filler in _fillers():
                    yield _point_with(n, j, 0.0, filler)
        return
    if isinstance(step, Linear):
        yield from _linear_escape(step, d, n)
        return
    if isinstance(step, Overshear):
        yield from _overshear_escape(step, d, n)


def _linear_escape(step: Linear, d: HyperplaneComplement, n: int):
    # row i (i deleted) must be a single nonzero entry in a deleted column,
    # otherwise some domain point lands on {w_i = 0}
    for i in sorted(d.deleted):
        row = step.matrix[i - 1]
        if _row_stays_deleted(row, d):
            continue
        support = [j + 1 for j in range(n) if row[j] != 0]
        free = [j for j in support if j not in d.deleted]
        if free:
            # zero out w_i using an unconstrained coordinate
            j0 = free[0]
            for filler in _fillers():
                z = np.full(n, filler, dtype=np.complex128)
                z[j0 - 1] = 0.0
                rest = row @ z
                z[j0 - 1] = -rest / row[j0 - 1]
                yield z
        else:
            # at least two entries on deleted columns: cancel them
            j0 = support[-1]
            for filler in _fillers():
                z = np.full(n, filler, dtype=np.complex128)
                z[j0 - 1] = 0.0
                rest = row @ z
                if rest == 0:
                    continue
                z[j0 - 1] = -rest / row[j0 - 1]
                if z[j0 - 1] != 0:
                    yield z


def _verify_escape(w: Word, d: DomainSpec, cand: Optional[np.ndarray]) -> bool:
    """True iff cand is a genuine counterexample for the whole word."""
    if cand is None or not contains(d, cand):
        return False
    try:
        img = eval_word(w, cand)
    except SingularPoint:
        return True
    return not contains(d, img)


def _structural_witness(w: Word, d: DomainSpec) -> Optional[np.ndarray]:
    for k, step in enumerate(w.steps):
        prefix = Word(w.n, w.steps[:k])
        for local in _step_escapes(step, d, w.n):
            try:
                cand = eval_word(invert_word(prefix), local)
            except (SingularPoint, NonInvertibleStep):
                continue
            if _verify_escape(w, d, cand):
                return cand
    if isinstance(d, Punctured) and d.n >= 2 and not any(
            isinstance(s, Inversion) for s in w.steps):
        # composite rule: an entire word preserves C^n \ {0} iff it fixes 0
        try:
            img0 = eval_word(w, np.zeros(w.n, dtype=np.complex128))
            if np.any(img0 != 0):
                cand = eval_word(invert_word(w), np.zeros(w.n, dtype=np.complex128))
                if _verify_escape(w, d, cand):
                    return cand
        except (SingularPoint, NonInvertibleStep):
            pass
    return None


def word_preserves_domain(w: Word, d: DomainSpec, sampler_seed: int) -> PreservationVerdict:
    """Check that the word maps the domain into itself.

    A word whose every step is an automorphism of the domain preserves
    it by proof, and no point is evaluated. For any other word,
    structural rules run first and catch the measure-zero escapes that
    random sampling cannot see (inversions on coordinates that vanish
    somewhere in the domain, overshears pushed into a deleted
    hyperplane, permutations and linear steps that move the deleted
    set). Each structural rejection carries an explicitly solved
    witness, validated end to end. The remaining words face
    PRESERVE_SAMPLES seeded domain points; the first escaping point is
    returned.
    """
    if w.n != d.n:
        raise DimensionMismatch(f"word dimension {w.n} != domain dimension {d.n}")
    if all(_automorphism(step, d) for step in w.steps):
        return PreservationVerdict(True, None)
    witness = _structural_witness(w, d)
    if witness is not None:
        return PreservationVerdict(False, witness)
    rng = np.random.default_rng(sampler_seed)
    pts = sample_points(d, PRESERVE_SAMPLES, rng)
    images, valid = eval_word_batch_masked(w, pts)
    ok = valid & contains_batch(d, np.where(valid[:, None], images, 1.0))
    bad = np.flatnonzero(~ok)
    if bad.size:
        return PreservationVerdict(False, pts[bad[0]])
    return PreservationVerdict(True, None)
