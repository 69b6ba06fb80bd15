"""Seeded random word generators with bounded coefficient growth.

Magnitude bounds keep exp(g) compositions well inside double range so
round-trip and finite-difference tolerances are meaningful: overshear
f has degree <= 2 with |coeff| <= 2, g degree <= 1 with |coeff| <= 0.4,
diagonal and linear scales stay in [0.3, 2]. `admissible_points` then
rejects sample points whose orbit dips below 0.05 before an inversion
or grows past magnitude 20 at any step boundary.
"""

import numpy as np

from hologroup import (Diagonal, HyperplaneComplement, Inversion, Linear, Overshear,
                       Permutation, Poly, Punctured, Word, eval_word_batch_masked,
                       invert_word)


def nonzero_scalar(rng, lo: float = 0.3, hi: float = 2.0) -> complex:
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def bounded_poly(rng, n: int, axis: int, degree: int, max_terms: int,
                 bound: float, force_nonconstant: bool = False) -> Poly:
    terms = {}
    if force_nonconstant:
        j = int(rng.choice([v for v in range(n) if v != axis - 1]))
        exps = tuple(int(rng.integers(1, degree + 1)) if v == j else 0
                     for v in range(n))
        terms[exps] = rng.uniform(0.3, bound) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    for _ in range(int(rng.integers(0, max_terms + 1))):
        exps = tuple(int(rng.integers(0, degree + 1)) if v != axis - 1 else 0
                     for v in range(n))
        if exps in terms:
            continue
        terms[exps] = rng.uniform(0.0, bound) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return Poly(n, terms)


def random_overshear(rng, n: int, force_nonconstant_f: bool = False) -> Overshear:
    axis = int(rng.integers(1, n + 1))
    f = bounded_poly(rng, n, axis, degree=2, max_terms=2, bound=2.0,
                     force_nonconstant=force_nonconstant_f)
    g = bounded_poly(rng, n, axis, degree=1, max_terms=2, bound=0.4)
    return Overshear(axis, f, g)


def random_permutation(rng, n: int, nontrivial: bool = False) -> Permutation:
    while True:
        perm = tuple(int(p) for p in rng.permutation(n) + 1)
        if not nontrivial or perm != tuple(range(1, n + 1)):
            return Permutation(perm)


def random_diagonal(rng, n: int) -> Diagonal:
    return Diagonal(tuple(nonzero_scalar(rng) for _ in range(n)))


def random_linear(rng, n: int) -> Linear:
    # unitary times a bounded diagonal: always comfortably invertible
    gauss = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(gauss)
    scales = np.array([nonzero_scalar(rng, 0.5, 1.5) for _ in range(n)])
    return Linear(q * scales[None, :])


def random_step(rng, n: int, allow_inversion: bool = True):
    kind = int(rng.integers(0, 5 if allow_inversion else 4))
    if kind == 0:
        return random_overshear(rng, n)
    if kind == 1:
        return random_permutation(rng, n)
    if kind == 2:
        return random_diagonal(rng, n)
    if kind == 3:
        return random_linear(rng, n)
    return Inversion(int(rng.integers(1, n + 1)))


def random_word(rng, n: int, max_steps: int = 4, allow_inversion: bool = True) -> Word:
    count = int(rng.integers(1, max_steps + 1))
    return Word(n, tuple(random_step(rng, n, allow_inversion) for _ in range(count)))


def pure_diagonal_word(rng, n: int, max_steps: int = 3) -> Word:
    count = int(rng.integers(1, max_steps + 1))
    return Word(n, tuple(random_diagonal(rng, n) for _ in range(count)))


def diag_inversion_word(rng, n: int, max_steps: int = 4) -> Word:
    steps = []
    for _ in range(int(rng.integers(1, max_steps + 1))):
        if rng.integers(0, 2):
            steps.append(random_diagonal(rng, n))
        else:
            steps.append(Inversion(int(rng.integers(1, n + 1))))
    return Word(n, tuple(steps))


def exact_diagonal_step(rng, n: int):
    """A step that is exactly z -> lam * z: a diagonal, a linear map with
    zero off-diagonal entries, or a multiplier exp(c) on one axis."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return random_diagonal(rng, n)
    if kind == 1:
        return Linear(np.diag([nonzero_scalar(rng) for _ in range(n)]))
    g = Poly.constant(n, rng.uniform(-0.7, 0.7) + 1j * rng.uniform(0.0, 2.0 * np.pi))
    return Overshear(int(rng.integers(1, n + 1)), Poly.zero(n), g)


def exact_diagonal_word(rng, n: int, max_steps: int = 4) -> Word:
    count = int(rng.integers(0, max_steps + 1))
    return Word(n, tuple(exact_diagonal_step(rng, n) for _ in range(count)))


def monomial_word(rng, n: int, multipliers, max_steps: int = 5, close: bool = True) -> Word:
    """A word of diagonals, permutations, monomial linear maps and
    constant-g overshears: each step is z -> (lam_i * z_src[i])_i. The
    multipliers are drawn from `multipliers`, those of a linear map only
    from the ones within 1e±100, whose determinant stays finite; with
    `close`, a last permutation undoes the composite one, so the word is
    diagonal."""
    def lam(pool=tuple(multipliers)):
        return [complex(pool[int(rng.integers(len(pool)))]) for _ in range(n)]

    moderate = tuple(v for v in multipliers if 1e-100 < abs(v) < 1e100)

    steps, src = [], np.arange(n)
    for _ in range(int(rng.integers(0, max_steps + 1))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            steps.append(Diagonal(tuple(lam())))
            continue
        if kind == 3:
            g = Poly.constant(n, rng.uniform(-0.7, 0.7) + 1j * rng.uniform(0.0, 2.0 * np.pi))
            steps.append(Overshear(int(rng.integers(1, n + 1)), Poly.zero(n), g))
            continue
        step_src = rng.permutation(n)
        if kind == 1:
            steps.append(Permutation(tuple(np.argsort(step_src) + 1)))
        else:
            m = np.zeros((n, n), dtype=np.complex128)
            m[np.arange(n), step_src] = lam(moderate)
            steps.append(Linear(m))
        src = src[step_src]
    if close:
        steps.append(Permutation(tuple(src + 1)))
    return Word(n, tuple(steps))


def automorphism_step(rng, d):
    """A step that maps the domain d bijectively onto itself."""
    n = d.n
    if not isinstance(d, HyperplaneComplement):
        step = random_step(rng, n, allow_inversion=False)
        if isinstance(d, Punctured) and isinstance(step, Overshear):
            f = Poly(n, {e: c for e, c in step.f.terms.items() if any(e)})
            step = Overshear(step.axis, f, step.g)  # f(0) = 0 fixes the origin
        return step
    deleted = sorted(d.deleted)
    free = [a for a in range(1, n + 1) if a not in d.deleted]
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return random_diagonal(rng, n)
    if kind == 1:
        return Inversion(int(rng.choice(deleted)))
    # a permutation of each of the deleted and the free axes
    perm = np.arange(1, n + 1)
    for block in (deleted, free):
        perm[np.array(block, dtype=int) - 1] = rng.permutation(block)
    if kind == 2:
        return Permutation(tuple(int(p) for p in perm))
    if kind == 3:
        # deleted rows monomial in deleted columns; free rows may also
        # reach into deleted columns without losing invertibility
        m = np.zeros((n, n), dtype=np.complex128)
        for i, j in enumerate(perm):
            m[i, j - 1] = nonzero_scalar(rng)
            if i + 1 in free:
                for k in deleted:
                    m[i, k - 1] += rng.normal()
        return Linear(m)
    step = random_overshear(rng, n)
    return step if step.axis in free else Overshear(step.axis, Poly.zero(n), step.g)


def automorphism_word(rng, d, max_steps: int = 4) -> Word:
    count = int(rng.integers(0, max_steps + 1))
    return Word(d.n, tuple(automorphism_step(rng, d) for _ in range(count)))


def offender_word(rng, n: int) -> Word:
    """Diagonal steps around one step that breaks torus commutation."""
    if rng.integers(0, 2):
        bad = random_overshear(rng, n, force_nonconstant_f=True)
    else:
        bad = random_permutation(rng, n, nontrivial=True)
    steps = [random_diagonal(rng, n) for _ in range(int(rng.integers(0, 2)))]
    steps.append(bad)
    steps.extend(random_diagonal(rng, n) for _ in range(int(rng.integers(0, 2))))
    return Word(n, tuple(steps))


def point_batch(rng, count: int, n: int, lo: float = 0.25, hi: float = 1.8) -> np.ndarray:
    r = rng.uniform(lo, hi, size=(count, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return r * np.exp(1j * ang)


def admissible_mask(word: Word, pts: np.ndarray, floor: float = 0.05,
                    cap: float = 20.0) -> np.ndarray:
    cur = pts
    ok = np.ones(pts.shape[0], dtype=bool)
    for step in word.steps:
        if isinstance(step, Inversion):
            ok &= np.abs(cur[:, step.axis - 1]) >= floor
        cur, valid = eval_word_batch_masked(Word(word.n, (step,)), cur)
        ok &= valid
        with np.errstate(invalid="ignore"):
            ok &= np.asarray(np.all(np.abs(cur) <= cap, axis=1))
        cur = np.where(ok[:, None], cur, 1.0)
    return ok


def admissible_points(word: Word, rng, count: int, n: int) -> np.ndarray:
    """Points whose forward and backward orbits stay numerically tame."""
    from hologroup import compose
    round_trip = compose(word, invert_word(word))
    out = []
    for _ in range(60):
        cand = point_batch(rng, 4 * count, n)
        keep = cand[admissible_mask(round_trip, cand)]
        out.extend(keep[: count - len(out)])
        if len(out) >= count:
            return np.array(out)
    raise AssertionError(f"could not find {count} admissible points for {word}")


def exact_repair_word(rng, d) -> Word:
    """a, then u, then u^-1, then b, as one word that preserves d. u is
    made of overshears or permutations, whose inverses are exact, so the word
    is a then b in exact arithmetic, while each step of u and u^-1 may
    leave d. u has 1-3 steps, and the nonconstant terms of an overshear's
    f are scaled by 10^0..10^6, so that u^-1 may cancel large values and
    leave rounding errors far above the point that u moves the origin
    to. a and b are 0-2 automorphisms of d: overshears, permutations or
    inversions on deleted axes."""
    def ends():
        steps, count = [], int(rng.integers(0, 3))
        while len(steps) < count:
            step = automorphism_step(rng, d)
            if not isinstance(step, (Diagonal, Linear)):
                steps.append(step)
        return tuple(steps)

    def undone():
        if rng.integers(0, 2):
            return random_permutation(rng, d.n)
        o, s = random_overshear(rng, d.n), 10.0 ** int(rng.integers(0, 7))
        f = Poly(d.n, {e: c * s if any(e) else c for e, c in o.f.terms.items()})
        return Overshear(o.axis, f, o.g)

    a = ends()
    u = Word(d.n, tuple(undone() for _ in range(int(rng.integers(1, 4)))))
    return Word(d.n, a + u.steps + invert_word(u).steps + ends())
