"""Independent numerical oracles used only by the tests.

These deliberately avoid the library's own analytic formulas: Jacobians
come from central finite differences, winding numbers from trapezoidal
quadrature of the logarithmic derivative, determinants and permutation
signs from brute force. Derived expected values in the tests are
checked against these before (and alongside) the library's answers.
The homotopy checks are redone the plain way, one grid time at a time:
by one word per time, path_at(path, t), or by the family's closed form
on the coordinates it moves.
Diagonal extraction is redone by sampling alone, for every word, as the
library did before it decided some words by proof. Domain preservation
is redone by the structural escape pass alone, which the library ran
before it classified steps, kept here as its own copy with its own step
classification; it reads every word it finds no escape for as
preserving, as the library does. The
sampled centralizer grid is kept as the one broadcast over (64, 64, n)
arrays that it was before it went coordinate by coordinate, and the
whole centralizer as it was before its grid and its points went through
one word pass: a separate rotated grid and two passes. The exact
diagonal of a monomial word is kept as the numpy loop it was before it
tracked its permutation in Python integers: a fancy index and a product
per step, in step order. The word pass is kept as it was before it went
column-major: each step works on the batch in whatever layout it comes,
a C-ordered one from every copy, and returns a new array. The
polynomial kernel is kept as it was before it built its monomials in
reused slots: one new array per monomial. Batch membership and contour
points, which the library computes only for its own calls, are kept
here as references.
"""

import math

import numpy as np

from hologroup import (CentralizerVerdict, CentralizerWitness, CertificationReport,
                       Diagonal, FullSpace, HyperplaneComplement, Inversion, Linear,
                       DimensionMismatch, DomainNotPreserved, NonFinite,
                       NonInvertibleStep, NotDiagonal, OutOfRange, Overshear,
                       OvershearPath, Permutation, PreservationVerdict, Punctured,
                       SingularPoint, Word, contains, eval_word, eval_word_batch,
                       invert_word, jacobian_det_batch, path_target, sample_points,
                       sample_polydisc, word_preserves_domain)
from hologroup import _kernels
from hologroup.errors import quiet, refuse_non_finite
from hologroup.homotopy import CERTIFY_POINTS, DEFAULT_CERTIFY_SEED
from hologroup.torus import COMMUTE_TOL, DIAG_RATIO_TOL, _exact_diagonal
from hologroup.winding import ContourSpec

# extract_diagonal_sampled's dependence probe: nudge each coordinate by
# DIAG_PROBE_STEP and refuse any other output coordinate that moves by
# DIAG_DEPENDENCE_TOL; extract_diagonal decides by its orbit ratio alone,
# so a word that only the probe catches shows as a disagreement
DIAG_PROBE_STEP = 1e-3
DIAG_DEPENDENCE_TOL = 1e-10


def fd_jacobian(word: Word, z, step: float = None) -> np.ndarray:
    """Full complex Jacobian by central differences (real step h)."""
    z = np.asarray(z, dtype=np.complex128)
    n = z.shape[0]
    h = step if step is not None else 1e-6 * max(1.0, float(np.linalg.norm(z)))
    pts = np.repeat(z[None, :], 2 * n, axis=0)
    for k in range(n):
        pts[2 * k, k] += h
        pts[2 * k + 1, k] -= h
    images = eval_word_batch(word, pts)
    jac = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        jac[:, k] = (images[2 * k] - images[2 * k + 1]) / (2.0 * h)
    return jac


def fd_jacobian_det(word: Word, z, step: float = None) -> complex:
    return complex(np.linalg.det(fd_jacobian(word, z, step)))


def contour_points(c: ContourSpec, thetas) -> np.ndarray:
    """The contour's points at the angles thetas: the base point p, with
    R e^(i theta) in the axis coordinate."""
    pts = np.array(np.broadcast_to(np.array(c.p), (len(thetas), c.domain.n)))
    pts[:, c.axis - 1] = c.R * np.exp(1j * np.asarray(thetas, dtype=np.float64))
    return pts


def contains_batch(d, pts) -> np.ndarray:
    """Membership of each row of pts, by the rule `contains` applies to one
    point: a coordinate is nonzero iff it compares `!= 0`."""
    pts = np.asarray(pts, dtype=np.complex128)
    if pts.shape[-1] != d.n:
        raise DimensionMismatch(f"point has {pts.shape[-1]} coordinates, domain has {d.n}")
    if isinstance(d, Punctured):
        return np.any(pts != 0, axis=1)
    cols = np.array(sorted(d.deleted), dtype=np.intp) - 1
    return np.all(pts[:, cols] != 0, axis=1)


def quadrature_winding(word: Word, c: ContourSpec, nodes: int = 4096) -> float:
    """Winding number as (1/2*pi*i) * contour integral of f'/f.

    Parameterized by angle, dz = i R e^{i theta} d theta, so the
    integral becomes the mean of (f'/f) * R e^{i theta} over a uniform
    grid (for a periodic integrand the Riemann sum is the trapezoid
    rule). The derivative is a central difference in the contour
    coordinate with step 1e-6 * R.
    """
    thetas = np.arange(nodes) * (2.0 * np.pi / nodes)
    pts = contour_points(c, thetas)
    s = c.axis - 1
    h = 1e-6 * c.R
    plus = pts.copy()
    plus[:, s] += h
    minus = pts.copy()
    minus[:, s] -= h
    f = eval_word_batch(word, pts)[:, s]
    fprime = (eval_word_batch(word, plus)[:, s]
              - eval_word_batch(word, minus)[:, s]) / (2.0 * h)
    integrand = fprime / f * c.R * np.exp(1j * thetas)
    return float(np.mean(integrand).real)


def det2(m) -> int:
    """Brute-force 2x2 integer determinant."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def permutation_sign_bruteforce(perm) -> int:
    """Sign by counting inversions of the image sequence."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def naive_poly_eval(terms: dict, z) -> complex:
    """Direct term-by-term evaluation with Python complex arithmetic."""
    z = [complex(c) for c in z]
    total = 0j
    for exps, coeff in sorted(terms.items()):
        val = complex(coeff)
        for zj, e in zip(z, exps):
            val *= zj ** e
        total += val
    return total


def poly_eval_fresh(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """_kernels.poly_eval as it was before it built its monomials in reused
    slots: each monomial is a new array, dropped after its last child."""
    const, steps, _ = _kernels.build_plan(exps)
    cs = coeffs.tolist()
    out = np.zeros((coeffs.shape[1], pts.shape[0]), dtype=np.complex128)
    rows_out = list(out)
    for t in const:
        for o, c in zip(rows_out, cs[t]):
            if c:
                o += c
    values = [None] * len(steps)
    tmp = np.empty(pts.shape[0], dtype=np.complex128)
    for k, (parent, v, rows, drop, _) in enumerate(steps):
        m = pts[:, v] if parent < 0 else values[parent] * pts[:, v]
        values[k] = m
        for d in drop:
            values[d] = None
        for t in rows:
            for o, c in zip(rows_out, cs[t]):
                if c:
                    np.multiply(c, m, out=tmp)
                    o += tmp
    return out


def _row_major_step(step, cur, jac: bool, valid):
    """One step's apply_batch as it was before the pass went column-major."""
    if isinstance(step, Overshear):
        a = step.axis - 1
        fv, gv = _kernels.poly_eval(*step._tables, cur)
        out = cur.copy()
        if step.g.is_zero:
            out[:, a] = fv + cur[:, a]
            return out, (1.0 if jac else None)
        hv = np.exp(gv)
        out[:, a] = fv + hv * cur[:, a]
        return out, (hv if jac else None)
    if isinstance(step, Permutation):
        out = np.empty_like(cur)
        out[:, np.array(step.perm) - 1] = cur
        return out, (complex(step.sign) if jac else None)
    if isinstance(step, Diagonal):
        det = complex(np.prod(np.array(step.lam))) if jac else None
        return cur * np.array(step.lam), det
    if isinstance(step, Linear):
        return cur @ step.matrix.T, (step._det if jac else None)
    a = step.axis - 1
    col = cur[:, a]
    zero = col == 0
    skip = zero if valid is None else zero | ~valid
    singular = skip.any()
    if singular:
        if valid is None:
            raise SingularPoint(f"inversion of coordinate {step.axis} at value 0")
        valid &= ~zero
        col = np.where(skip, 1.0, col)
    out = cur.copy()
    out[:, a] = 1.0 / col
    if singular:
        out[skip, a] = np.where(zero, np.nan, cur[:, a])[skip]
    return out, (-1.0 / col ** 2 if jac else None)


def word_pass_row_major(word: Word, pts, jac: bool = False, masked: bool = False):
    """(images, det, valid) of the word on a (P, n) batch, by the pass as
    it was before it went column-major; see words._word_pass."""
    cur = np.asarray(pts, dtype=np.complex128)
    det = np.ones(cur.shape[0], dtype=np.complex128) if jac else None
    valid = np.ones(cur.shape[0], dtype=bool) if masked else None
    if not word.steps:
        cur = cur.copy()
    for step in word.steps:
        cur, d = _row_major_step(step, cur, jac, valid)
        if jac:
            det *= d
    return cur, det, valid


def transposition_block(path, t: float) -> np.ndarray:
    """The transposition path's 2x2 matrix on (z_j, z_k) at time t."""
    return np.array([[t, 1.0 - t], [(1.0 - t) + 1j * path.bump(t), t]],
                    dtype=np.complex128)


def transposition_matrix(path, t: float) -> np.ndarray:
    """The transposition path's (n, n) matrix at time t: the identity, but
    for transposition_block(path, t) on (z_j, z_k)."""
    m = np.eye(path.n, dtype=np.complex128)
    moving = [path.j - 1, path.k - 1]
    m[np.ix_(moving, moving)] = transposition_block(path, t)
    return m


def path_at(path, t: float) -> Word:
    """The path's automorphism at time t as a word: the target at t = 0,
    the identity at t = 1. An overshear path's step has f and g with
    each coefficient scaled by 1 - t; a transposition path's is the
    Linear step of transposition_matrix(path, t)."""
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"path parameter must lie in [0, 1], got {t}")
    if isinstance(path, OvershearPath):
        s = 1.0 - t
        step = Overshear(path.target.axis, path.target.f.scale(s), path.target.g.scale(s))
        return Word(path.n, (step,))
    return Word(path.n, (Linear(transposition_matrix(path, t)),))


def _word_per_time(path, pts):
    """t, certify -> (images, |det|, round trip) at pts of the word
    path_at(path, t), each a separate word pass; without `certify` only
    the images, then None, None."""
    def at(t, certify):
        wt = path_at(path, t)
        images = eval_word_batch(wt, pts)
        if not certify:
            return images, None, None
        return (images, np.abs(jacobian_det_batch(wt, pts)),
                eval_word_batch(invert_word(wt), images))
    return at


def _overshear_closed_form(path, pts):
    """As _word_per_time, for an overshear path in closed form: with f(z)
    and g(z) evaluated once, the image's axis coordinate at time t is
    (1-t) f + exp((1-t) g) z_s, |det| is exp((1-t) Re g), and the round
    trip is exp(-(1-t) g) (w_s - (1-t) f). Each exp((+-)(1-t) g) is taken in
    modulus-phase form, exp((+-)(1-t) Re g) times cos((1-t) Im g) +- i
    sin((1-t) Im g). It agrees with the word path_at(path, t), whose
    coefficients are scaled before the terms are summed and whose exp is
    complex, to rounding."""
    s = path.target.axis - 1
    f, g = path.target.f.eval_batch(pts), path.target.g.eval_batch(pts)

    def polar(mod, c, sn):
        out = np.empty(len(mod), dtype=np.complex128)
        out.real = mod * c
        out.imag = mod * sn
        return out

    def at(t, certify):
        scale = 1.0 - t
        c, sn = np.cos(scale * g.imag), np.sin(scale * g.imag)
        mod = np.exp(scale * g.real)
        fv = scale * f
        images = pts.copy()
        images[:, s] = fv + polar(mod, c, sn) * pts[:, s]
        if not certify:
            return images, None, None
        back = pts.copy()
        back[:, s] = polar(np.exp(-(scale * g.real)), c, -sn) * (images[:, s] - fv)
        return images, mod, back
    return at


def _transposition_closed_form(path, pts):
    """As _word_per_time, for a transposition path on its (j, k) block
    alone: at time t the image's (z_j, z_k) is transposition_block(path, t)
    times them, |det| is the block's at every point, and the round trip
    multiplies by the block's inverse. It agrees with the word
    path_at(path, t), whose (n, n) products, determinant and inverse also
    run over the coordinates the path leaves alone, to rounding; at n <= 3
    bit for bit."""
    moving = [path.j - 1, path.k - 1]

    def at(t, certify):
        m = transposition_block(path, t)
        images = pts.copy()
        images[:, moving] = pts[:, moving] @ m.T
        if not certify:
            return images, None, None
        back = pts.copy()
        back[:, moving] = images[:, moving] @ np.linalg.inv(m).T
        return images, np.full(len(pts), np.abs(np.linalg.det(m))), back
    return at


def _per_time(path, sample_radius: float, seed: int, closed_form: bool):
    pts = sample_polydisc(path.n, CERTIFY_POINTS, sample_radius,
                          np.random.default_rng(seed))
    if not closed_form:
        return pts, _word_per_time(path, pts)
    if isinstance(path, OvershearPath):
        return pts, _overshear_closed_form(path, pts)
    return pts, _transposition_closed_form(path, pts)


def certify_path_per_time(path, grid_size: int, sample_radius: float,
                          seed: int = DEFAULT_CERTIFY_SEED,
                          closed_form: bool = False) -> CertificationReport:
    """certify_path one grid time at a time.

    Per time: images, Jacobian determinants and the round trip, by the
    word path_at(path, t) and invert_word, each a separate word pass, or
    with `closed_form` by the family's closed form on the coordinates it
    moves. The closed form is the straightforward algorithm that the
    library's block evaluation must reproduce exactly.
    """
    pts, at = _per_time(path, sample_radius, seed, closed_form)
    min_det = np.inf
    max_resid = 0.0
    for t in np.linspace(0.0, 1.0, grid_size):
        _, dets, back = at(float(t), True)
        min_det = min(min_det, float(np.min(dets)))
        max_resid = max(max_resid, float(np.max(np.abs(back - pts))))
    target_images = eval_word_batch(path_target(path), pts)
    err0 = float(np.max(np.abs(at(0.0, False)[0] - target_images)))
    err1 = float(np.max(np.abs(at(1.0, False)[0] - pts)))
    return CertificationReport(err0, err1, float(min_det), max_resid)


def continuity_modulus_per_time(path, dt: float, sample_radius: float,
                                seed: int = DEFAULT_CERTIFY_SEED,
                                closed_form: bool = False) -> float:
    """continuity_modulus one grid time at a time, as certify_path_per_time."""
    pts, at = _per_time(path, sample_radius, seed, closed_form)
    steps = int(np.floor(1.0 / dt + 1e-9))
    times = np.minimum(np.arange(steps + 1) * dt, 1.0)
    modulus = 0.0
    prev = at(float(times[0]), False)[0]
    for t in times[1:]:
        cur = at(float(t), False)[0]
        modulus = max(modulus, float(np.max(np.abs(cur - prev))))
        prev = cur
    return modulus


def automorphism(step, d) -> bool:
    """True when the step maps d bijectively onto d (C \\ {0} taken as a
    punctured space, on which no inversion is one)."""
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


def _row_stays_deleted(row, d) -> bool:
    support = np.flatnonzero(row)
    return len(support) == 1 and support[0] + 1 in d.deleted


FILLERS = (1.0 + 0.0j, 1.3 + 0.0j, 0.7 + 0.4j, -0.9 + 0.6j)


def _point_with(n: int, axis: int, value: complex, filler: complex) -> np.ndarray:
    z = np.full(n, filler, dtype=np.complex128)
    z[axis - 1] = value
    return z


def _step_escapes(step, d, n: int):
    """Solved escape points of one step; none for an automorphism of d."""
    if automorphism(step, d):
        return
    if isinstance(step, Inversion):
        if not (isinstance(d, Punctured) and d.n < 2):
            for filler in FILLERS:
                yield _point_with(n, step.axis, 0.0, filler)
    elif isinstance(step, Permutation):
        for j, img in enumerate(step.perm, start=1):
            if j not in d.deleted and img in d.deleted:
                for filler in FILLERS:
                    yield _point_with(n, j, 0.0, filler)
    elif isinstance(step, Linear):
        for i in sorted(d.deleted):
            row = step.matrix[i - 1]
            if _row_stays_deleted(row, d):
                continue
            support = [j + 1 for j in range(n) if row[j] != 0]
            free = [j for j in support if j not in d.deleted]
            if free:
                # zero out w_i using an unconstrained coordinate
                j0 = free[0]
                for filler in FILLERS:
                    z = _point_with(n, j0, 0.0, filler)
                    z[j0 - 1] = -(row @ z) / row[j0 - 1]
                    yield z
            else:
                # at least two entries on deleted columns: cancel them
                j0 = support[-1]
                for filler in FILLERS:
                    z = _point_with(n, j0, 0.0, filler)
                    rest = row @ z
                    if rest == 0:
                        continue
                    z[j0 - 1] = -rest / row[j0 - 1]
                    if z[j0 - 1] != 0:
                        yield z
    elif isinstance(step, Overshear):
        if isinstance(d, HyperplaneComplement):
            for filler in FILLERS:
                z = np.full(n, filler, dtype=np.complex128)
                fv = step.f(z)
                if fv == 0:
                    continue
                z[step.axis - 1] = -fv * np.exp(-step.g(z))
                if z[step.axis - 1] != 0:
                    yield z
        elif d.n >= 2:
            z = np.zeros(n, dtype=np.complex128)
            z[step.axis - 1] = -step.f.constant_term * np.exp(-step.g.constant_term)
            yield z


def _escapes_end_to_end(w: Word, d, cand) -> bool:
    if not contains(d, cand):
        return False
    try:
        return not contains(d, eval_word(w, cand))
    except SingularPoint:
        return True


def structural_witness(w: Word, d):
    """The structural escape pass: each solved point of each step, pulled
    back through the steps before it (inverted anew for every point), is
    returned once the whole word sends it out of d; then, on a punctured
    space, the preimage of the origin under a word without inversions."""
    for k, step in enumerate(w.steps):
        prefix = Word(w.n, w.steps[:k])
        for local in _step_escapes(step, d, w.n):
            try:
                cand = eval_word(invert_word(prefix), local)
            except (SingularPoint, NonInvertibleStep, NonFinite):
                continue
            if _escapes_end_to_end(w, d, cand):
                return cand
    if isinstance(d, Punctured) and d.n >= 2 and not any(
            isinstance(s, Inversion) for s in w.steps):
        origin = np.zeros(w.n, dtype=np.complex128)
        try:
            if np.any(eval_word(w, origin) != 0):
                cand = eval_word(invert_word(w), origin)
                if _escapes_end_to_end(w, d, cand):
                    return cand
        except (SingularPoint, NonInvertibleStep, NonFinite):
            pass
    return None


def preserves_structural(w: Word, d) -> PreservationVerdict:
    """word_preserves_domain without any proof: False with the structural
    escape pass's witness, for every word, else True."""
    witness = structural_witness(w, d)
    return PreservationVerdict(witness is None, witness)


def extract_diagonal_sampled(w: Word, seed: int) -> np.ndarray:
    """extract_diagonal by sampling, for every word: the orbit ratio at one
    seeded point, checked at 32 more and by a dependence probe. A ratio
    that is not finite is refused first, as extract_diagonal refuses it."""
    rng = np.random.default_rng(seed)
    n = w.n
    r = rng.uniform(0.5, 1.5, size=(33, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(33, n))
    pts = r * np.exp(1j * ang)
    images = eval_word_batch(w, pts)
    with quiet():
        ratios = refuse_non_finite(images / pts, "diagonal extraction: the orbit ratio "
                                   "w(p) / p", lambda i: f"p {pts[i]}")
    lam = ratios[0]
    drift = np.abs(ratios[1:] - lam[None, :])
    bad = np.flatnonzero(np.max(drift, axis=1) >= DIAG_RATIO_TOL)
    if bad.size:
        raise NotDiagonal("orbit ratio is not constant across sample points",
                          point=pts[1 + bad[0]])
    probes = np.repeat(pts, n, axis=0)
    probes[np.arange(33 * n), np.tile(np.arange(n), 33)] += DIAG_PROBE_STEP
    shifts = np.abs(eval_word_batch(w, probes) - np.repeat(images, n, axis=0))
    shifts = shifts.reshape(33, n, n)
    cross = np.max(np.where(np.eye(n, dtype=bool)[None, :, :], 0.0, shifts), axis=(1, 2))
    bad = np.flatnonzero(cross >= DIAG_DEPENDENCE_TOL)
    if bad.size:
        raise NotDiagonal("an output coordinate depends on a foreign input coordinate",
                          point=pts[bad[0]])
    return lam


def commutes_with_torus_sampled(w: Word, d, seed: int) -> CentralizerVerdict:
    """The sampled half of commutes_with_torus as one broadcast over
    (64, 64, n) arrays; the caller checks that w preserves d and is not
    exactly diagonal."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(64, w.n))
    pts = sample_points(d, 64, rng)
    coeffs = np.exp(1j * thetas)
    rotated = (coeffs[:, None, :] * pts[None, :, :]).reshape(-1, w.n)
    w_of_tz = eval_word_batch(w, rotated).reshape(64, 64, w.n)
    t_of_wz = coeffs[:, None, :] * eval_word_batch(w, pts)[None, :, :]
    dev = np.max(np.abs(w_of_tz - t_of_wz), axis=2)
    worst = float(dev.max())
    if not math.isfinite(worst):
        i, j = np.unravel_index(int(np.flatnonzero(~np.isfinite(dev))[0]), dev.shape)
        raise NonFinite(f"centralizer check: the deviation |w(t(z)) - t(w(z))| is "
                        f"{dev[i, j]} at theta {thetas[i]}, z {pts[j]}, which is not finite")
    if worst < COMMUTE_TOL:
        return CentralizerVerdict(True, None)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return CentralizerVerdict(False, CentralizerWitness(thetas[i], pts[j], worst))


def commutes_with_torus_two_passes(w: Word, d, seed: int) -> CentralizerVerdict:
    """commutes_with_torus as it was before the rotated points and the
    points went through one pass over one batch: the domain guard and the
    exact diagonal as the library decides them, then a separate rotated
    grid, eval_word_batch on it and on the points, and the deviation from
    new arrays for each coordinate."""
    guard = word_preserves_domain(w, d)
    if not guard.preserves:
        raise DomainNotPreserved(
            f"word does not preserve the domain (witness {guard.witness})")
    if _exact_diagonal(w, "centralizer check") is not None:
        return CentralizerVerdict(True, None)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(64, w.n))
    pts = sample_points(d, 64, rng)
    coeffs_t = np.ascontiguousarray(np.exp(1j * thetas).T)
    pts_t = np.ascontiguousarray(pts.T)
    rotated = np.empty((64 * 64, w.n), dtype=np.complex128, order="F")
    for c in range(w.n):
        rotated[:, c] = np.multiply.outer(coeffs_t[c], pts_t[c]).ravel()
    images = eval_word_batch(w, rotated)
    wz = eval_word_batch(w, pts)
    dev = np.zeros((64, 64))
    with quiet():
        for c in range(w.n):
            col = np.abs(images[:, c].reshape(64, 64) - np.multiply.outer(coeffs_t[c], wz[:, c]))
            np.maximum(dev, col, out=dev)
    refuse_non_finite(dev.ravel(), "centralizer check: the deviation |w(t(z)) - t(w(z))|",
                      lambda k: f"theta {thetas[k // 64]}, z {pts[k % 64]}")
    worst = float(dev.max())
    if worst < COMMUTE_TOL:
        return CentralizerVerdict(True, None)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return CentralizerVerdict(False, CentralizerWitness(thetas[i], pts[j], worst))


def _monomial_multipliers(step, n: int):
    """(lam, src) when the step is exactly z -> (lam_i * z_src[i])_i, as
    numpy arrays; else None."""
    if isinstance(step, Diagonal):
        return np.array(step.lam), np.arange(n)
    if isinstance(step, Permutation):
        return np.ones(n, dtype=np.complex128), np.argsort(step.perm)
    if isinstance(step, Linear) and np.all(np.count_nonzero(step.matrix, axis=1) == 1):
        src = np.argmax(step.matrix != 0, axis=1)
        return step.matrix[np.arange(n), src], src
    if isinstance(step, Overshear) and step.f.is_zero \
            and set(step.g.terms) <= {(0,) * n}:
        lam = np.ones(n, dtype=np.complex128)
        lam[step.axis - 1] = np.exp(step.g.constant_term)
        return lam, np.arange(n)
    return None


def exact_diagonal_numpy(w: Word, what: str):
    """torus._exact_diagonal as a step-order numpy loop: the multipliers
    carried along the composite permutation by fancy indexing, the
    permutation compared with np.array_equal; None for a word that is not
    monomial or whose permutations do not compose to the identity."""
    lam, src = np.ones(w.n, dtype=np.complex128), np.arange(w.n)
    with quiet():
        for step in w.steps:
            mult = _monomial_multipliers(step, w.n)
            if mult is None:
                return None
            lam, src = lam[mult[1]] * mult[0], src[mult[1]]
    if not np.array_equal(src, np.arange(w.n)):
        return None
    if not np.all(np.isfinite(lam)):
        raise NonFinite(f"{what}: the diagonal multipliers multiply to {lam}, "
                        f"which is not finite")
    return lam
