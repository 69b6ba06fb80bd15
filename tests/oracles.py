"""Independent numerical oracles used only by the tests.

These deliberately avoid the library's own analytic formulas: Jacobians
come from central finite differences, winding numbers from trapezoidal
quadrature of the logarithmic derivative, determinants and permutation
signs from brute force. Derived expected values in the tests are
checked against these before (and alongside) the library's answers.
The homotopy checks are redone the plain way, one word per grid time.
Domain preservation and diagonal extraction are redone by sampling
alone, for every word, as the library did before it decided some words
by proof.
"""

import numpy as np

from hologroup import (CertificationReport, NotDiagonal, PreservationVerdict, Word,
                       contains_batch, eval_word_batch, eval_word_batch_masked,
                       invert_word, jacobian_det_batch, path_at, path_target,
                       sample_points, sample_polydisc)
from hologroup.domains import PRESERVE_SAMPLES, _structural_witness
from hologroup.homotopy import CERTIFY_POINTS, DEFAULT_CERTIFY_SEED
from hologroup.torus import DIAG_DEPENDENCE_TOL, DIAG_PROBE_STEP, DIAG_RATIO_TOL
from hologroup.winding import ContourSpec, contour_points


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


def certify_path_per_time(path, grid_size: int, sample_radius: float,
                          seed: int = DEFAULT_CERTIFY_SEED) -> CertificationReport:
    """certify_path by building the word path_at(path, t) at every grid time.

    Per time: images, Jacobian determinants and the round trip through
    invert_word, each a separate word pass. This is the straightforward
    algorithm that the library's block evaluation must reproduce exactly.
    """
    pts = sample_polydisc(path.n, CERTIFY_POINTS, sample_radius,
                          np.random.default_rng(seed))
    min_det = np.inf
    max_resid = 0.0
    for t in np.linspace(0.0, 1.0, grid_size):
        wt = path_at(path, float(t))
        images = eval_word_batch(wt, pts)
        min_det = min(min_det, float(np.min(np.abs(jacobian_det_batch(wt, pts)))))
        back = eval_word_batch(invert_word(wt), images)
        max_resid = max(max_resid, float(np.max(np.abs(back - pts))))
    target_images = eval_word_batch(path_target(path), pts)
    err0 = float(np.max(np.abs(eval_word_batch(path_at(path, 0.0), pts) - target_images)))
    err1 = float(np.max(np.abs(eval_word_batch(path_at(path, 1.0), pts) - pts)))
    return CertificationReport(err0, err1, float(min_det), max_resid)


def continuity_modulus_per_time(path, dt: float, sample_radius: float,
                                seed: int = DEFAULT_CERTIFY_SEED) -> float:
    """continuity_modulus by evaluating path_at(path, t) at every grid time."""
    pts = sample_polydisc(path.n, CERTIFY_POINTS, sample_radius,
                          np.random.default_rng(seed))
    steps = int(np.floor(1.0 / dt + 1e-9))
    times = np.minimum(np.arange(steps + 1) * dt, 1.0)
    modulus = 0.0
    prev = eval_word_batch(path_at(path, float(times[0])), pts)
    for t in times[1:]:
        cur = eval_word_batch(path_at(path, float(t)), pts)
        modulus = max(modulus, float(np.max(np.abs(cur - prev))))
        prev = cur
    return modulus


def preserves_sampled(w: Word, d, sampler_seed: int) -> PreservationVerdict:
    """word_preserves_domain without the automorphism proof: the structural
    escape pass, then PRESERVE_SAMPLES seeded points, for every word."""
    witness = _structural_witness(w, d)
    if witness is not None:
        return PreservationVerdict(False, witness)
    pts = sample_points(d, PRESERVE_SAMPLES, np.random.default_rng(sampler_seed))
    images, valid = eval_word_batch_masked(w, pts)
    ok = valid & contains_batch(d, np.where(valid[:, None], images, 1.0))
    bad = np.flatnonzero(~ok)
    if bad.size:
        return PreservationVerdict(False, pts[bad[0]])
    return PreservationVerdict(True, None)


def extract_diagonal_sampled(w: Word, seed: int) -> np.ndarray:
    """extract_diagonal by sampling, for every word: the orbit ratio at one
    seeded point, checked at 32 more and by a dependence probe."""
    rng = np.random.default_rng(seed)
    n = w.n
    r = rng.uniform(0.5, 1.5, size=(33, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(33, n))
    pts = r * np.exp(1j * ang)
    images = eval_word_batch(w, pts)
    ratios = images / pts
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
