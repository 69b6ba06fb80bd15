"""End-to-end acceptance gate.

Each test exercises one shipped guarantee and prints a single
"criterion N: ...: PASS/FAIL" line (visible under `pytest -s`). The
stated runtime budgets are asserted after a one-time warmup so that
first-call costs (lazy imports, cached polynomial arrays) are not
billed to any criterion.
"""

import time

import numpy as np
import pytest

from hologroup import (Diagonal, FullSpace, HyperplaneComplement, Inversion,
                       Overshear, OvershearPath, Poly, Punctured,
                       TranspositionPath, Word,
                       certify_path, classify_domain, commutes_with_torus,
                       contains, continuity_modulus, eval_word,
                       eval_word_batch,
                       extract_diagonal, invert_word, jacobian_det,
                       jacobian_det_batch, make_contour, path_det,
                       validate_exponent_matrix, winding_index,
                       word_preserves_domain, NotUnimodular)
from oracles import fd_jacobian_det, path_at, quadrature_winding
from wordgen import (admissible_points, diag_inversion_word, offender_word,
                     pure_diagonal_word, random_word)

C21 = HyperplaneComplement(2, frozenset({1}))


def _report(num: int, desc: str, ok: bool, elapsed: float = None):
    suffix = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"criterion {num}: {desc}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run every evaluation path once before anything is timed."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    steps = (Overshear(2, Poly.coordinate(2, 1), Poly(2, {(1, 0): 0.1})),
             Diagonal((2.0, 1j)), Inversion(2))
    w = Word(2, steps)
    eval_word_batch(w, pts)
    jacobian_det_batch(w, pts)
    eval_word_batch(invert_word(w), pts)
    winding_index(Word(2), make_contour(C21, 1, (1.0, 1.0), 1.0))


def test_criterion_1_component_invariant():
    t0 = time.perf_counter()
    contour = make_contour(C21, 1, (1.0, 1.0), 1.0)
    ident = Word(2)
    inv = Word(2, (Inversion(1),))
    res_id = winding_index(ident, contour)
    res_inv = winding_index(inv, contour)
    q_id = quadrature_winding(ident, contour)
    q_inv = quadrature_winding(inv, contour)
    elapsed = time.perf_counter() - t0
    ok = (res_id.index == 1 and res_inv.index == -1
          and isinstance(res_id.index, int) and isinstance(res_inv.index, int)
          and round(q_id) == 1 and round(q_inv) == -1
          and abs(q_id - res_id.raw) < 1e-4 and abs(q_inv - res_inv.raw) < 1e-4
          and elapsed < 1.0)
    _report(1, "identity winds +1, inversion -1, both oracles agree",
            ok, elapsed)


def test_criterion_2_integrality_and_radius_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    d = HyperplaneComplement(2, frozenset({1, 2}))
    worst = 0.0
    invariant = True
    for _ in range(200):
        w = diag_inversion_word(rng, 2)
        indices = set()
        for R in (0.5, 1.0, 2.0):
            res = winding_index(w, make_contour(d, 1, (1.0, 1.0), R))
            worst = max(worst, abs(res.raw - round(res.raw)))
            indices.add(res.index)
        invariant = invariant and len(indices) == 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and invariant and elapsed < 10.0
    _report(2, "200 diagonal/inversion words give integer, radius-invariant "
            "winding", ok, elapsed)


def test_criterion_3_homotopy_certification():
    t0 = time.perf_counter()
    shear = OvershearPath(Overshear(2, Poly.coordinate(2, 1),
                                    Poly(2, {(1, 0): 0.2j})), 2)
    swap = TranspositionPath(1, 2, 2)
    ok = True
    for path in (shear, swap):
        rep = certify_path(path, 1001, 2.0)
        ok = ok and rep.endpoint_err0 < 1e-12 and rep.endpoint_err1 < 1e-12
        ok = ok and rep.min_abs_det > 0.0
        ok = ok and rep.max_inverse_residual < 1e-9
    z = np.array([0.3, -0.4j], dtype=complex)
    for t in np.linspace(0.0, 1.0, 1001):
        closed = (2.0 * t - 1.0) - 1j * (1.0 - t) * np.sin(np.pi * t)
        ok = ok and abs(path_det(swap, float(t)) - closed) < 1e-10
        ok = ok and abs(jacobian_det(path_at(swap, float(t)), z) - closed) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, "both path families certify on the 1001-point grid and the "
            "closed-form determinant matches", ok, elapsed)


def test_criterion_4_continuity_scaling():
    shear = OvershearPath(Overshear(2, Poly.coordinate(2, 1), Poly.zero(2)), 2)
    swap = TranspositionPath(1, 2, 2)
    ok = True
    for path in (shear, swap):
        moduli = [continuity_modulus(path, dt, 2.0)
                  for dt in (1e-2, 5e-3, 2.5e-3)]
        for big, small in zip(moduli, moduli[1:]):
            ok = ok and 0.4 <= small / big <= 0.6
    _report(4, "continuity modulus halves with the time step for both "
            "path families", ok)


def test_criterion_5_centralizer_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    d = FullSpace(2)
    mistakes = 0
    recovery = 0.0
    for _ in range(100):
        w = pure_diagonal_word(rng, 2)
        if not commutes_with_torus(w, d, 7).commutes:
            mistakes += 1
        expected = np.ones(2, dtype=complex)
        for step in w.steps:
            expected *= np.asarray(step.lam)
        lam = extract_diagonal(w, d, 7)
        recovery = max(recovery, float(np.max(np.abs(lam - expected))))
    for _ in range(100):
        w = offender_word(rng, 2)
        verdict = commutes_with_torus(w, d, 7)
        if verdict.commutes or verdict.witness.deviation <= 1e-3:
            mistakes += 1
    elapsed = time.perf_counter() - t0
    ok = mistakes == 0 and recovery < 1e-12 and elapsed < 20.0
    _report(5, "100 diagonal words commute and extract exactly, 100 "
            "offenders produce loud witnesses", ok, elapsed)


def test_criterion_6_word_algebra():
    rng = np.random.default_rng(42)
    worst_resid = 0.0
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        w = random_word(rng, n)
        pts = admissible_points(w, rng, 10, n)
        round_trip = eval_word_batch(invert_word(w), eval_word_batch(w, pts))
        worst_resid = max(worst_resid, float(np.max(np.abs(round_trip - pts))))
        dets = jacobian_det_batch(w, pts)
        for z, det in zip(pts, dets):
            fd = fd_jacobian_det(w, z)
            worst_rel = max(worst_rel, abs(det - fd) / max(abs(fd), 1e-30))
    ok = worst_resid < 1e-9 and worst_rel < 1e-5
    _report(6, "100 random words invert to 1e-9 and match finite-difference "
            "jacobians to 1e-5", ok)


def test_criterion_7_exact_unimodularity():
    ok = True
    vals = range(-2, 3)
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    det = a * d - b * c
                    try:
                        got = validate_exponent_matrix([[a, b], [c, d]])
                        ok = ok and det in (1, -1) and got == det
                    except NotUnimodular as err:
                        ok = ok and det not in (1, -1) and err.det == det
    _report(7, "unimodularity matches brute force on all 625 small matrices", ok)


def test_criterion_8_domain_contract():
    table = [
        (FullSpace(1), "full", True),
        (FullSpace(3), "full", True),
        (Punctured(1), "punctured", True),
        (Punctured(2), "punctured", False),
        (Punctured(3), "punctured", False),
        (HyperplaneComplement(2, frozenset({1})), "complement", True),
        (HyperplaneComplement(3, frozenset({1, 2, 3})), "complement", True),
    ]
    ok = True
    for d, kind, stein in table:
        c = classify_domain(d)
        ok = ok and c.kind == kind and c.is_stein == stein

    verdict = word_preserves_domain(Word(2, (Inversion(1),)), FullSpace(2), 3)
    ok = ok and not verdict.preserves and verdict.witness is not None
    ok = ok and abs(verdict.witness[0]) < 1e-12

    f = Poly.constant(2, 1.0)
    w = Word(2, (Overshear(1, f, Poly.zero(2)),))
    verdict = word_preserves_domain(w, C21, 3)
    ok = ok and not verdict.preserves and verdict.witness is not None
    if verdict.witness is not None:
        witness = np.asarray(verdict.witness)
        image = eval_word(w, witness)
        ok = ok and contains(C21, witness) and not contains(C21, image)
    _report(8, "Stein table is exact and non-preserving words come with "
            "verified escape witnesses", ok)
