import numpy as np
import pytest

from hologroup import (Diagonal, DimensionMismatch, DomainNotPreserved,
                       ExponentMatrix, FullSpace, HyperplaneComplement,
                       Inversion, NonFinite, NotDiagonal, NotUnimodular, Overshear, Poly,
                       TorusElement, Word, apply_torus, commutes_with_torus,
                       compose, extract_diagonal, integer_det,
                       validate_exponent_matrix)
from oracles import det2
from wordgen import offender_word, pure_diagonal_word


def torus(a):
    return ExponentMatrix(len(a), tuple(tuple(r) for r in a))


def test_apply_torus_examples():
    ident = torus([[1, 0], [0, 1]])
    assert np.allclose(apply_torus(ident, TorusElement((0.0, 0.0)), [1, 2]), [1, 2])
    assert np.allclose(apply_torus(ident, TorusElement((np.pi, 0.0)), [1, 2]),
                       [-1, 2], atol=1e-12)
    mix = torus([[1, 1], [0, 1]])
    got = apply_torus(mix, TorusElement((np.pi, np.pi)), [1, 1])
    assert np.allclose(got, [1, -1], atol=1e-12)


def test_apply_torus_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_torus(torus([[1, 0], [0, 1]]), TorusElement((0.0,)), [1, 2])


def test_torus_coefficients_have_unit_modulus():
    rng = np.random.default_rng(1)
    a = torus([[1, 2], [1, 1]])
    t = TorusElement(tuple(rng.uniform(0, 2 * np.pi, 2)))
    z = np.ones(2, dtype=complex)
    assert np.allclose(np.abs(apply_torus(a, t, z)), 1.0)


def test_group_law():
    rng = np.random.default_rng(2)
    a = torus([[2, 1], [1, 1]])
    for _ in range(50):
        t1 = TorusElement(tuple(rng.uniform(0, 2 * np.pi, 2)))
        t2 = TorusElement(tuple(rng.uniform(0, 2 * np.pi, 2)))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = apply_torus(a, t1, apply_torus(a, t2, z))
        rhs = apply_torus(a, TorusElement(tuple(np.add(t1.theta, t2.theta))), z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_validate_examples():
    assert validate_exponent_matrix([[1, 0], [0, 1]]) == 1
    assert validate_exponent_matrix([[1, 1], [0, 1]]) == 1
    with pytest.raises(NotUnimodular) as err:
        validate_exponent_matrix([[2, 0], [0, 1]])
    assert err.value.det == 2


def test_validate_is_exact_brute_force_2x2():
    vals = range(-2, 3)
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    m = [[a, b], [c, d]]
                    want = det2(m)
                    if want in (1, -1):
                        assert validate_exponent_matrix(m) == want
                    else:
                        with pytest.raises(NotUnimodular) as err:
                            validate_exponent_matrix(m)
                        assert err.value.det == want


def test_integer_det_is_exact_on_large_entries():
    # big enough that float64 determinants round to the wrong integer
    m = [[10 ** 9, 10 ** 9 - 1], [10 ** 9 + 1, 10 ** 9]]
    assert integer_det(m) == 10 ** 18 - (10 ** 18 - 1)
    assert validate_exponent_matrix(m) == 1
    assert integer_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert integer_det([[0, 0], [0, 5]]) == 0


def test_exponent_matrix_type_checks_determinant():
    with pytest.raises(NotUnimodular):
        torus([[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        ExponentMatrix(3, ((1, 0), (0, 1)))


def test_diagonal_words_commute():
    d = FullSpace(2)
    assert commutes_with_torus(Word(2, (Diagonal((2.0, 3j)),)), d, 42).commutes
    assert commutes_with_torus(Word.identity(2), d, 42).commutes


def test_overshear_fails_with_explicit_witness_math():
    # hand-checked counterexample: theta=(pi,0), z=(1,1), w = shear on axis 2
    f = Poly.coordinate(2, 1)
    w = Word(2, (Overshear(2, f, Poly.zero(2)),))
    z = np.array([1.0, 1.0], dtype=complex)
    theta = np.array([np.pi, 0.0])
    tz = np.exp(1j * theta) * z
    w_tz = np.array([tz[0], tz[0] + tz[1]])
    t_wz = np.exp(1j * theta) * np.array([z[0], z[0] + z[1]])
    assert np.max(np.abs(w_tz - t_wz)) > 1.9
    verdict = commutes_with_torus(w, FullSpace(2), 42)
    assert not verdict.commutes
    assert verdict.witness.deviation > 1e-3
    got = np.exp(1j * verdict.witness.theta) * verdict.witness.z
    from hologroup import eval_word
    lhs = eval_word(w, got)
    rhs = np.exp(1j * verdict.witness.theta) * eval_word(w, verdict.witness.z)
    assert np.isclose(np.max(np.abs(lhs - rhs)), verdict.witness.deviation)


def test_centralizer_requires_domain_preservation():
    w = Word(2, (Inversion(1),))
    with pytest.raises(DomainNotPreserved):
        commutes_with_torus(w, FullSpace(2), 42)
    # on its natural domain the check runs (and correctly fails commutation)
    d = HyperplaneComplement(2, frozenset({1}))
    assert not commutes_with_torus(w, d, 42).commutes


def test_overflowing_multiplier_is_refused():
    # exp(800) overflows; the deviation grid used to be NaN and the verdict
    # commutes=False with a NaN deviation
    w = Word(2, (Overshear(1, Poly.zero(2), Poly.constant(2, 800)),))
    d = HyperplaneComplement(2, frozenset({1}))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match="centralizer check"):
            commutes_with_torus(w, d, 3)


def test_extract_examples():
    d = FullSpace(2)
    lam = extract_diagonal(Word(2, (Diagonal((2j, 3.0)),)), d, 42)
    assert np.max(np.abs(lam - np.array([2j, 3.0]))) < 1e-13
    w = compose(Word(2, (Diagonal((2.0, 1.0)),)), Word(2, (Diagonal((3.0, 5.0)),)))
    lam = extract_diagonal(w, d, 42)
    assert np.max(np.abs(lam - np.array([6.0, 5.0]))) < 1e-13
    with pytest.raises(NotDiagonal):
        extract_diagonal(Word(2, (Overshear(2, Poly.coordinate(2, 1),
                                            Poly.zero(2)),)), d, 42)


def test_extract_rejects_permutation_via_dependence_probe():
    from hologroup import Permutation
    w = Word(2, (Permutation((2, 1)),))
    with pytest.raises(NotDiagonal):
        extract_diagonal(w, FullSpace(2), 42)


def test_dichotomy_sample():
    rng = np.random.default_rng(7)
    d = FullSpace(3)
    for _ in range(10):
        good = pure_diagonal_word(rng, 3)
        assert commutes_with_torus(good, d, 11).commutes
        bad = offender_word(rng, 3)
        verdict = commutes_with_torus(bad, d, 11)
        assert not verdict.commutes
        assert verdict.witness.deviation > 1e-3


def test_verdict_deterministic():
    rng = np.random.default_rng(13)
    w = offender_word(rng, 2)
    a = commutes_with_torus(w, FullSpace(2), 5)
    b = commutes_with_torus(w, FullSpace(2), 5)
    assert a.witness.deviation == b.witness.deviation
    assert np.array_equal(a.witness.theta, b.witness.theta)
    assert np.array_equal(a.witness.z, b.witness.z)
