import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologroup import (Diagonal, DomainNotPreserved, FullSpace,
                       HyperplaneComplement, Inversion, Linear, NonFinite, NotDiagonal,
                       NotUnimodular, Overshear, Permutation, Poly, Punctured, Word,
                       commutes_with_torus, compose, extract_diagonal, integer_det,
                       invert_word, validate_exponent_matrix)
from hologroup.torus import _exact_diagonal
from oracles import commutes_with_torus_sampled, det2, extract_diagonal_sampled
from wordgen import (automorphism_word, exact_diagonal_word, offender_word,
                     pure_diagonal_word, random_word)


def monomial(step) -> bool:
    """True when the step is a coordinate permutation followed by a
    diagonal map."""
    if isinstance(step, (Diagonal, Permutation)):
        return True
    if isinstance(step, Linear):
        return bool(np.all(np.count_nonzero(step.matrix, axis=1) == 1))
    return (isinstance(step, Overshear) and step.f.is_zero
            and all(not any(e) for e in step.g.terms))


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
    with pytest.raises(NonFinite, match="centralizer check"):
        commutes_with_torus(w, d, 3)


# z2 -> z1 + e^800 z2: not diagonal, and it overflows everywhere
E800 = Word(2, (Overshear(2, Poly.coordinate(2, 1), Poly.constant(2, 800.0)),))


def test_overflowing_word_is_refused_without_a_warning():
    # extraction returned [1-0j, inf+nanj] at seeds 3 and 42, after a
    # RuntimeWarning from the divide: a NaN drift passes ">= 1e-9"; the
    # centralizer warned "invalid value encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (1, 2, 3, 42):
            with pytest.raises(NonFinite, match=r"^diagonal extraction: the orbit ratio "
                                                r"w\(p\) / p is \[.*inf.*\] at p \["):
                extract_diagonal(E800, FullSpace(2), seed)
        with pytest.raises(NonFinite, match=r"^centralizer check: the deviation .* is nan"):
            commutes_with_torus(E800, FullSpace(2), 3)


def test_overflowing_probe_shift_is_refused():
    # u u^-1 with u: z2 -> exp(532 z1) z2 is the identity and stays finite at
    # the 33 points of seed 42 (532 Re p1 + log|p2| < 709.5), but nudging one
    # p1 by 1e-3 overflows the middle of the word; the infinite cross shift
    # was read as a dependence on a foreign coordinate (NotDiagonal)
    u = Word(2, (Overshear(2, Poly.zero(2), Poly(2, {(1, 0): 532.0})),))
    with pytest.raises(NonFinite, match="^diagonal extraction: the largest cross shift "
                                        "under a nudge of p is inf at p "):
        extract_diagonal(compose(u, invert_word(u)), FullSpace(2), 42)


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


def test_extract_rejects_permutation_by_the_orbit_ratio():
    w = Word(2, (Permutation((2, 1)),))
    with pytest.raises(NotDiagonal, match="orbit ratio is not constant"):
        extract_diagonal(w, FullSpace(2), 42)


def test_extract_samples_an_undone_shear():
    # u u^-1 is not exactly diagonal, so the orbit ratio and the dependence
    # probe decide it; both pass, with the oracle's bits
    u = Word(2, (Overshear(2, Poly(2, {(1, 0): 1e3}), Poly.zero(2)),))
    w = compose(compose(u, invert_word(u)), Word(2, (Diagonal((2.0, 3j)),)))
    assert _exact_diagonal(w, "") is None
    for seed in (1, 3, 42):
        lam = extract_diagonal(w, FullSpace(2), seed)
        assert lam.tobytes() == extract_diagonal_sampled(w, seed).tobytes()
        assert np.allclose(lam, [2.0, 3j], rtol=1e-12, atol=0)


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


def _same_verdict(w, d, seed) -> bool:
    """Check commutes_with_torus bit for bit against the broadcast oracle:
    the verdict, the witness bytes and deviation, or the NonFinite message.
    False, with nothing checked, for a word that never reaches the grid."""
    try:
        if _exact_diagonal(w, "") is not None:
            return False
    except NonFinite:
        return False
    try:
        got = commutes_with_torus(w, d, seed)
    except DomainNotPreserved:
        return False
    except NonFinite as exc:
        # the broadcast oracle, unlike the library, warns on the overflow
        with pytest.raises(NonFinite) as want, np.errstate(over="ignore", invalid="ignore"):
            commutes_with_torus_sampled(w, d, seed)
        assert str(exc) == str(want.value)
        return True
    want = commutes_with_torus_sampled(w, d, seed)
    assert got.commutes == want.commutes
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.theta.tobytes() == want.witness.theta.tobytes()
        assert got.witness.z.tobytes() == want.witness.z.tobytes()
        assert got.witness.deviation == want.witness.deviation  # > 0, finite
    return True


def _random_domain(rng, n: int, kind: int):
    if kind == 0:
        return FullSpace(n)
    if kind == 1:
        return Punctured(n)
    deleted = rng.choice(np.arange(1, n + 1), int(rng.integers(1, n + 1)), replace=False)
    return HyperplaneComplement(n, frozenset(int(a) for a in deleted))


def test_sampled_grid_matches_the_broadcast_oracle():
    # n = 1..3 on all three domain kinds: random words (Linear steps,
    # inversions), offenders, and automorphisms of the domain (inversions
    # on deleted axes); 1,000 of them reach the sampled grid
    rng = np.random.default_rng(2024)
    sampled = 0
    for i in range(4000):
        n = 1 + i % 3
        d = _random_domain(rng, n, (i // 3) % 3)
        family = (i // 9) % 3
        if family == 1 and n > 1:
            w = offender_word(rng, n)
        elif family == 2:
            w = automorphism_word(rng, d)
        else:
            w = random_word(rng, n)
        sampled += _same_verdict(w, d, int(rng.integers(0, 2 ** 31)))
        if sampled == 1000:
            break
    assert sampled == 1000
    # overflowing multipliers: both refuse, with the same message
    big = (Overshear(2, Poly.zero(2), Poly(2, {(1, 0): 800.0})),
           Overshear(2, Poly.coordinate(2, 1), Poly.constant(2, 800.0)))
    for step in big:
        with pytest.raises(NonFinite, match="centralizer check"):
            commutes_with_torus(Word(2, (step,)), FullSpace(2), 3)
        assert _same_verdict(Word(2, (step,)), FullSpace(2), 3)


def test_large_diagonals_are_decided_exactly():
    # sampling judged these by absolute tolerances: Diagonal((1e6, 1)) was
    # reported as not commuting (deviation about 5e-10 against 1e-10), and
    # extraction raised NotDiagonal at 1e8
    d = FullSpace(2)
    assert commutes_with_torus(Word(2, (Diagonal((1e6, 1)),)), d, 42).commutes
    lam = extract_diagonal(Word(2, (Diagonal((1e8, 1)),)), d, 42)
    assert lam.tolist() == [1e8, 1.0]
    big = Word(2, (Diagonal((1e200, 1)), Diagonal((1e200, 1))))
    with pytest.raises(NonFinite, match="diagonal extraction"):
        extract_diagonal(big, d, 42)
    with pytest.raises(NonFinite, match="centralizer check"):
        commutes_with_torus(big, d, 42)


def test_underflowing_diagonal_commutes():
    # a product that underflows to 0 still commutes by proof, as the sampled
    # check (deviation 0) said; only extraction refuses the zero multiplier
    d = FullSpace(2)
    tiny = Word(2, (Overshear(1, Poly.zero(2), Poly.constant(2, -800)),))
    twice = Word(2, (Diagonal((1e-200, 1)), Diagonal((1e-200, 1))))
    for w in (tiny, twice):
        verdict = commutes_with_torus(w, d, 42)
        assert verdict.commutes and verdict.witness is None
        with pytest.raises(NonFinite, match="zero entry"):
            extract_diagonal(w, d, 42)


def test_permutations_that_cancel_are_decided_exactly():
    # two swaps undo each other, so the word is exactly diagonal; sampling
    # judged it by absolute tolerances: not commuting at 1e6 (deviation
    # about 5e-10 against 1e-10), and NotDiagonal from extraction at 1e8
    d = FullSpace(2)
    swap = Permutation((2, 1))
    verdict = commutes_with_torus(Word(2, (Diagonal((1e6, 1)), swap, swap)), d, 42)
    assert verdict.commutes and verdict.witness is None
    lam = extract_diagonal(Word(2, (Diagonal((1e8, 1)), swap, swap)), d, 42)
    assert lam.tolist() == [1e8, 1.0]
    flip = Linear([[0, 2], [3j, 0]])
    assert extract_diagonal(Word(2, (flip, Diagonal((5, 7)), flip)), d, 42).tolist() == [
        42j, 30j]
    with pytest.raises(NotDiagonal):  # one swap is left: sampled, as before
        extract_diagonal(Word(2, (Diagonal((1e8, 1)), swap)), d, 42)


def test_exactly_diagonal_steps_multiply():
    w = Word(2, (Linear(np.diag([2.0, 1j])), Diagonal((3.0, 2.0)),
                 Overshear(2, Poly.zero(2), Poly.constant(2, np.log(5.0)))))
    lam = extract_diagonal(w, FullSpace(2), 42)
    assert np.allclose(lam, [6.0, 10j], rtol=1e-15, atol=0)
    assert commutes_with_torus(w, HyperplaneComplement(2, frozenset({2})), 42).commutes


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_exact_extraction_matches_sampled(n, seed):
    rng = np.random.default_rng(seed)
    w = exact_diagonal_word(rng, n)
    lam = extract_diagonal(w, FullSpace(n), seed)
    assert commutes_with_torus(w, FullSpace(n), seed).commutes
    try:
        sampled = extract_diagonal_sampled(w, seed)
    except NotDiagonal:
        return
    assert np.all(np.abs(sampled - lam) <= 1e-12 * np.abs(lam))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_other_words_keep_the_sampled_extraction(n, seed):
    rng = np.random.default_rng(seed)
    w = compose(offender_word(rng, n), random_word(rng, n, allow_inversion=False))
    try:
        want = extract_diagonal_sampled(w, seed)
    except NotDiagonal as exc:
        with pytest.raises(NotDiagonal) as got:
            extract_diagonal(w, FullSpace(n), seed)
        assert str(got.value) == str(exc)
        return
    got = extract_diagonal(w, FullSpace(n), seed)
    if all(monomial(step) for step in w.steps):
        # the offending permutation is undone by the rest of the word, which
        # is then diagonal by proof (the sampled pass agrees, so no other
        # composite permutation is left): compared as in
        # test_exact_extraction_matches_sampled
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(got))
    else:
        assert np.array_equal(got, want)
