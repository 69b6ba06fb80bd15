import warnings

import numpy as np
import pytest

from hologroup import (BudgetExhausted, Diagonal, DimensionMismatch,
                       FullSpace, HyperplaneComplement, InvalidAxis,
                       Inversion, NonFinite, OutOfRange, OutsideDomain, Overshear, Poly,
                       Word, ZeroOnContour, in_negative_component, make_contour, winding,
                       winding_index)
from oracles import contour_points, quadrature_winding
from wordgen import diag_inversion_word

C21 = HyperplaneComplement(2, frozenset({1}))


def contour(p=(1.0, 1.0), R=1.0, axis=1, domain=C21):
    return make_contour(domain, axis, p, R)


def test_make_contour_examples():
    c = contour()
    assert c.axis == 1 and c.R == 1.0
    with pytest.raises(InvalidAxis):
        make_contour(C21, 2, (1.0, 1.0), 1.0)
    with pytest.raises(InvalidAxis):
        make_contour(FullSpace(2), 1, (1.0, 1.0), 1.0)
    with pytest.raises(OutsideDomain):
        make_contour(C21, 1, (0.0, 1.0), 1.0)
    with pytest.raises(OutOfRange):
        make_contour(C21, 1, (1.0, 1.0), 0.0)
    with pytest.raises(DimensionMismatch):
        make_contour(C21, 1, (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(NonFinite):
        make_contour(C21, 1, (1.0, 1.0), float("inf"))
    with pytest.raises(NonFinite):
        make_contour(C21, 1, (1.0, float("nan")), 1.0)
    # 1.0 was found in the deleted set {1}, and the contour was built
    with pytest.raises(ValueError, match=r"^a contour axis must be an integer, got 1\.0$"):
        make_contour(C21, 1.0, (1, 1), 1.0)
    assert make_contour(C21, np.int64(1), (1, 1), 1.0) == c


def test_contour_points_lie_on_circle():
    c = contour(p=(0.5, -2.0), R=3.0)
    theta = np.linspace(0, 2 * np.pi, 17)
    pts = contour_points(c, theta)
    assert pts.shape == (17, 2)
    assert np.allclose(np.abs(pts[:, 0]), 3.0)
    assert np.allclose(pts[:, 1], -2.0)


def test_identity_has_index_one():
    res = winding_index(Word(2), contour())
    assert res.index == 1
    assert abs(res.raw - 1.0) < 1e-9
    assert res.samples_used == 64


def test_inversion_has_index_minus_one():
    res = winding_index(Word(2, (Inversion(1),)), contour())
    assert res.index == -1
    assert abs(res.raw + 1.0) < 1e-9


def test_diagonal_keeps_index_one():
    res = winding_index(Word(2, (Diagonal((2.0, 3j)),)), contour())
    assert res.index == 1


def test_double_inversion_restores_index():
    w = Word(2, (Inversion(1), Inversion(1)))
    assert winding_index(w, contour()).index == 1


def test_tracking_agrees_with_quadrature():
    words = [
        Word(2),
        Word(2, (Inversion(1),)),
        Word(2, (Diagonal((2.0, 3j)),)),
        Word(2, (Inversion(1), Diagonal((0.5j, 1.0)), Inversion(1))),
    ]
    for w in words:
        cont = contour()
        res = winding_index(w, cont)
        q = quadrature_winding(w, cont)
        assert abs(res.raw - q) < 1e-4
        assert round(q) == res.index


def test_random_words_integer_and_radius_invariant():
    rng = np.random.default_rng(3)
    d = HyperplaneComplement(2, frozenset({1, 2}))
    for _ in range(25):
        w = diag_inversion_word(rng, 2)
        seen = set()
        for R in (0.5, 1.0, 2.0):
            res = winding_index(w, make_contour(d, 1, (1.0, 1.0), R))
            assert abs(res.raw - round(res.raw)) < 1e-6
            seen.add(res.index)
        assert len(seen) == 1


def test_base_point_invariance():
    w = Word(2, (Inversion(1), Diagonal((2.0, 1.0)), Inversion(1)))
    vals = {winding_index(w, contour(p=(1.0, c))).index
            for c in (1.0, -0.5 + 0.25j, 3.0)}
    assert vals == {1}


def test_negative_component_examples():
    assert not in_negative_component(Word(2), contour())
    assert in_negative_component(Word(2, (Inversion(1),)), contour())
    w = Word(2, (Inversion(1), Inversion(1)))
    assert not in_negative_component(w, contour())


def test_refinement_activates_near_cancellation():
    # w1 = 0.999 + e^{i theta}: near theta=pi the argument turns fast, so the
    # initial 64-sample grid gets bisected but the index is still +1.
    f = Poly.constant(2, 0.999)
    w = Word(2, (Overshear(1, f, Poly.zero(2)),))
    cont = contour()
    res = winding_index(w, cont)
    assert res.samples_used > 64
    assert res.index == 1
    q = quadrature_winding(w, cont, nodes=65536)
    assert abs(res.raw - q) < 1e-3


def test_budget_exhausted_is_honest(monkeypatch):
    f = Poly.constant(2, 0.999)
    w = Word(2, (Overshear(1, f, Poly.zero(2)),))
    monkeypatch.setattr(winding, "MAX_SAMPLES", 66)
    with pytest.raises(BudgetExhausted):
        winding_index(w, contour())


def test_zero_on_contour():
    # w1 = 1 + e^{i theta} vanishes at theta=pi, one of the initial samples
    f = Poly.constant(2, 1.0)
    w = Word(2, (Overshear(1, f, Poly.zero(2)),))
    with pytest.raises(ZeroOnContour):
        winding_index(w, contour())


def test_overflowing_multiplier_is_refused():
    # exp(800) overflows, so every sample is NaN; the accumulated winding
    # used to end in "cannot convert float NaN to integer"
    w = Word(2, (Overshear(1, Poly.zero(2), Poly.constant(2, 800)),))
    with pytest.raises(NonFinite, match=r"^the output coordinate is \(inf\+nanj\) "
                                        r"at theta 0\.0, which is not finite$"):
        winding_index(w, contour())


def test_non_finite_samples_are_refused_before_they_are_divided():
    # z2^400 and exp(800 z2) overflow at z2 = 4, so every sample of the
    # inverted coordinate is NaN; the increments used to divide them, with
    # a RuntimeWarning, before the sum was refused
    f, g = Poly(2, {(0, 400): 1.0}), Poly(2, {(0, 1): 800.0})
    w = Word(2, (Overshear(1, f, g), Inversion(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"^the output coordinate is \(nan\+nanj\) "
                                            r"at theta 0\.0, which is not finite$"):
            winding_index(w, contour(p=(1.0, 4.0)))


# z2 -> 360 z1^32, then z1 -> exp(z2 + 331) z1: on |z1| = 1 with z2 = 0 the
# output coordinate stays finite, exp(360 cos(32 theta) + 331) in modulus, and
# its index is 1; the quotient of two samples overflowed to inf+infj, whose
# angle of pi/4 passed the refinement test, and the index came out as 5
WILD = Word(2, (Overshear(2, Poly(2, {(32, 0): 360.0}), Poly.zero(2)),
                Overshear(1, Poly.zero(2), Poly(2, {(0, 1): 1.0, (0, 0): 331.0}))))


def test_overflowing_quotient_is_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"^the quotient of the output coordinate by its "
                                            r"previous sample is \(inf\+infj\) at theta "
                                            r"0\.19634954084936207, which is not finite$"):
            winding_index(WILD, contour(p=(1.0, 0.0)))


def test_fixed_start_samples_equal_fresh_ones(monkeypatch):
    # the start angles and their unit-circle points are module arrays that
    # every call shares; a run on ones built afresh gives the same bits
    rng = np.random.default_rng(3)
    cases = [(diag_inversion_word(rng, 2), contour(p=(0.7, -1.2 + 0.5j), R=0.8))
             for _ in range(6)]
    cases.append((Word(2, (Overshear(1, Poly.constant(2, 0.999), Poly.zero(2)),)), contour()))
    cases.append((Word(3, (Diagonal((2.0, 1j, -0.5)),)),
                  make_contour(HyperplaneComplement(3, frozenset({1, 3})), 3,
                               (0.5, -2.0 + 1j, 1.5), 2.5)))
    thetas = np.linspace(0.0, 2.0 * np.pi, winding.INITIAL_SAMPLES + 1)
    for _, c in cases:
        # the column-major points, as they were built from a broadcast base
        want = np.broadcast_to(np.array(c.p), (len(thetas) - 1, c.domain.n)).copy(order="F")
        want[:, c.axis - 1] = c.R * np.exp(1j * thetas[:-1])
        got = winding._points(c, winding.START_CIRCLE)
        assert got.flags.f_contiguous and got.tobytes("F") == want.tobytes("F")
        assert contour_points(c, thetas[:-1]).tobytes("F") == want.tobytes("F")
    fixed = [winding_index(w, c) for w, c in cases]
    assert any(r.samples_used > winding.INITIAL_SAMPLES for r in fixed)
    monkeypatch.setattr(winding, "START_THETAS", thetas)
    monkeypatch.setattr(winding, "START_CIRCLE", np.exp(1j * thetas[:-1]))
    fresh = [winding_index(w, c) for w, c in cases]
    assert [(r.index, r.raw.hex(), r.samples_used) for r in fixed] == \
        [(r.index, r.raw.hex(), r.samples_used) for r in fresh]


def test_refinement_inserts_as_np_insert_does():
    rng = np.random.default_rng(11)
    for size in (2, 3, 65, 130):
        a = np.exp(1j * rng.uniform(0.0, 6.0, size))
        for coarse in (np.arange(0), np.arange(size - 1), np.array([0]), np.array([size - 2]),
                       np.flatnonzero(rng.uniform(size=size - 1) < 0.3)):
            new = rng.uniform(size=coarse.size) + 0j
            want = np.insert(a, coarse + 1, new)
            assert winding._insert_after(a, coarse, new).tobytes() == want.tobytes()
            assert winding._insert_after(a.real, coarse, new.real).tobytes() == \
                np.insert(a.real, coarse + 1, new.real).tobytes()


def test_word_dimension_checked():
    with pytest.raises(DimensionMismatch):
        winding_index(Word(3), contour())


def test_result_deterministic():
    w = Word(2, (Inversion(1), Diagonal((1j, 1.0)), Inversion(1)))
    a = winding_index(w, contour())
    b = winding_index(w, contour())
    assert (a.index, a.raw, a.samples_used) == (b.index, b.raw, b.samples_used)


# open defects, each pinned on the input that shows it; the reason names the
# ROADMAP items that are to decide it

@pytest.mark.xfail(strict=True, raises=ZeroOnContour,
                   reason="ROADMAP items 2 and 3: every sample of a contour of "
                          "radius 1e-14 is below ZERO_TOL")
def test_identity_on_a_tiny_contour_has_index_1():
    assert winding_index(Word(2), contour(R=1e-14)).index == 1


@pytest.mark.xfail(strict=True, raises=ZeroOnContour,
                   reason="ROADMAP items 2 and 3: 1 / z1 on a contour of radius "
                          "1e200 is below ZERO_TOL")
def test_inversion_on_a_huge_contour_has_index_minus_1():
    assert winding_index(Word(2, (Inversion(1),)), contour(R=1e200)).index == -1
