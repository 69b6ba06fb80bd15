import warnings

import numpy as np
import pytest

from hologroup import (BudgetExhausted, Diagonal, DimensionMismatch,
                       FullSpace, HyperplaneComplement, InvalidAxis,
                       Inversion, NonFinite, OutOfRange, OutsideDomain, Overshear, Poly,
                       Word, ZeroOnContour, contour_points, eval_word,
                       in_negative_component, make_contour, winding, winding_index)
from oracles import quadrature_winding
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


def test_contour_points_lie_on_circle():
    c = contour(p=(0.5, -2.0), R=3.0)
    theta = np.linspace(0, 2 * np.pi, 17)
    pts = contour_points(c, theta)
    assert pts.shape == (17, 2)
    assert np.allclose(np.abs(pts[:, 0]), 3.0)
    assert np.allclose(pts[:, 1], -2.0)


def test_identity_has_index_one():
    res = winding_index(Word.identity(2), contour())
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
        Word.identity(2),
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
    assert not in_negative_component(Word.identity(2), contour())
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
    with pytest.raises(NonFinite, match="accumulated winding is nan"):
        winding_index(w, contour())


def test_non_finite_samples_are_refused_before_they_are_divided():
    # z2^400 and exp(800 z2) overflow at z2 = 4, so every sample of the
    # inverted coordinate is NaN; the increments used to divide them, with
    # a RuntimeWarning, before the sum was refused
    f, g = Poly(2, {(0, 400): 1.0}), Poly(2, {(0, 1): 800.0})
    w = Word(2, (Overshear(1, f, g), Inversion(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="accumulated winding is nan"):
            winding_index(w, contour(p=(1.0, 4.0)))


def test_word_dimension_checked():
    with pytest.raises(DimensionMismatch):
        winding_index(Word.identity(3), contour())


def test_result_deterministic():
    w = Word(2, (Inversion(1), Diagonal((1j, 1.0)), Inversion(1)))
    a = winding_index(w, contour())
    b = winding_index(w, contour())
    assert (a.index, a.raw, a.samples_used) == (b.index, b.raw, b.samples_used)
