import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologroup import NonFinite, Poly
from oracles import naive_poly_eval


def test_canonical_form_drops_zero_coefficients():
    p = Poly(2, {(1, 0): 1.0, (0, 1): 0.0})
    assert p.terms == {(1, 0): 1.0 + 0.0j}


def test_equal_iff_same_canonical_terms():
    a = Poly(2, {(1, 0): 2.0, (0, 0): 0.0})
    b = Poly(2, {(1, 0): 2.0 + 0.0j})
    assert a == b
    assert Poly(2, {(1, 0): 2.0}) != Poly(2, {(0, 1): 2.0})


def test_duplicate_indices_accumulate():
    p = Poly(1, {(1,): 1.0})
    q = Poly(1, {(1,): -1.0})
    assert Poly(1, {**p.terms}).terms == {(1,): 1.0 + 0.0j}
    assert q.scale(-1) == p


def test_invalid_terms_rejected():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Poly(2, {(1, -1): 1.0})
    with pytest.raises(ValueError):
        Poly(0)
    with pytest.raises(NonFinite):
        Poly(2, {(1, 0): complex(float("nan"), 0.0)})
    # int() read 1.5 as 1: the first stored {(1, 0): 0j}, outside the canonical
    # form, with is_zero False, and the second became z1^2
    for terms, e in (({(1.5, 0): 1.0, (1, 0): -1.0}, "1.5"), ({(2.9, 0): 1.0}, "2.9")):
        with pytest.raises(ValueError, match=rf"^an exponent must be an integer, got {e}$"):
            Poly(2, terms)
    # Poly(1.5) was built, and failed only when its arrays were reshaped
    with pytest.raises(ValueError, match=r"^n_vars must be an integer, got 1\.5$"):
        Poly(1.5)
    assert Poly(2, {(np.int64(2), 0): 1.0}).terms == {(2, 0): 1.0 + 0.0j}


def test_zero_constant_coordinate():
    z = Poly.zero(3)
    assert z.is_zero and z.constant_term == 0
    c = Poly.constant(3, 2 + 1j)
    assert c.constant_term == 2 + 1j and not c.is_zero
    x2 = Poly.coordinate(3, 2)
    assert x2((5.0, 7.0, 11.0)) == 7.0
    with pytest.raises(ValueError):
        Poly.coordinate(3, 4)


def test_references():
    p = Poly(3, {(0, 2, 0): 1.0, (0, 0, 0): 4.0})
    assert p.references(2)
    assert not p.references(1) and not p.references(3)


def test_scale_and_neg():
    p = Poly(2, {(1, 1): 2.0})
    assert p.scale(0.5).terms == {(1, 1): 1.0 + 0.0j}
    assert (-p).terms == {(1, 1): -2.0 + 0.0j}
    assert p.scale(0.0).is_zero


def test_eval_batch_shapes():
    p = Poly.coordinate(2, 1)
    pts = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(p.eval_batch(pts), [1.0, 3.0])
    with pytest.raises(ValueError):
        p.eval_batch(np.zeros((3, 3), dtype=complex))


def test_zero_power_of_zero_is_one():
    # z^0 must be 1 even at z=0 so constants survive at the origin
    p = Poly(2, {(0, 1): 3.0, (0, 0): 5.0})
    assert p((0.0, 0.0)) == 5.0


@st.composite
def poly_and_points(draw):
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                               allow_nan=False, allow_infinity=False)
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
        terms[exps] = draw(coeff)
    count = draw(st.integers(1, 4))
    coord = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                               allow_nan=False, allow_infinity=False)
    pts = [[draw(coord) for _ in range(n)] for _ in range(count)]
    return n, terms, np.array(pts, dtype=np.complex128)


@settings(max_examples=60, deadline=None)
@given(poly_and_points())
def test_eval_matches_naive_oracle(case):
    n, terms, pts = case
    p = Poly(n, dict(terms))
    got = p.eval_batch(pts)
    want = np.array([naive_poly_eval(terms, z) for z in pts])
    scale = 1.0 + np.max(np.abs(want))
    assert np.all(np.abs(got - want) <= 1e-9 * scale)
