import itertools
import pickle

import numpy as np

from hologroup import (Overshear, OvershearPath, Poly, Word, _kernels, certify_path,
                       eval_word_batch)
from hologroup.domains import _majorant
from oracles import poly_eval_fresh


def _random_case(rng, n_terms=6, n_vars=3, n_pts=200):
    exps = rng.integers(0, 4, size=(n_terms, n_vars)).astype(np.int64)
    coeffs = (rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms))
    pts = (rng.normal(size=(n_pts, n_vars)) + 1j * rng.normal(size=(n_pts, n_vars)))
    return exps, coeffs, pts


def _naive(exps, coeffs, pts):
    want = np.zeros(len(pts), dtype=np.complex128)
    for e, c in zip(exps, coeffs):
        want += c * np.prod(pts ** e[None, :], axis=1)
    return want


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _table(terms, n_vars=3):
    return np.array(terms, dtype=np.int64).reshape(len(terms), n_vars)


# every monomial of degree <= 4 in z1, z3 (15 terms), as an overshear on axis 2
SWEEP = _table(sorted(e for e in itertools.product(range(5), [0], range(5)) if sum(e) <= 4))
# z1 z3^3 + z2^4: the tree parents z1 z3^2, z1 z3, z1, z2^3, ... are not terms
GAP = _table([(0, 4, 0), (1, 0, 3)])
# every monomial of degree <= 6 in 3 variables: 84 terms
DEGREE_6 = _table([e for e in itertools.product(range(7), repeat=3) if sum(e) <= 6])


def test_numpy_backend_matches_naive_sum():
    rng = np.random.default_rng(7)
    exps, coeffs, pts = _random_case(rng)
    got = _kernels.poly_eval(exps, coeffs, pts)
    assert np.allclose(got, _naive(exps, coeffs, pts), rtol=1e-12, atol=1e-12)


def test_matches_naive_sum_at_degree_6():
    rng = np.random.default_rng(11)
    exps = _table([e for e in itertools.product(range(7), repeat=3) if sum(e) <= 6])
    coeffs = rng.normal(size=len(exps)) + 1j * rng.normal(size=len(exps))
    pts = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
    want = _naive(exps, coeffs, pts)
    got = _kernels.poly_eval(exps, coeffs, pts)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    # an unsorted table with a repeated row is the same polynomial
    order = rng.permutation(len(exps))
    table, c = np.concatenate((exps[order], exps[:1])), np.append(coeffs[order], 1.0)
    want = want + np.prod(pts ** exps[0][None, :], axis=1)
    got = _kernels.poly_eval(table, c, pts)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_columns_equal_single_column_calls():
    rng = np.random.default_rng(3)
    for exps in (SWEEP, GAP, _random_case(rng, n_terms=9)[0]):
        pts = rng.normal(size=(257, 3)) + 1j * rng.normal(size=(257, 3))
        coeffs = rng.normal(size=(len(exps), 3)) + 1j * rng.normal(size=(len(exps), 3))
        coeffs[::2, 0] = 0.0      # terms absent from one polynomial
        coeffs[:, 2] = 0.0        # an all-zero column
        got = _kernels.poly_eval(exps, coeffs, pts)
        assert got.shape == (3, 257)
        for r in range(3):
            single = _kernels.poly_eval(exps, np.ascontiguousarray(coeffs[:, r]), pts)
            assert np.array_equal(_bits(got[r]), _bits(single))
        assert np.all(_bits(got[2]) == 0)


def test_values_do_not_depend_on_the_table():
    # alone, f has the terms 1 and z1 z3; in the union with g = z1^2 the
    # plan also builds z1^2, and f skips its zero coefficient there
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(129, 3)) + 1j * rng.normal(size=(129, 3))
    f_exps = _table([(0, 0, 0), (1, 0, 1)])
    union = _table([(0, 0, 0), (1, 0, 1), (2, 0, 0)])
    f = np.array([0.5 - 1j, 2.0 + 0.25j])
    both = np.array([[f[0], 0.1], [f[1], 0.0], [0.0, 0.3j]])
    alone = _kernels.poly_eval(f_exps, f, pts)
    assert np.array_equal(_bits(_kernels.poly_eval(union, both, pts)[0]), _bits(alone))


def test_zero_coefficient_is_skipped():
    # z1 overflows to inf at this point: a term with coefficient 0 must not
    # turn the other polynomial into 0 * inf = nan
    exps = _table([(0, 0, 0), (400, 0, 0)])
    coeffs = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    pts = np.array([[10.0, 1.0, 1.0]], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = _kernels.poly_eval(exps, coeffs, pts)
    assert f[0] == 1.0 and not np.isfinite(g[0])


def test_constant_only_polynomial():
    exps = np.zeros((1, 2), dtype=np.int64)
    pts = np.arange(10, dtype=np.complex128).reshape(5, 2)
    got = _kernels.poly_eval(exps, np.array([2 - 3j]), pts)
    assert np.all(got == 2 - 3j)


def test_empty_polynomial_evaluates_to_zero():
    exps = np.zeros((0, 2), dtype=np.int64)
    pts = np.ones((5, 2), dtype=np.complex128)
    assert np.all(_kernels.poly_eval(exps, np.zeros(0, dtype=np.complex128), pts) == 0)
    got = _kernels.poly_eval(exps, np.zeros((0, 2), dtype=np.complex128), pts)
    assert got.shape == (2, 5) and np.all(got == 0)


def test_points_are_not_mutated():
    rng = np.random.default_rng(9)
    exps, coeffs, pts = _random_case(rng)
    before = pts.copy()
    _kernels.poly_eval(exps, np.stack((coeffs, coeffs), axis=1), pts)
    assert np.array_equal(_bits(pts), _bits(before))


def test_monomials_are_dropped_after_their_last_child():
    # 84 terms, but the tree walk never holds more than a few columns at
    # once, in slots that no two live monomials share and no child takes
    # from its parent
    _, steps, slots = _kernels.build_plan(DEGREE_6)
    live, peak = {}, 0
    for k, (parent, _, _, drop, slot) in enumerate(steps):
        assert parent < k and (parent < 0 or parent in live)
        assert (slot < 0) == (parent < 0) and slot < slots
        assert parent < 0 or slot != live[parent]
        assert slot < 0 or slot not in live.values()
        live[k] = slot
        peak = max(peak, len(live))
        for d in drop:
            del live[d]
    assert not live
    assert peak <= 6
    assert slots <= 6


def test_column_major_points_give_the_same_bits():
    # the word pass hands the kernel column-major batches, whose columns
    # are contiguous; the values must not change
    rng = np.random.default_rng(19)
    for table in (SWEEP, GAP, _random_case(rng)[0]):
        pts = rng.normal(size=(257, 3)) + 1j * rng.normal(size=(257, 3))
        coeffs = rng.normal(size=(len(table), 2)) + 1j * rng.normal(size=(len(table), 2))
        for c in (coeffs, coeffs[:, 0]):
            want = _kernels.poly_eval(table, c, pts)
            got = _kernels.poly_eval(table, c, np.asfortranarray(pts))
            assert _bits(got).tolist() == _bits(want).tolist()


def test_slots_give_the_bits_of_new_monomials():
    # monomials built in reused slots, into buffers the caller hands or
    # not, equal the allocating builder bit for bit
    rng = np.random.default_rng(29)
    for table in (SWEEP, GAP, DEGREE_6):
        coeffs = rng.normal(size=(len(table), 2)) + 1j * rng.normal(size=(len(table), 2))
        coeffs[1::3, 1] = 0.0
        for size in (1, 2, 257, 16384):
            pts = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
            for c in (np.ascontiguousarray(coeffs[:, 0]), coeffs):
                want = poly_eval_fresh(table, c, pts)
                assert _bits(_kernels.poly_eval(table, c, pts)).tolist() == _bits(want).tolist()
                plan = _kernels.build_plan(table)
                out = np.full(want.shape, np.nan, dtype=np.complex128)
                work = np.full((plan[2] + 1, size), np.nan, dtype=np.complex128)
                got = _kernels.poly_eval(table, c, np.asfortranarray(pts), out=out, work=work)
                assert got is out and _bits(got).tolist() == _bits(want).tolist()
                # the plan handed in by its owner, not built for the call
                got = _kernels.poly_eval(table, c, pts, plan=plan)
                assert _bits(got).tolist() == _bits(want).tolist()


def test_each_owner_builds_its_plan_once(monkeypatch):
    # a Poly and an overshear build their plans on first use and hand them
    # to every later call; the kernel keeps no cache of its own
    built = []
    build = _kernels.build_plan
    monkeypatch.setattr(_kernels, "build_plan", lambda exps: built.append(1) or build(exps))
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(65, 3)) + 1j * rng.normal(size=(65, 3))
    f = Poly(3, {(0, 0, 0): 0.5, (1, 0, 2): -0.25j, (3, 0, 0): 0.125})
    g = Poly(3, {(0, 0, 1): 0.1 + 0.2j, (2, 0, 0): -0.05})
    word = Word(3, (Overshear(2, f, g),))
    step, path = Overshear(2, g, f), OvershearPath(Overshear(2, f, -g), 3)
    calls = [lambda: f.eval_batch(pts), lambda: eval_word_batch(word, pts),
             lambda: _majorant(step, np.abs(pts[0])), lambda: certify_path(path, 11, 1.0)]
    for call in calls:
        first = call()
        assert len(built) == 1
        second = call()
        assert len(built) == 1 and pickle.dumps(first) == pickle.dumps(second)
        built.clear()
    # a plan built for the call gives the owner's bits
    exps, coeffs = f._arrays
    assert _bits(_kernels.poly_eval(exps, coeffs, pts)).tolist() == \
        _bits(f.eval_batch(pts)).tolist()
    assert built == [1]
