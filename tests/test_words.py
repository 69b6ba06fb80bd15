import itertools
import warnings

import numpy as np
import pytest

from hologroup import (DimensionMismatch, Diagonal, Inversion, Linear, NonFinite,
                       NonInvertibleStep, Overshear, Permutation, Poly,
                       SingularPoint, Word, compose, eval_word,
                       eval_word_batch, eval_word_batch_masked, invert_word,
                       jacobian_det, jacobian_det_batch)
from hologroup import _kernels
from hologroup.words import check_invertible
from oracles import fd_jacobian_det, permutation_sign_bruteforce, word_pass_row_major
from wordgen import (admissible_points, point_batch, random_diagonal, random_linear,
                     random_overshear, random_permutation, random_word)


def z1(n=2):
    return Poly.coordinate(n, 1)


def zero(n=2):
    return Poly.zero(n)


def five_kind_word():
    """A word on C^3 with one step of each generator kind."""
    g = Poly(3, {(1, 0, 0): 0.3, (0, 0, 1): -0.2j})
    f = Poly(3, {(2, 0, 0): 0.5, (0, 0, 0): 1.0})
    m = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25j], [0.3, 0.0, 1.0]])
    return Word(3, (Inversion(1), Overshear(2, f, g), Permutation((3, 1, 2)),
                    Diagonal((2.0, 1j, -0.5)), Linear(m)))


def test_identity_word_fixes_points():
    assert np.array_equal(eval_word(Word(2), [1.0, 2.0]), [1.0, 2.0])


def test_overshear_example():
    w = Word(2, (Overshear(2, z1(), zero()),))
    assert np.allclose(eval_word(w, [1.0, 2.0]), [1.0, 3.0])


def test_diagonal_example():
    w = Word(2, (Diagonal((2.0, 3j)),))
    assert np.allclose(eval_word(w, [1.0, 1.0]), [2.0, 3j])


def test_inversion_at_zero_raises():
    w = Word(2, (Inversion(1),))
    with pytest.raises(SingularPoint):
        eval_word(w, [0.0, 1.0])
    # the first inversion in step order that meets zero is reported
    w, pts = two_inversion_case()
    for run in (eval_word_batch, jacobian_det_batch):
        with pytest.raises(SingularPoint) as exc:
            run(w, pts)
        assert str(exc.value) == "inversion of coordinate 2 at value 0"


def two_inversion_case():
    """Inversion(2) is singular on row 1, the later Inversion(1) on row 2."""
    shift = Overshear(1, Poly.constant(2, -1.0), zero())
    w = Word(2, (Inversion(2), shift, Inversion(1)))
    pts = np.array([[2.0, 2.0], [2.0, 0.0], [1.0, 2.0]], dtype=complex)
    return w, pts


def chain_steps(w, pts):
    """Images and the product of one-step determinants, step by step."""
    cur, product = pts, np.ones(len(pts), dtype=complex)
    for step in w.steps:
        one = Word(w.n, (step,))
        product = product * jacobian_det_batch(one, cur)
        cur = eval_word_batch(one, cur)
    return cur, product


def test_passes_are_pure_and_chain_step_dets():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    pts[3, 0] = 0.0
    before = pts.copy()
    w = five_kind_word()
    images, product = chain_steps(w, pts[:3])
    assert np.array_equal(eval_word_batch(w, pts[:3]), images)
    assert np.array_equal(jacobian_det_batch(w, pts[:3]), product)
    assert eval_word_batch_masked(w, pts)[1].tolist() == [i != 3 for i in range(16)]
    eval_word_batch(Word(3), pts)[:] = 0.0  # the identity returns a copy too
    assert np.array_equal(pts, before)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_word(Word(2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        Word(2, (Diagonal((1.0, 2.0, 3.0)),))
    with pytest.raises(DimensionMismatch):
        Word(2, (Inversion(3),))
    with pytest.raises(DimensionMismatch):
        compose(Word(2), Word(3))


def test_overshear_axis_constraints():
    with pytest.raises(ValueError):
        Overshear(1, z1(2), zero(2))  # f references the axis
    with pytest.raises(ValueError):
        Overshear(3, z1(2), zero(2))  # axis out of range


def test_step_constructor_invariants():
    with pytest.raises(NonInvertibleStep):
        Diagonal((1.0, 0.0))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(NonInvertibleStep):
        Linear(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    # row scaling must not rescue a genuinely singular matrix
    with pytest.raises(NonInvertibleStep):
        Linear(np.array([[1e30, 1e30], [1.0, 1.0]], dtype=complex))
    # each was read through int() or not checked: Permutation((1.5, 2)) became
    # (1, 2), Inversion(1.5) raised IndexError at its first evaluation, the
    # overshear raised TypeError from Poly.references, and Word(1.5) was built
    for build, what in ((lambda: Permutation((1.5, 2)), "a permutation entry"),
                        (lambda: Inversion(1.5), "an axis"),
                        (lambda: Overshear(1.5, zero(), zero()), "an axis"),
                        (lambda: Word(1.5), "a dimension")):
        with pytest.raises(ValueError, match=rf"^{what} must be an integer, got 1\.5$"):
            build()
    assert Permutation(tuple(np.array([2, 1]))).perm == (2, 1)


def test_row_scaling_survives_extreme_magnitudes():
    # np.linalg.norm squares the entries: diag(1e155, 1) was refused as
    # "singular to tolerance" and diag(1e-170, 1) as "has a zero row".
    # Complex division by the row scale 5e-324 takes 1 / 5e-324 = inf:
    # diag(5e-324, 1) warned, and the all-5e-324 matrix, whose normalised
    # determinant came out NaN, was accepted. diag(1e200, 1e200) warned
    # as its determinant overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in ([1e155, 1.0], [1e-170, 1.0], [1e308, 1e-308], [1e200, 1e200]):
            Linear(np.diag(d).astype(complex))
        assert Linear(np.diag([5e-324, 1.0]).astype(complex))._det == 5e-324
    with pytest.raises(NonInvertibleStep, match="zero row"):
        Linear(np.array([[1e-170, 0.0], [0.0, 0.0]], dtype=complex))
    for m in ([[1.0, 2.0], [2.0, 4.0 + 1e-14]], np.full((2, 2), 5e-324)):
        with pytest.raises(NonInvertibleStep, match="singular to tolerance"):
            Linear(np.array(m, dtype=complex))


def _refused(m) -> bool:
    try:
        check_invertible(m)
    except NonInvertibleStep:
        return True
    return False


def test_stacked_and_single_invertibility_decisions_agree():
    # the row-normalised |det| of [[1, 1], [1, 1 + e]] is about e / 2, so
    # these straddle TAU_DET; a stack is refused iff one of its matrices is
    rng = np.random.default_rng(5)
    mats = np.array([[[1.0, 1.0], [1.0, 1.0 + e]] for e in np.geomspace(1e-13, 1e-11, 15)])
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(15, 2, 1)))
    mats = np.concatenate([mats, mats * phases * rng.uniform(0.5, 2.0, size=(15, 2, 1))])
    single = np.array([_refused(m) for m in mats])
    assert single.any() and not single.all()
    assert [_refused(m[None]) for m in mats] == single.tolist()
    assert _refused(mats) and not _refused(mats[~single])
    assert all(_refused(np.stack([mats[~single][0], m])) for m in mats[single])
    # check_invertible inlines np.linalg.norm along the last axis
    rows = mats / np.abs(mats).max(axis=-1)[..., None]
    assert np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=-1)).tobytes() == \
        np.linalg.norm(rows, axis=-1).tobytes()


def test_non_finite_step_data_is_refused():
    # NaN used to pass check_invertible, whose |det| <= TAU_DET test is
    # false for NaN, and an infinite multiplier was taken as nonzero
    with pytest.raises(NonFinite):
        Diagonal((float("inf"), 1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonFinite):
            Linear(np.array([[1.0, bad], [0.0, 1.0]], dtype=complex))
    # 1 / 1e-320 overflows, so the inverse of this step is refused too, and
    # again on every call, since a cached inverse keeps only what was returned
    w = Word(2, (Diagonal((1e-320, 1)),))
    for _ in range(3):
        with pytest.raises(NonFinite):
            invert_word(w)


def test_compose_is_concatenation_and_identity_law():
    rng = np.random.default_rng(5)
    w = random_word(rng, 2)
    left = compose(Word(2), w)
    assert left == w
    a, b, c = (random_word(rng, 2, allow_inversion=False) for _ in range(3))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_applies_first_word_first():
    shift = Word(2, (Overshear(2, Poly.constant(2, 1.0), zero()),))
    double = Word(2, (Diagonal((1.0, 2.0)),))
    assert np.allclose(eval_word(compose(shift, double), [0.0, 0.0]), [0.0, 2.0])
    assert np.allclose(eval_word(compose(double, shift), [0.0, 0.0]), [0.0, 1.0])


def test_inversion_involution():
    w = Word(2, (Inversion(1), Inversion(1)))
    assert np.allclose(eval_word(w, [2.0, 5.0]), [2.0, 5.0])


def test_invert_examples():
    assert invert_word(Word(2, (Diagonal((2.0, 3.0)),))).steps == (
        Diagonal((0.5, 1.0 / 3.0)),)
    assert invert_word(Word(2, (Inversion(1),))).steps == (Inversion(1),)
    ov = Word(2, (Overshear(2, z1(), zero()),))
    assert np.allclose(eval_word(compose(ov, invert_word(ov)), [1.0, 2.0]),
                       [1.0, 2.0])


def test_overshear_inverse_with_both_f_and_g():
    f = Poly(2, {(1, 0): 0.7, (0, 0): 0.3})
    g = Poly(2, {(1, 0): 0.2})
    w = Word(2, (Overshear(2, f, g),))
    inv = invert_word(w)
    assert len(inv.steps) == 2
    z = np.array([0.4 + 0.1j, -0.8 + 0.5j])
    assert np.max(np.abs(eval_word(compose(w, inv), z) - z)) < 1e-12
    assert np.max(np.abs(eval_word(compose(inv, w), z) - z)) < 1e-12


def test_permutation_semantics_and_sign():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            perm = tuple(int(p) for p in rng.permutation(n) + 1)
            step = Permutation(perm)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            image = eval_word(Word(n, (step,)), z)
            # coordinate i lands in slot perm[i-1]
            for i, target in enumerate(perm):
                assert image[target - 1] == z[i]
            assert step.sign == permutation_sign_bruteforce(perm)


def test_jacobian_diagonal_is_product():
    w = Word(2, (Diagonal((2.0, 3.0)),))
    assert np.isclose(jacobian_det(w, [5.0, -7.0]), 6.0)


def test_jacobian_inversion_matches_fd_oracle():
    w = Word(2, (Inversion(1),))
    z = np.array([2.0, 0.0], dtype=complex)
    oracle = fd_jacobian_det(w, z, step=1e-6)
    assert abs(oracle - (-0.25)) < 1e-5 * 0.25
    assert np.isclose(jacobian_det(w, z), -0.25, rtol=1e-12)


def test_jacobian_overshear_matches_fd_oracle():
    w = Word(2, (Overshear(2, zero(), z1()),))
    z = np.array([1.0, 0.0], dtype=complex)
    oracle = fd_jacobian_det(w, z, step=1e-6)
    assert abs(oracle - np.e) < 1e-5 * np.e
    assert np.isclose(jacobian_det(w, z), np.e, rtol=1e-12)


def test_overshear_jacobian_never_vanishes():
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = Word(3, (Overshear(2, zero(3), Poly(3, {(1, 0, 0): 0.4})),))
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(jacobian_det(w, z)) > 0


def test_round_trip_property():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        w = random_word(rng, n)
        pts = admissible_points(w, rng, 10, n)
        inv = invert_word(w)
        back = eval_word_batch(inv, eval_word_batch(w, pts))
        assert np.max(np.abs(back - pts)) < 1e-9


def test_chain_rule_matches_fd():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        w = random_word(rng, n)
        pts = admissible_points(w, rng, 3, n)
        analytic = jacobian_det_batch(w, pts)
        assert np.array_equal(analytic, chain_steps(w, pts)[1])
        for z, a in zip(pts, analytic):
            fd = fd_jacobian_det(w, z)
            assert abs(fd - a) < 1e-5 * max(1e-12, abs(a))


def test_masked_eval_flags_singular_rows():
    w = Word(2, (Inversion(1),))
    pts = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    images, valid = eval_word_batch_masked(w, pts)
    assert valid.tolist() == [True, False]
    assert np.isnan(images[1, 0])
    assert np.allclose(images[0], [1.0, 1.0])
    w, pts = two_inversion_case()
    images, valid = eval_word_batch_masked(w, pts)
    assert valid.tolist() == [True, False, False]
    assert np.isnan(images).tolist() == [[False, False], [False, True], [True, False]]
    assert np.allclose(images[0], [1.0, 0.5])


def test_masked_double_inversion_does_not_divide_invalid_rows():
    # the second inversion must leave the NaN of the first alone instead of
    # dividing it, which numpy reports as an invalid-value warning
    w = Word(2, (Inversion(1), Inversion(1)))
    pts = np.array([[0, 1], [2, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        images, valid = eval_word_batch_masked(w, pts)
    assert valid.tolist() == [False, True]
    assert np.isnan(images[0, 0]) and images[0, 1] == 1.0
    assert images[1].tolist() == [2.0, 1.0]


def test_overflow_in_the_pass_warns_no_library_caller():
    # the multiplier exp(800 z2) and the monomial z2^400 overflow, and the
    # inversion then divides by the non-finite coordinate; the values go
    # non-finite in silence and are left to the callers' NonFinite checks
    f = Poly(2, {(0, 400): 1.0})
    g = Poly(2, {(0, 1): 800.0})
    w = Word(2, (Overshear(1, f, g), Inversion(1)))
    pts = np.array([[1.0 + 1j, 4.0], [2.0, 3.0 + 0.5j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        images = eval_word_batch(w, pts)
        dets = jacobian_det_batch(w, pts)
        masked, valid = eval_word_batch_masked(w, pts)
    with np.errstate(all="ignore"):
        want, want_det, _ = word_pass_row_major(w, pts, jac=True)
    assert not np.isfinite(images[:, 0]).any() and not np.isfinite(dets).all()
    assert images.tobytes() == want.tobytes() == masked.tobytes()
    assert dets.tobytes() == want_det.tobytes()
    assert valid.all()


def _layouts(pts):
    """pts as a C-ordered array, a column-major one and a strided view."""
    wide = np.zeros((2 * len(pts), pts.shape[1] + 1), dtype=np.complex128)
    wide[::2, 1:] = pts
    return pts.copy(), np.asfortranarray(pts), wide[::2, 1:]


def _bytes(*arrays):
    return [None if a is None else a.tobytes() for a in arrays]


def test_column_major_pass_equals_the_row_major_oracle():
    rng = np.random.default_rng(23)
    for i in range(400):
        n = 1 + i % 3
        w = random_word(rng, n, max_steps=6)
        pts = point_batch(rng, 1 + 40 * (i % 4), n)
        pts[::7, int(rng.integers(0, n))] = 0.0  # rows singular at an inversion
        for x in _layouts(pts):
            before = x.copy()
            want, want_det, want_valid = word_pass_row_major(w, x, jac=True, masked=True)
            images, valid = eval_word_batch_masked(w, x)
            assert _bytes(images, valid) == _bytes(want, want_valid)
            try:
                want_strict, want_det = word_pass_row_major(w, x, jac=True)[:2]
            except SingularPoint as exc:
                for run in (eval_word_batch, jacobian_det_batch):
                    with pytest.raises(SingularPoint, match=str(exc)):
                        run(w, x)
            else:
                assert _bytes(eval_word_batch(w, x)) == _bytes(want_strict)
                assert _bytes(jacobian_det_batch(w, x)) == _bytes(want_det)
            same = eval_word_batch(Word(n), x)
            assert not np.shares_memory(same, x) and same.tobytes() == x.tobytes()
            assert x.tobytes() == before.tobytes()


def _fifteen_term_word(rng):
    """A word on C^3 shaped like the wide-batch benchmark's: four overshears
    whose f and g have every monomial of degree <= 4 in the two other
    coordinates (15 terms), each followed by a Linear, Diagonal or
    Permutation mixer."""
    mixers = (random_linear, random_diagonal,
              lambda rng, n: random_permutation(rng, n, nontrivial=True))
    steps = []
    for i in range(4):
        others = [v for v in range(3) if v != i % 3]

        def poly(scale):
            terms = {}
            for e in itertools.product(range(5), repeat=2):
                if sum(e) <= 4:
                    exps = [0, 0, 0]
                    exps[others[0]], exps[others[1]] = e
                    terms[tuple(exps)] = scale * complex(rng.normal(), rng.normal())
            return Poly(3, terms)
        steps += [Overshear(1 + i % 3, poly(0.03), poly(0.01)), mixers[i % 3](rng, 3)]
    return Word(3, tuple(steps))


def test_wide_batch_pass_equals_the_row_major_oracle_and_owns_its_results():
    # at 16384 points every step writes into the pass's own buffers; the
    # bits are the row-major oracle's, and no result is a buffer that a
    # later pass writes into
    rng = np.random.default_rng(31)
    w = _fifteen_term_word(rng)
    pts = 0.9 * point_batch(rng, 16384, 3, lo=0.0, hi=1.0)
    images = None
    for word in (w, invert_word(w)):
        x = pts if images is None else images
        want, want_det, _ = word_pass_row_major(word, x, jac=True)
        images, dets = eval_word_batch(word, x), jacobian_det_batch(word, x)
        assert _bytes(images, dets) == _bytes(want, want_det)
        kept = _bytes(images, dets)
        again, again_dets = eval_word_batch(word, x), jacobian_det_batch(word, x)
        assert not np.shares_memory(images, again) and not np.shares_memory(dets, again_dets)
        assert _bytes(images, dets) == kept == _bytes(again, again_dets)
    assert np.max(np.abs(images - pts)) < 1e-9


def _exp_path_pass(word, pts):
    """Images and Jacobian determinants with every overshear multiplying
    by exp(g), also where g = 0."""
    cur, det = pts, np.ones(len(pts), dtype=np.complex128)
    for step in word.steps:
        if isinstance(step, Overshear):
            fv, gv = _kernels.poly_eval(*step._tables, cur)
            hv = np.exp(gv)
            out = cur.copy()
            out[:, step.axis - 1] = fv + hv * cur[:, step.axis - 1]
            cur, d = out, hv
        else:
            cur = cur.copy()
            work = np.empty((step.work_rows, len(cur)), dtype=np.complex128)
            d = step.apply_batch(cur, work, True)
        det *= d
    return cur, det


def test_translations_skip_the_exp_bit_for_bit():
    # an overshear with g = 0 adds f to z_axis with no exp(0) = 1 factor;
    # images and determinants keep every bit, signed zeros included
    rng = np.random.default_rng(5)
    signed_zeros = [complex(-0.0, -0.5), complex(0.0, -0.0), complex(-0.0, -0.0),
                    complex(-0.0, 0.0), complex(0.5, -0.0)]
    translations = 0
    for i in range(300):
        n = 1 + i % 3
        a = random_word(rng, n, allow_inversion=False)
        b = random_word(rng, n, allow_inversion=False)
        o = random_overshear(rng, n)
        t = Overshear(o.axis, o.f, Poly.zero(n))
        w = compose(compose(a, invert_word(b)), Word(n, (t,)))
        translations += sum(isinstance(s, Overshear) and s.g.is_zero for s in w.steps)
        pts = point_batch(rng, 64, n)
        pts[:len(signed_zeros), 0] = signed_zeros
        want, want_det = _exp_path_pass(w, pts)
        assert eval_word_batch(w, pts).tobytes() == want.tobytes()
        assert jacobian_det_batch(w, pts).tobytes() == want_det.tobytes()
    assert translations > 300
