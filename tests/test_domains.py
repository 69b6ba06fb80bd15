import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologroup import (DimensionMismatch, Diagonal, FullSpace,
                       HyperplaneComplement, Inversion, Linear, NonFinite, Overshear,
                       Permutation, Poly, Punctured, Word, classify_domain,
                       contains, contains_batch, domains, eval_word, invert_word,
                       sample_points, word_preserves_domain)
from hologroup.domains import _escapes
from oracles import automorphism, preserves_sampled
from wordgen import automorphism_step, automorphism_word, random_diagonal, random_step


def comp(n, deleted):
    return HyperplaneComplement(n, frozenset(deleted))


def _automorphism(step, d):
    return _escapes(step, d) is None


def test_membership_examples():
    assert contains(Punctured(2), [0.0, 1.0])
    assert not contains(Punctured(2), [0.0, 0.0])
    assert not contains(comp(2, {1}), [0.0, 5.0])
    assert contains(comp(2, {1}), [3.0, 0.0])
    assert contains(FullSpace(2), [0.0, 0.0])


def test_membership_is_exact():
    assert not contains(comp(1, {1}), [0.0])
    assert contains(comp(1, {1}), [1e-300])


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        contains(FullSpace(2), [1.0])
    with pytest.raises(DimensionMismatch):
        word_preserves_domain(Word.identity(2), FullSpace(3), 1)


def test_domain_constructor_invariants():
    with pytest.raises(ValueError):
        FullSpace(0)
    with pytest.raises(ValueError):
        HyperplaneComplement(2, frozenset())
    with pytest.raises(ValueError):
        HyperplaneComplement(2, frozenset({3}))


def test_classification_table():
    assert classify_domain(Punctured(3)) == classify_domain(Punctured(3))
    assert classify_domain(Punctured(3)).is_stein is False
    assert classify_domain(Punctured(1)).is_stein is True
    assert classify_domain(FullSpace(2)).is_stein is True
    assert classify_domain(comp(2, {1, 2})).is_stein is True
    assert classify_domain(FullSpace(2)).kind == "full"
    assert classify_domain(Punctured(2)).kind == "punctured"
    assert classify_domain(comp(2, {1})).kind == "complement"


def test_membership_monotone_under_deletion():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    pts[::7, 0] = 0.0
    big = comp(3, {1, 2})
    small = comp(3, {1})
    inside_big = contains_batch(big, pts)
    inside_small = contains_batch(small, pts)
    assert np.all(~inside_big | inside_small)


def test_sample_points_stay_in_domain():
    rng = np.random.default_rng(4)
    d = comp(3, {1, 3})
    pts = sample_points(d, 500, rng)
    assert np.all(contains_batch(d, pts))
    mags = np.abs(pts)
    assert np.all((mags >= 0.2) & (mags <= 2.0))


def test_diagonal_preserves_complement():
    v = word_preserves_domain(Word(2, (Diagonal((2.0, 3.0)),)), comp(2, {1}), 42)
    assert v.preserves and v.witness is None


def test_inversion_on_fullspace_rejected_structurally():
    v = word_preserves_domain(Word(2, (Inversion(1),)), FullSpace(2), 42)
    assert not v.preserves
    assert v.witness is not None and v.witness[0] == 0


def test_inversion_allowed_on_deleted_axis():
    v = word_preserves_domain(Word(2, (Inversion(1),)), comp(2, {1}), 42)
    assert v.preserves


def test_inversion_on_kept_axis_rejected():
    v = word_preserves_domain(Word(2, (Inversion(2),)), comp(2, {1}), 42)
    assert not v.preserves and v.witness[1] == 0


def test_overshear_escape_witness_solved_exactly():
    w = Word(2, (Overshear(1, Poly.constant(2, 1.0), Poly.zero(2)),))
    d = comp(2, {1})
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves
    assert contains(d, v.witness)
    assert np.isclose(v.witness[0], -1.0)
    image = eval_word(w, v.witness)
    assert not contains(d, image)


def test_shear_on_kept_axis_preserves():
    w = Word(2, (Overshear(2, Poly.coordinate(2, 1), Poly.zero(2)),))
    assert word_preserves_domain(w, comp(2, {1}), 42).preserves


def test_punctured_rejects_origin_movers():
    w = Word(2, (Overshear(2, Poly.constant(2, 0.5), Poly.zero(2)),))
    d = Punctured(2)
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves
    assert contains(d, v.witness)
    assert not contains(d, eval_word(w, v.witness))


def test_punctured_accepts_origin_fixers():
    w = Word(2, (Overshear(2, Poly.coordinate(2, 1), Poly.zero(2)),
                 Diagonal((2.0, 0.5))))
    assert word_preserves_domain(w, Punctured(2), 42).preserves
    assert word_preserves_domain(Word(2, (Inversion(1),)), Punctured(2), 42).preserves is False


def test_punctured_dimension_one_is_just_cstar():
    assert word_preserves_domain(Word(1, (Inversion(1),)), Punctured(1), 42).preserves


def test_one_odd_step_verdicts_are_proved(monkeypatch):
    # both words were reported as preserving: the shift's escape was not
    # looked for on C \ {0}, and rounding in the rotation kept the
    # pulled-back zero of z1 from being exactly zero again
    def no_sampling(*args):
        raise AssertionError("the verdict should not need sampling")
    monkeypatch.setattr(domains, "sample_points", no_sampling)
    shift = Word(1, (Overshear(1, Poly.constant(1, 1), Poly.zero(1)),))
    v = word_preserves_domain(shift, Punctured(1), 42)
    assert not v.preserves and v.witness.tolist() == [-1]
    rotated = Word(2, (Linear([[0.6, 0.8], [-0.8, 0.6]]), Inversion(1)))
    v = word_preserves_domain(rotated, FullSpace(2), 42)
    assert not v.preserves and np.allclose(v.witness, [-0.8, 0.6], rtol=0, atol=1e-15)
    assert np.isfinite(eval_word(rotated, v.witness)).all()  # rounding misses the zero
    v = word_preserves_domain(Word(1, (Inversion(1),)), Punctured(1), 42)
    assert v.preserves and v.witness is None


def test_prefix_that_cannot_be_inverted_is_refused():
    # the inverse of the prefix overflows (1 / 1e-320), so no solved point
    # can be pulled back; sampling would miss the escape set {z2 = 0} and
    # report True, so the verdict is refused and names the odd step
    w = Word(2, (Diagonal((1e-320, 1.0)), Inversion(2)))
    with pytest.raises(NonFinite):
        invert_word(Word(2, w.steps[:1]))
    with pytest.raises(NonFinite, match=r"before step 2 \(Inversion\)"):
        word_preserves_domain(w, comp(2, {1}), 42)


def test_escape_of_overshear_vanishing_on_the_diagonal():
    # f = z1 - z2 vanishes at every constant filler point, so the escape
    # z3 = z2 - z1 is solved at the point with distinct coordinates
    z1, z2 = Poly.coordinate(3, 1), Poly.coordinate(3, 2)
    f = Poly(3, {**z1.terms, **(-z2).terms})
    w = Word(3, (Overshear(3, f, Poly.zero(3)),))
    d = comp(3, {3})
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves
    assert contains(d, v.witness) and not contains(d, eval_word(w, v.witness))


def test_escape_of_linear_row_summing_to_zero():
    # the entries of the first row sum to 0, so w1 = 0 has only the
    # solution z3 = 0 at every constant filler point
    w = Word(3, (Linear([[1, -1, 1], [0, 1, 0], [0, 0, 1]]),))
    d = comp(3, {1, 2, 3})
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves
    assert contains(d, v.witness) and not contains(d, eval_word(w, v.witness))


def test_permutation_must_fix_deleted_set():
    swap = Word(2, (Permutation((2, 1)),))
    assert not word_preserves_domain(swap, comp(2, {1}), 42).preserves
    assert word_preserves_domain(swap, comp(2, {1, 2}), 42).preserves


def test_linear_mixing_into_deleted_axis_rejected():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    w = Word(2, (Linear(m),))
    d = comp(2, {1})
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves
    assert contains(d, v.witness)
    image = eval_word(w, v.witness)
    assert not contains(d, image)
    scale = Word(2, (Linear(np.diag([2.0, 3.0]).astype(complex)),))
    assert word_preserves_domain(scale, d, 42).preserves


def test_cancelling_permutations_pass():
    swap2 = Word(2, (Permutation((2, 1)), Permutation((2, 1))))
    assert word_preserves_domain(swap2, comp(2, {1}), 42).preserves


def test_double_inversion_still_singular_on_kept_axis():
    # 1/(1/z) cancels algebraically but the word is undefined at z2=0,
    # which lies inside the domain, so stepwise evaluation must reject
    w = Word(2, (Inversion(2), Inversion(2)))
    v = word_preserves_domain(w, comp(2, {1}), 42)
    assert not v.preserves and v.witness[1] == 0
    w_ok = Word(2, (Inversion(1), Inversion(1)))
    assert word_preserves_domain(w_ok, comp(2, {1}), 42).preserves


def test_escape_found_behind_prefix():
    # the bad inversion only happens after a diagonal rescale
    w = Word(2, (Diagonal((3.0, 1.0)), Inversion(2)))
    v = word_preserves_domain(w, comp(2, {1}), 42)
    assert not v.preserves
    assert v.witness[1] == 0


def test_preserving_words_survive_larger_sample():
    rng = np.random.default_rng(99)
    d = comp(2, {1, 2})
    for _ in range(5):
        w = Word(2, (random_diagonal(rng, 2), Inversion(1),
                     random_diagonal(rng, 2)))
        assert word_preserves_domain(w, d, 7).preserves
        pts = sample_points(d, 10000, np.random.default_rng(8))
        from hologroup import eval_word_batch
        assert np.all(contains_batch(d, eval_word_batch(w, pts)))


def test_automorphism_rules():
    z1, z2 = Poly.coordinate(3, 1), Poly.coordinate(3, 2)
    one = Poly.constant(3, 1.0)
    zero = Poly.zero(3)
    d = comp(3, {1, 3})
    assert _automorphism(Inversion(1), d)
    assert not _automorphism(Inversion(2), d)  # a free axis
    assert _automorphism(Permutation((3, 2, 1)), d)
    assert not _automorphism(Permutation((2, 1, 3)), d)  # moves the deleted set
    assert _automorphism(Overshear(2, one, z1), d)  # a free axis
    assert _automorphism(Overshear(1, zero, z2), d)
    assert not _automorphism(Overshear(1, z2, zero), d)  # f != 0
    assert _automorphism(Linear([[0, 0, 2], [5, 1, 7], [3j, 0, 0]]), d)
    assert not _automorphism(Linear([[1, 0, 1], [0, 1, 0], [0, 0, 1]]), d)
    assert not _automorphism(Linear([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), d)
    assert _automorphism(Diagonal((2.0, 3.0, 4.0)), d)
    assert not _automorphism(Overshear(2, one, zero), Punctured(3))  # f(0) != 0
    assert _automorphism(Overshear(2, z1, one), Punctured(3))
    assert _automorphism(Linear(np.eye(3) + 1.0), Punctured(3))
    assert not _automorphism(Inversion(1), Punctured(3))
    assert _automorphism(Overshear(1, one, one), FullSpace(3))
    assert not _automorphism(Inversion(1), FullSpace(3))


DOMAINS = [FullSpace(2), FullSpace(3), Punctured(2), Punctured(3), comp(1, {1}),
           comp(2, {1}), comp(3, {2}), comp(3, {1, 3}), comp(2, {1, 2})]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_proved_preservation_matches_sampled(d, seed):
    rng = np.random.default_rng(seed)
    w = automorphism_word(rng, d)
    assert all(_automorphism(step, d) for step in w.steps)
    want = preserves_sampled(w, d, seed)
    assert want.preserves and want.witness is None
    assert word_preserves_domain(w, d, seed) == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_one_arbitrary_step_is_decided_by_its_class(d, seed):
    # one arbitrary step among automorphisms: the word preserves d exactly
    # when that step is an automorphism, and it is never reported to
    # preserve d where the structural and sampled passes found an escape
    rng = np.random.default_rng(seed)
    steps = [automorphism_step(rng, d) for _ in range(int(rng.integers(0, 3)))]
    step = random_step(rng, d.n)
    steps.insert(int(rng.integers(0, len(steps) + 1)), step)
    w = Word(d.n, tuple(steps))
    got, want = word_preserves_domain(w, d, seed), preserves_sampled(w, d, seed)
    assert got.preserves == automorphism(step, d)
    if not got.preserves:
        assert contains(d, got.witness)
    assert want.preserves or not got.preserves


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_two_odd_steps_keep_the_sampled_verdict(d, seed):
    # with two or more steps that are not automorphisms, the verdict and
    # its witness are the structural-then-sampled ones, bit for bit (on
    # every domain but C \ {0}, which the oracle reads as punctured)
    rng = np.random.default_rng(seed)
    steps = [automorphism_step(rng, d) for _ in range(int(rng.integers(0, 3)))]
    odd = 0
    while odd < 2 or rng.integers(0, 3) == 0:
        step = random_step(rng, d.n)
        if not automorphism(step, d):
            steps.insert(int(rng.integers(0, len(steps) + 1)), step)
            odd += 1
    w = Word(d.n, tuple(steps))
    got, want = word_preserves_domain(w, d, seed), preserves_sampled(w, d, seed)
    assert got.preserves == want.preserves
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, want.witness)
