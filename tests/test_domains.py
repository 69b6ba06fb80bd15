import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hologroup import (DimensionMismatch, Diagonal, FullSpace,
                       HyperplaneComplement, Inversion, Linear, NonFinite, Overshear,
                       Permutation, Poly, Punctured, Word, classify_domain,
                       commutes_with_torus, compose, contains, eval_word,
                       eval_word_batch, invert_word, sample_points, word_preserves_domain)
from hologroup.domains import _escapes, _pullbacks
from hologroup.words import monomial
from oracles import (_monomial_multipliers, _step_escapes, automorphism, contains_batch,
                     preserves_structural)
from wordgen import (automorphism_step, automorphism_word, exact_repair_word, monomial_word,
                     random_diagonal, random_step, random_word)


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


# coordinates at the edges of the `!= 0` rule: signed zeros, infinities,
# NaN in either part, and the smallest subnormal
EDGE_COORDINATES = (0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1.0, 5e-324,
                    complex(0.0, 5e-324), -5e-324, np.inf, -np.inf, complex(0.0, -np.inf),
                    np.nan, complex(0.0, np.nan), complex(-0.0, np.nan))


@pytest.mark.parametrize("d", [FullSpace(1), Punctured(1), comp(1, {1}), FullSpace(2),
                               Punctured(2), comp(2, {1}), comp(2, {2}), comp(2, {1, 2})],
                         ids=repr)
def test_point_membership_equals_the_batch_rule(d):
    pts = np.array(list(itertools.product(EDGE_COORDINATES, repeat=d.n)), dtype=np.complex128)
    want = contains_batch(d, pts)
    assert want.any() and (not want.all() or isinstance(d, FullSpace))
    assert [contains(d, z) for z in pts] == want.tolist()
    assert [contains(d, z.tolist()) for z in pts] == want.tolist()


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        contains(FullSpace(2), [1.0])
    with pytest.raises(DimensionMismatch):
        contains(Punctured(1), [0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        word_preserves_domain(Word(2), FullSpace(3), 1)


def test_domain_constructor_invariants():
    with pytest.raises(ValueError):
        FullSpace(0)
    # int() read the deleted index 1.5 as 1; a dimension of 1.5 was built
    with pytest.raises(ValueError, match=r"^a deleted index must be an integer, got 1\.5$"):
        HyperplaneComplement(2, frozenset({1.5}))
    for kind in (FullSpace, Punctured):
        with pytest.raises(ValueError, match=r"^a dimension must be an integer, got 1\.5$"):
            kind(1.5)
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


def test_one_odd_step_verdicts_are_proved():
    # both words were reported as preserving: the shift's escape was not
    # looked for on C \ {0}, and rounding in the rotation kept the
    # pulled-back zero of z1 from being exactly zero again
    shift = Word(1, (Overshear(1, Poly.constant(1, 1), Poly.zero(1)),))
    v = word_preserves_domain(shift, Punctured(1), 42)
    assert not v.preserves and v.witness.tolist() == [-1]
    rotated = Word(2, (Linear([[0.6, 0.8], [-0.8, 0.6]]), Inversion(1)))
    v = word_preserves_domain(rotated, FullSpace(2), 42)
    assert not v.preserves and np.allclose(v.witness, [-0.8, 0.6], rtol=0, atol=1e-15)
    assert np.isfinite(eval_word(rotated, v.witness)).all()  # rounding misses the zero
    v = word_preserves_domain(Word(1, (Inversion(1),)), Punctured(1), 42)
    assert v.preserves and v.witness is None


def test_origin_preimage_behind_an_origin_mover_is_proved():
    # both overshears move the origin; the end-to-end image of the
    # preimage of 0 rounds to 1e-16 instead of 0, so only the pull-back
    # rule sees the escape
    w = Word(2, (Overshear(1, Poly.constant(2, 0.5), Poly(2, {(0, 1): 0.2})),
                 Overshear(2, Poly(2, {(0, 0): 0.7, (1, 0): 1.0}), Poly.zero(2))))
    for seed in (1, 42):
        v = word_preserves_domain(w, Punctured(2), seed)
        assert not v.preserves
        assert np.allclose(v.witness, [-0.5751369, -0.7], rtol=0, atol=1e-7)
        assert np.allclose(eval_word(w, v.witness), 0, rtol=0, atol=1e-15)


def test_inversion_behind_another_odd_step_is_proved():
    # the first inversion leaves the word undefined where the rotated z1
    # is 0, whatever follows it; rounding in the rotation misses that zero,
    # and the second inversion undoes the first, so the end-to-end image
    # misses it too
    w = Word(2, (Linear([[0.6, 0.8], [-0.8, 0.6]]), Inversion(1), Inversion(1)))
    for d in (FullSpace(2), Punctured(2)):
        v = word_preserves_domain(w, d, 42)
        assert not v.preserves
        assert np.allclose(v.witness, [-0.8, 0.6], rtol=0, atol=1e-15)


@pytest.mark.xfail(strict=True, reason="a complement point pulled back behind an "
                   "earlier odd step needs enclosures to be proved in d")
def test_escape_behind_an_earlier_odd_step_on_a_complement():
    # the middle step makes z1 = 0 at a point of d and the last step does
    # not touch z1, but rounding in the pull-back keeps the end-to-end
    # image of z1 nonzero
    w = Word(3, (Diagonal((-0.09 - 0.67j, 0.07 + 0.3j, -0.34 + 1.19j)),
                 Overshear(1, Poly(3, {(0, 0, 2): 1.0}), Poly.zero(3)),
                 Overshear(3, Poly.constant(3, 1.0), Poly.zero(3))))
    d = comp(3, {1, 3})
    assert not word_preserves_domain(Word(3, w.steps[:2]), d, 1).preserves
    for seed in (1, 42):
        assert not word_preserves_domain(w, d, seed).preserves


def test_identity_is_not_reported_to_leave_a_complement():
    # o then o^-1 is exactly the identity, but at a random point
    # exp(-40 z1) z2 is absorbed by z1, so the computed z2 is exactly 0;
    # a sampler read that as an escape, and the torus guard refused the word
    o = Overshear(2, Poly.coordinate(2, 1), Poly(2, {(1, 0): -40.0}))
    w = compose(Word(2, (o,)), invert_word(Word(2, (o,))))
    d = comp(2, {2})
    for seed in (1, 42):
        assert word_preserves_domain(w, d, seed).preserves
    commutes_with_torus(w, d, 1)  # not refused with DomainNotPreserved


def test_exact_repair_word_preserves_at_every_seed():
    # the word preserves d by construction, but at some of the 256 points
    # a sampler drew with seed 41 (or 42, not 1 or 7) its computed z1
    # image is exactly 0.0, from cancelling terms of size about 1e4, and
    # the sampler reported False
    d = comp(2, {1})
    w = exact_repair_word(np.random.default_rng(41), d)
    pts = sample_points(d, 256, np.random.default_rng(41))
    assert (eval_word_batch(w, pts)[:, 0] == 0).any()
    for seed in (1, 7, 41, 42):
        v = word_preserves_domain(w, d, seed)
        assert v.preserves and v.witness is None


def test_large_cancellation_behind_an_odd_step_is_not_proved():
    # u then u^-1 is exactly the identity; the pull-back of the last odd
    # step's solved point (1, 0) is the origin, but 1e6 e^z1 e^-z1 - 1e6
    # leaves 1.2e-10 in z2; only the rounding bound carried through the
    # pull-back tells that from an escape
    z1 = Poly.coordinate(2, 1)
    u = Word(2, (Overshear(1, Poly.constant(2, 1.0), Poly.zero(2)),
                 Overshear(2, z1.scale(1e6), Poly.zero(2)),
                 Overshear(2, Poly.zero(2), z1)))
    w = compose(u, invert_word(u))
    z = eval_word(invert_word(Word(2, w.steps[:-1])), [1.0, 0.0])
    assert z[0] == 0 and np.abs(z[1]) > 1e-10
    for seed in (1, 42):
        v = word_preserves_domain(w, Punctured(2), seed)
        assert v.preserves and v.witness is None
    commutes_with_torus(w, Punctured(2), 1)  # not refused with DomainNotPreserved


def test_rounding_bound_walks_back_through_an_inversion():
    # the last step moves the origin, and the word sends its solved point
    # (-1, 0) to the origin; that pull-back runs back through Inversion(1),
    # behind an odd step, so it is proved only once the rounding bound,
    # carried through the inversion, tells it from the origin. The
    # inversion's own solved points drop out: exp(-g) overflows at each
    g = Poly(2, {(0, 1): -1000 + 5000j})
    w = Word(2, (Overshear(1, Poly.zero(2), g), Inversion(1),
                 Overshear(1, Poly.constant(2, 1.0), Poly.zero(2))))
    d = Punctured(2)
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves and v.witness.tolist() == [-1, 0]
    assert eval_word(w, v.witness).tolist() == [0, 0]
    (z, bound), = _pullbacks(w, 2, _escapes(w.steps[2], d))
    assert z.tolist() == [-1, 0]
    r = bound()
    assert np.isfinite(r[0]) and 0 < r[0] < 1e-10


def test_rounding_bound_walks_back_through_diagonal_and_linear_steps():
    # the last step moves the origin, and its solved point (0, -1) is pulled
    # back through a Linear, a Diagonal and the first odd step, to (-0.5, -2),
    # which the word sends to the origin; behind an odd step on C^2 \ {0} it is
    # proved only once its rounding bound, carried through the majorants of
    # both steps, tells it from the origin
    one = Poly.constant(2, 1.0)
    w = Word(2, (Overshear(1, one, Poly.zero(2)), Diagonal((2.0, 0.5)),
                 Linear([[1.0, 1.0], [0.0, 1.0]]), Overshear(2, one, Poly.zero(2))))
    d = Punctured(2)
    v = word_preserves_domain(w, d, 42)
    assert not v.preserves and v.witness.tolist() == [-0.5, -2]
    assert eval_word(w, v.witness).tolist() == [0, 0]
    (z, bound), = _pullbacks(w, 3, _escapes(w.steps[3], d))
    assert z.tolist() == [-0.5, -2]
    r = bound()
    assert np.all(np.isfinite(r)) and np.all(r > 0) and np.all(r < 1e-10)


# the solve -f(z) exp(-g(z)) overflows in exp at every filler point, and the
# overflow warning reached library callers; the solved points drop out, as
# they are not finite, and the verdict stays True
@pytest.mark.parametrize("axis,d", [(2, comp(2, {2})), (1, Punctured(2))],
                         ids=["complement", "punctured"])
def test_overflowing_solve_is_quiet(axis, d):
    w = Word(2, (Overshear(axis, Poly.constant(2, 1.0), Poly.constant(2, -800.0)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = word_preserves_domain(w, d, 1)
    assert v.preserves and v.witness is None


def test_prefix_that_cannot_be_inverted_is_refused():
    # the inverse of the prefix overflows (1 / 1e-320), so no solved point
    # can be pulled back, and the word, undefined on {z2 = 0}, would be
    # reported True; so the verdict is refused and names the odd step
    w = Word(2, (Diagonal((1e-320, 1.0)), Inversion(2)))
    with pytest.raises(NonFinite):
        invert_word(Word(2, w.steps[:1]))
    with pytest.raises(NonFinite, match=r"before step 2 \(Inversion\)"):
        word_preserves_domain(w, comp(2, {1}), 42)


def test_a_second_verdict_builds_no_step(monkeypatch):
    # the prefix before the escaping inversion inverts through the steps'
    # cached inverses, so a second call builds no Poly, Overshear or Linear
    # and gives the same verdict and witness bytes
    f, g = Poly(2, {(1, 0): 0.5}), Poly(2, {(1, 0): 0.25j, (0, 0): 0.1})
    w = Word(2, (Linear(np.array([[1.0, 2.0], [0.5, 3.0]], dtype=complex)),
                 Overshear(2, f, g), Inversion(2)))
    first = word_preserves_domain(w, FullSpace(2), 1)
    built = []
    for cls in (Poly, Overshear, Linear):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: built.append(self) or init(self))
    second = word_preserves_domain(w, FullSpace(2), 1)
    assert not built
    assert first.preserves is second.preserves is False
    assert first.witness.tobytes() == second.witness.tobytes()


# every solved point (c, 0) of the inversion pulls back through the two
# diagonals to (c * 1e400, 0), which is not finite; the word is undefined on
# {z2 = 0}, so the True these pull-backs once left behind was wrong
@pytest.mark.parametrize("d", [FullSpace(2), comp(2, {1}), Punctured(2)], ids=repr)
def test_solved_points_that_pull_back_to_infinity_are_refused(d):
    w = Word(2, (Diagonal((1e-200, 1)), Diagonal((1e-200, 1)), Inversion(2)))
    with pytest.raises(NonFinite, match=r"no solved point of step 3 \(Inversion\)"):
        word_preserves_domain(w, d, 1)
    # a later step whose pull-back is finite still proves False
    v = word_preserves_domain(Word(2, w.steps + (Inversion(1),)), FullSpace(2), 1)
    assert not v.preserves and v.witness[0] == 0


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

# multipliers with signed zero parts, as test_torus draws them
MONOMIAL_MULTIPLIERS = (2.0, -3.0, 0.5j, 1.25 + 0.75j, complex(2.0, -0.0),
                        complex(-0.0, 3.0), complex(-1.5, -0.0))


def _monomial_steps(d, seeds=range(40)):
    """The steps of seeded monomial words on d, then Inversion(a) for each axis."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        yield from monomial_word(rng, d.n, MONOMIAL_MULTIPLIERS, close=bool(seed % 2)).steps
    yield from (Inversion(a) for a in range(1, d.n + 1))


# on C^4 minus {z1 z2 = 0} a permutation can move two free coordinates
# into deleted slots, so the order of its solved points shows
@pytest.mark.parametrize("d", DOMAINS + [comp(4, {1, 2})], ids=repr)
def test_monomial_rule_yields_the_oracle_escapes(d):
    # one rule for every monomial step: an automorphism exactly where the
    # oracle's class rules say so, else the oracle's solved points, in its
    # order and with its bytes
    for step in _monomial_steps(d):
        got = _escapes(step, d)
        assert (got is None) == automorphism(step, d), step
        if got is not None:
            want = _step_escapes(step, d, d.n)
            assert [z.tobytes() for z in got] == [z.tobytes() for z in want], step


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_equals_the_oracle_multipliers(n):
    rng = np.random.default_rng(n)
    steps = [*_monomial_steps(FullSpace(n), range(30)), *(random_step(rng, n) for _ in range(60))]
    for step in steps:
        got, want = monomial(step), _monomial_multipliers(step, n)
        if isinstance(step, Inversion):
            assert want is None and got == (None, None, (step.axis - 1,))
            continue
        assert (got is None) == (want is None), step
        if want is not None:
            lam, src, inverted = got
            assert inverted == ()
            assert (np.ones(n, dtype=np.complex128) if lam is None else lam).tobytes() \
                == want[0].tobytes()
            assert (list(range(n)) if src is None else src) == want[1].tolist()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_proved_preservation_matches_sampled(d, seed):
    rng = np.random.default_rng(seed)
    w = automorphism_word(rng, d)
    assert all(_automorphism(step, d) for step in w.steps)
    want = preserves_structural(w, d)
    assert want.preserves and want.witness is None
    assert word_preserves_domain(w, d, seed) == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_one_arbitrary_step_is_decided_by_its_class(d, seed):
    # one arbitrary step among automorphisms: the word preserves d exactly
    # when that step is an automorphism, and it is never reported to
    # preserve d where the oracle's structural pass found an escape
    rng = np.random.default_rng(seed)
    steps = [automorphism_step(rng, d) for _ in range(int(rng.integers(0, 3)))]
    step = random_step(rng, d.n)
    steps.insert(int(rng.integers(0, len(steps) + 1)), step)
    w = Word(d.n, tuple(steps))
    got, want = word_preserves_domain(w, d, seed), preserves_structural(w, d)
    assert got.preserves == automorphism(step, d)
    if not got.preserves:
        assert contains(d, got.witness)
    assert want.preserves or not got.preserves


# |w(0)| above this is clear of the rounding in evaluating these words
W0_ROUNDING = 1e-9


def _two_odd_step_word(rng, d) -> Word:
    """0-2 automorphisms of d with two or more steps that are not, in
    random places."""
    steps = [automorphism_step(rng, d) for _ in range(int(rng.integers(0, 3)))]
    odd = 0
    while odd < 2 or rng.integers(0, 3) == 0:
        step = random_step(rng, d.n)
        if not automorphism(step, d):
            steps.insert(int(rng.integers(0, len(steps) + 1)), step)
            odd += 1
    return Word(d.n, tuple(steps))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
def test_two_odd_steps_keep_the_sampled_verdict(d, seed):
    # with two or more steps that are not automorphisms, the verdict and
    # its witness are the oracle's structural ones, bit for bit, on
    # complements where the first odd step is no inversion; on C^n and
    # C^n \ {0} the closed forms hold; no escape found by the oracle is lost
    w = _two_odd_step_word(np.random.default_rng(seed), d)
    steps = w.steps
    got, want = word_preserves_domain(w, d, seed), preserves_structural(w, d)
    first = next(s for s in steps if not automorphism(s, d))
    inverts = any(isinstance(s, Inversion) for s in steps)
    if isinstance(d, HyperplaneComplement) and not isinstance(first, Inversion):
        assert got.preserves == want.preserves
        if want.witness is None:
            assert got.witness is None
        else:
            assert np.array_equal(got.witness, want.witness)
    if isinstance(d, FullSpace):
        assert got.preserves == (not inverts)
    if isinstance(d, Punctured) and (inverts or np.max(np.abs(
            eval_word(w, np.zeros(d.n, dtype=np.complex128)))) > W0_ROUNDING):
        assert not got.preserves
    assert want.preserves or not got.preserves


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
@example(Punctured(2), 68)
@example(Punctured(3), 357)
@example(Punctured(2), 92)
@example(Punctured(2), 1081)
@example(comp(3, {2}), 3898503)
def test_exactly_undone_steps_keep_the_sampled_verdict(d, seed):
    # u then u^-1 may each leave d, but the word preserves it; on
    # C^n \ {0} the origin pulled back through them is 0 up to rounding,
    # which must not count as a proved escape: max|z_i| is 1.6e-16 and
    # 5.7e-17 for the first two examples, and 1.6e-9 and 0.17 for the
    # last two, whose u^-1 cancels values scaled by 10^6. So a False is
    # the oracle's, witness and all. A True is right, also for the last
    # example, whose steps are all automorphisms of d, though a sampler
    # once read a rounded-off deleted coordinate of its image as 0
    rng = np.random.default_rng(seed)
    w = exact_repair_word(rng, d)
    got, want = word_preserves_domain(w, d, seed), preserves_structural(w, d)
    if got.preserves:
        assert got.witness is None
    else:
        assert not want.preserves and np.array_equal(got.witness, want.witness)


def _outcome(w, d, seed):
    v = word_preserves_domain(w, d, seed)
    return v.preserves, None if v.witness is None else v.witness.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 2 ** 32 - 1))
@example(comp(2, {1}), 41)  # the word of test_exact_repair_word_preserves_at_every_seed
def test_preservation_does_not_depend_on_the_seed(d, seed):
    # the verdict, witness bytes included, is a function of the word and
    # the domain; the seed is accepted and ignored
    for make in (lambda rng: random_word(rng, d.n), lambda rng: exact_repair_word(rng, d),
                 lambda rng: _two_odd_step_word(rng, d)):
        w = make(np.random.default_rng(seed))
        assert _outcome(w, d, 1) == _outcome(w, d, 42)
