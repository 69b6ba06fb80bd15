"""Group laws as oracles: identities that hold for every word, so they check
verdicts on words that no closed form decides.

- Chain rule: jac(u∘v)(z) = jac(u)(z) · jac(v)(u(z)).
- Preservation under conjugation: for an automorphism a of d, w preserves
  d iff a⁻¹∘w∘a does. The conjugators are `wordgen.automorphism_word`s
  with their `Diagonal` and `Linear` steps dropped, since those inverses
  round (1/λ, `np.linalg.inv`) and the stored conjugate would then be
  another map. Permutations, inversions and overshears (whose inverse
  negates f and g) are inverted exactly.

A word with two or more odd steps (steps that do not map d onto d) is the
known defect of `test_escape_behind_an_earlier_odd_step_on_a_complement`:
there the law may break, and the pairs below pin three that do.
"""

import numpy as np
import pytest

from hologroup import (Diagonal, HyperplaneComplement, Linear, Word, compose,
                       eval_word_batch, invert_word, jacobian_det_batch,
                       word_preserves_domain)
from hologroup.domains import _escapes
from wordgen import admissible_points, automorphism_word, random_word

DOMAINS = [HyperplaneComplement(2, frozenset({1})), HyperplaneComplement(2, frozenset({1, 2})),
           HyperplaneComplement(3, frozenset({1, 3})), HyperplaneComplement(3, frozenset({2}))]
PAIRS = 2000


def test_chain_rule():
    rng = np.random.default_rng(11)
    for i in range(PAIRS):
        n = 2 + i % 2
        u, v = random_word(rng, n), random_word(rng, n)
        z = admissible_points(compose(u, v), rng, 16, n)
        whole = jacobian_det_batch(compose(u, v), z)
        parts = jacobian_det_batch(u, z) * jacobian_det_batch(v, eval_word_batch(u, z))
        assert np.all(np.abs(whole - parts) <= 1e-12 * np.abs(whole)), (i, u, v)


def conjugation_pairs():
    """(i, d, w, a⁻¹∘w∘a) for the pairs of one seeded stream; a's Diagonal
    and Linear steps are drawn, then dropped, so the stream is that of
    `automorphism_word`."""
    rng = np.random.default_rng(5)
    for i in range(PAIRS):
        d = DOMAINS[i % len(DOMAINS)]
        w = random_word(rng, d.n, max_steps=3)
        a = automorphism_word(rng, d, max_steps=3)
        a = Word(d.n, tuple(s for s in a.steps if not isinstance(s, (Diagonal, Linear))))
        yield i, d, w, compose(compose(a, w), invert_word(a))


def odd_steps(w, d) -> int:
    return sum(_escapes(step, d) is not None for step in w.steps)


def test_preservation_is_invariant_under_conjugation():
    for i, d, w, conjugate in conjugation_pairs():
        same = (word_preserves_domain(w, d).preserves
                == word_preserves_domain(conjugate, d).preserves)
        assert same or odd_steps(w, d) >= 2, (i, d, w, conjugate)


def _pair(index):
    return next(pair for pair in conjugation_pairs() if pair[0] == index)


# w is False and its conjugate True on each; both words have two odd steps
@pytest.mark.parametrize("index", [
    pytest.param(67, marks=pytest.mark.xfail(
        strict=True, reason="escape behind an earlier odd step, exp-free "
                            "(a permutation, then a linear map): items 12 and 15")),
    pytest.param(88, marks=pytest.mark.xfail(
        strict=True, reason="escape behind an earlier odd step, exp-free "
                            "(two linear maps): items 12 and 15")),
    pytest.param(733, marks=pytest.mark.xfail(
        strict=True, reason="escape behind an earlier odd step, two overshears "
                            "with an exp: item 15")),
])
def test_conjugation_law_behind_an_earlier_odd_step(index):
    _, d, w, conjugate = _pair(index)
    assert word_preserves_domain(w, d).preserves == \
        word_preserves_domain(conjugate, d).preserves


def test_pinned_pairs_are_of_the_known_defect():
    for index in (67, 88, 733):
        _, d, w, conjugate = _pair(index)
        assert odd_steps(w, d) == odd_steps(conjugate, d) == 2
