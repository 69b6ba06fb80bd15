import json

import numpy as np
import pytest

from hologroup import (CertificationReport, Diagonal, FullSpace,
                       HyperplaneComplement, Inversion, Linear, NonFinite,
                       Overshear, Permutation, Poly, Punctured, SceneError, Word)
from hologroup.serialize import (dumps, format_float, load_scene, parse_bump,
                                 parse_complex, parse_contour, parse_domain,
                                 parse_exponent_matrix, parse_path,
                                 parse_poly, parse_scene, parse_word,
                                 poly_to_json, step_to_json, word_to_json)


def test_format_float_goldens():
    assert format_float(1.0) == "1.0"
    assert format_float(-0.0) == "-0.0"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(2.5) == "2.5"
    assert format_float(1e300) == "1.0000000000000001e+300"
    assert format_float(-3.0) == "-3.0"


def test_format_float_rejects_non_finite():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(NonFinite):
            format_float(bad)


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=10.0, size=200):
        assert float(format_float(float(x))) == float(x)


def test_dumps_compact_and_stable():
    obj = {"b": [1, -2.0, True, None], "a": {"x": "s"}}
    s = dumps(obj)
    assert s == '{"b":[1,-2.0,true,null],"a":{"x":"s"}}'
    assert dumps(obj) == s
    assert json.loads(s) == {"b": [1, -2.0, True, None], "a": {"x": "s"}}


def test_dumps_encodes_complex_arrays_and_records():
    assert dumps(1 - 0.5j) == "[1.0,-0.5]"
    assert dumps(np.array([[1j, -0.0], [2.5, 3]])) == \
        "[[[0.0,1.0],[-0.0,0.0]],[[2.5,0.0],[3.0,0.0]]]"
    assert dumps(np.array([0.25, 1.0])) == "[0.25,1.0]"
    rep = CertificationReport(0.0, 1e-16, 0.5, 2.0)
    assert dumps(rep) == ('{"endpoint_err0":0.0,"endpoint_err1":9.9999999999999998e-17,'
                          '"min_abs_det":0.5,"max_inverse_residual":2.0}')
    with pytest.raises(NonFinite):
        dumps({"z": np.array([complex(1.0, float("nan"))])})


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


def test_complex_pair_round_trip():
    for c in (1 + 2j, -0.5j, 3.0 + 0j, 0j):
        assert parse_complex(json.loads(dumps(c)), "t") == c
    with pytest.raises(SceneError):
        parse_complex([1.0], "t")
    with pytest.raises(SceneError):
        parse_complex("1+2j", "t")


def test_poly_round_trip():
    p = Poly(2, {(1, 0): 2.0, (0, 2): -1j, (0, 0): 0.5 + 0.5j})
    assert parse_poly(poly_to_json(p), 2, "t") == p
    assert parse_poly([], 2, "t") == Poly.zero(2)


def test_poly_duplicate_terms_sum():
    raw = [{"exponents": [1, 0], "re": 1.0, "im": 0.0},
           {"exponents": [1, 0], "re": 2.0, "im": 0.0}]
    assert parse_poly(raw, 2, "t") == Poly(2, {(1, 0): 3.0})


def test_poly_parse_errors():
    with pytest.raises(SceneError):
        parse_poly([{"re": 1.0, "im": 0.0}], 2, "t")  # no exponents
    with pytest.raises(SceneError):
        parse_poly([{"exponents": [1], "re": 1.0, "im": 0.0}], 2, "t")  # arity
    with pytest.raises(SceneError):
        parse_poly([{"exponents": [-1, 0], "re": 1.0, "im": 0.0}], 2, "t")
    with pytest.raises(SceneError):
        parse_poly([{"exponents": [1, 0], "re": "x", "im": 0.0}], 2, "t")


ALL_STEPS = [
    Overshear(2, Poly.coordinate(2, 1), Poly(2, {(2, 0): 0.25j})),
    Permutation((2, 1)),
    Diagonal((2.0, 3j)),
    Linear(np.array([[1.0, 2.0], [0.0, 1j]])),
    Inversion(1),
]


def through_json(obj):
    """obj as the CLI prints it, read back."""
    return json.loads(dumps(obj))


def test_step_round_trips():
    for step in ALL_STEPS:
        assert parse_word(through_json({"n": 2, "steps": [step_to_json(step)]}), "t") == \
            Word(2, (step,))


def test_word_round_trip():
    w = Word(2, tuple(ALL_STEPS))
    assert parse_word(through_json(word_to_json(w)), "t") == w
    ident = Word.identity(3)
    assert parse_word(through_json(word_to_json(ident)), "t") == ident


def test_word_json_is_byte_stable():
    w = Word(2, tuple(ALL_STEPS))
    assert dumps(word_to_json(w)) == dumps(word_to_json(w))


def test_parse_step_errors():
    def bad_word(step):
        with pytest.raises(SceneError):
            parse_word({"n": 2, "steps": [step]}, "t")

    bad_word({"axis": 1})  # no type
    bad_word({"type": "rotation"})  # unknown type
    bad_word({"type": "inversion"})  # missing axis
    bad_word({"type": "inversion", "axis": 0})  # constructor rejects
    bad_word({"type": "permutation", "perm": [1, 1]})  # not a bijection
    bad_word({"type": "diagonal", "lambda": [[0.0, 0.0], [1.0, 0.0]]})  # zero
    bad_word({"type": "linear", "matrix": [[[1.0, 0.0], [2.0, 0.0]],
                                           [[2.0, 0.0], [4.0, 0.0]]]})  # singular
    bad_word({"type": "overshear", "axis": 1,
              "f": [{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
              "g": []})  # f depends on its own axis


def test_parse_word_errors():
    with pytest.raises(SceneError):
        parse_word({"steps": []}, "t")
    with pytest.raises(SceneError):
        parse_word({"n": 2, "steps": "nope"}, "t")
    with pytest.raises(SceneError):
        parse_word({"n": True, "steps": []}, "t")


def test_domain_round_trips():
    assert parse_domain({"kind": "full", "n": 2}, "t") == FullSpace(2)
    assert parse_domain({"kind": "punctured", "n": 3}, "t") == Punctured(3)
    assert parse_domain({"kind": "complement", "n": 3, "deleted": [3, 1]}, "t") == \
        HyperplaneComplement(3, frozenset({1, 3}))


def test_parse_domain_errors():
    with pytest.raises(SceneError):
        parse_domain({"kind": "torus", "n": 2}, "t")
    with pytest.raises(SceneError):
        parse_domain({"kind": "full"}, "t")
    with pytest.raises(SceneError):
        parse_domain({"kind": "full", "n": 0}, "t")
    with pytest.raises(SceneError):
        parse_domain({"kind": "complement", "n": 2, "deleted": [3]}, "t")


def test_parse_contour_is_deferred():
    # invalid radius still parses; validation happens when a contour is built
    c = parse_contour({"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": -1.0}, "t")
    assert c.axis == 1 and c.R == -1.0 and c.p == (1 + 0j, 1 + 0j)
    with pytest.raises(SceneError):
        parse_contour({"p": [[1.0, 0.0]], "R": 1.0}, "t")


def test_parse_bump():
    assert parse_bump("sin", "t").name == "sin"
    assert parse_bump(None, "t").name == "sin"
    tb = parse_bump({"table": [0.0, 1.0, 0.0]}, "t")
    assert tb.name == "table"
    with pytest.raises(SceneError):
        parse_bump("cos", "t")
    with pytest.raises(SceneError):
        parse_bump({"table": [0.5, 1.0, 0.0]}, "t")


def test_parse_path():
    p = parse_path({"type": "transposition", "n": 2, "j": 1, "k": 2}, "t")
    assert (p.j, p.k, p.n, p.bump.name) == (1, 2, 2, "sin")
    q = parse_path({"type": "overshear", "n": 2, "axis": 2,
                    "f": [{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                    "g": []}, "t")
    assert q.target == Overshear(2, Poly.coordinate(2, 1), Poly.zero(2))
    with pytest.raises(SceneError):
        parse_path({"type": "transposition", "n": 2, "j": 2, "k": 1}, "t")
    with pytest.raises(SceneError):
        parse_path({"type": "spin", "n": 2}, "t")
    f = [{"exponents": [1, 0], "re": 1.0, "im": 0.0}]
    with pytest.raises(SceneError) as exc:
        parse_path({"type": "overshear", "n": 2, "axis": 2, "f": f}, "t")
    assert str(exc.value) == "t: missing field 'g'"
    with pytest.raises(SceneError) as exc:
        parse_path({"type": "overshear", "n": 2, "axis": 3, "f": [], "g": []}, "t")
    assert str(exc.value) == "t: axis 3 out of range 1..2"


# a constructor's complaint is re-raised as a SceneError naming the field
CONSTRUCTOR_ERRORS = [
    (lambda: parse_poly([{"exponents": [-1, 0], "re": 1.0, "im": 0.0}], 2, "t"),
     "t: negative exponent in (-1, 0)"),
    (lambda: parse_word({"n": 2, "steps": [{"type": "inversion", "axis": 0}]}, "t"),
     "t.steps[0]: axis must be a positive coordinate index"),
    (lambda: parse_word({"n": 2, "steps": [{"type": "inversion", "axis": 3}]}, "t"),
     "t: inversion axis 3 exceeds dimension 2"),
    (lambda: parse_domain({"kind": "complement", "n": 2, "deleted": [3]}, "t"),
     "t: deleted indices [3] out of range 1..2"),
    (lambda: parse_bump({"table": [0.5, 1.0, 0.0]}, "t"),
     "t: bump function must vanish at t=0 and t=1"),
    (lambda: parse_path({"type": "transposition", "n": 2, "j": 2, "k": 1}, "t"),
     "t: need 1 <= j < k <= n, got j=2, k=1, n=2"),
    # numbers that size the work are bounded before anything is allocated:
    # n = 3000 made homotopy-certify end in a MemoryError from np.linalg.det,
    # n = 30000000 made extract-diagonal end in one, and an exponent of
    # 200000 made eval take seconds
    (lambda: parse_path({"type": "transposition", "n": 3000, "j": 1, "k": 2}, "t"),
     "t: dimension 3000 is over the limit of 64"),
    (lambda: parse_word({"n": 30000000, "steps": []}, "t"),
     "t: dimension 30000000 is over the limit of 64"),
    (lambda: parse_domain({"kind": "full", "n": 3000}, "t"),
     "t: dimension 3000 is over the limit of 64"),
    (lambda: parse_poly([{"exponents": [200000, 0], "re": 1.0, "im": 0.0}], 2, "t"),
     "t: a term of total degree 200000 is over the limit of 1000"),
    # a 400 x 400 matrix took validate-exponents 84 s
    (lambda: parse_exponent_matrix([[int(i == j) for j in range(400)] for i in range(400)],
                                   "t"),
     "t: dimension 400 is over the limit of 64"),
]


@pytest.mark.parametrize("parse,message", CONSTRUCTOR_ERRORS,
                         ids=["poly", "step", "word", "domain", "bump", "path",
                              "path dimension", "word dimension", "domain dimension",
                              "degree", "matrix dimension"])
def test_constructor_errors_name_their_field(parse, message):
    with pytest.raises(SceneError) as exc:
        parse()
    assert str(exc.value) == message


def test_parse_exponent_matrix_shapes():
    assert parse_exponent_matrix([[1, 1], [0, 1]], "t") == [[1, 1], [0, 1]]
    # stored raw: unimodularity is checked by the operation, not the parser
    assert parse_exponent_matrix([[2, 0], [0, 1]], "t") == [[2, 0], [0, 1]]
    with pytest.raises(SceneError):
        parse_exponent_matrix([[1, 0], [0]], "t")
    with pytest.raises(SceneError):
        parse_exponent_matrix([[1.5, 0], [0, 1]], "t")
    with pytest.raises(SceneError):
        parse_exponent_matrix([], "t")
    # one form only: a bare n x n list, whose row count is its size
    with pytest.raises(SceneError, match="expected an n x n integer matrix"):
        parse_exponent_matrix({"n": 2, "a": [[1, 0], [0, 1]]}, "t")


def test_demo_scene_loads():
    scene = load_scene("scenes/demo.json")
    assert scene.domain == HyperplaneComplement(2, frozenset({1}))
    assert set(scene.words) >= {"id", "inv1", "diag", "shear", "swap"}
    assert "c0" in scene.contours
    assert {"shear_path", "swap_path"} <= set(scene.paths)
    assert {"m_id", "m_shear", "m_bad"} <= set(scene.exponent_matrices)


def test_scene_errors(tmp_path):
    with pytest.raises(SceneError):
        load_scene(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SceneError):
        load_scene(str(bad))
    with pytest.raises(SceneError):
        parse_scene([1, 2, 3])
    with pytest.raises(SceneError):
        parse_scene({"contours": {"c": {"axis": 1, "p": [[1.0, 0.0]], "R": 1.0}}})
    with pytest.raises(SceneError):
        parse_scene({"domain": {"kind": "full", "n": 2},
                     "words": {"w": {"n": 3, "steps": []}}})
    with pytest.raises(SceneError):
        parse_scene({"domain": {"kind": "complement", "n": 2, "deleted": [1]},
                     "contours": {"c": {"axis": 1, "p": [[1.0, 0.0]], "R": 1.0}}})
    with pytest.raises(SceneError):
        parse_scene({"words": "not a map"})


def test_scene_sections_default_empty():
    scene = parse_scene({})
    assert scene.domain is None
    assert scene.words == {} and scene.contours == {}
    assert scene.paths == {} and scene.exponent_matrices == {}
