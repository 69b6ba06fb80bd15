import json
import os
import shutil
import subprocess
import sys
import time

import pytest

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "scenes", "demo.json")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(*args, scene=DEMO):
    argv = [sys.executable, "-m", "hologroup", *args]
    if scene is not None:
        argv += ["--scene", scene]
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def aux_scene(tmp_path_factory):
    """Scene with contours/words that only fail once an operation runs."""
    scene = {
        "domain": {"kind": "complement", "n": 2, "deleted": [1]},
        "words": {
            "edge": {"n": 2, "steps": [{"type": "overshear", "axis": 1,
                                        "f": [{"exponents": [0, 0], "re": 1.0,
                                               "im": 0.0}],
                                        "g": []}]},
            "huge": {"n": 2, "steps": [{"type": "overshear", "axis": 2, "f": [],
                                        "g": [{"exponents": [1, 0], "re": 800.0,
                                               "im": 0.0}]}]},
            "spike": {"n": 2, "steps": [{"type": "overshear", "axis": 1, "f": [],
                                         "g": [{"exponents": [0, 0], "re": 800.0,
                                                "im": 0.0}]}]},
            # z2 -> z1 + e^800 z2: not diagonal, and its orbit ratio overflows
            "e800": {"n": 2, "steps": [{"type": "overshear", "axis": 2,
                                        "f": [{"exponents": [1, 0], "re": 1.0,
                                               "im": 0.0}],
                                        "g": [{"exponents": [0, 0], "re": 800.0,
                                               "im": 0.0}]}]},
            # z1 -> z1 + 1 -> z1: two odd steps, so preservation is sampled
            "there_and_back": {"n": 2, "steps": [
                {"type": "overshear", "axis": 1, "g": [],
                 "f": [{"exponents": [0, 0], "re": 1.0, "im": 0.0}]},
                {"type": "overshear", "axis": 1, "g": [],
                 "f": [{"exponents": [0, 0], "re": -1.0, "im": 0.0}]}]},
            # undefined on {z2 = 0}; the inverse of its first step overflows
            "tiny_inv": {"n": 2, "steps": [{"type": "diagonal",
                                            "lambda": [[1e-320, 0.0], [1.0, 0.0]]},
                                           {"type": "inversion", "axis": 2}]},
        },
        "contours": {
            "good": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "bad_axis": {"axis": 2, "p": [[1.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "off_domain": {"axis": 1, "p": [[0.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "bad_radius": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": -1.0},
        },
        # exp((1-t) 400 z1) leaves the float range on the radius-2 polydisc
        "paths": {
            "blowup": {"type": "overshear", "n": 2, "axis": 2,
                       "f": [{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                       "g": [{"exponents": [1, 0], "re": 400.0, "im": 0.0}]},
        },
    }
    f = tmp_path_factory.mktemp("scenes") / "aux.json"
    f.write_text(json.dumps(scene), encoding="utf-8")
    return str(f)


def test_winding_index_golden():
    code, out, err = run("winding-index", "--word", "inv1", "--contour", "c0")
    assert code == 0
    assert out == '{"index":-1,"raw":-1.0,"samples":64}\n'


def test_output_is_byte_deterministic():
    a = run("winding-index", "--word", "inv1", "--contour", "c0")
    b = run("winding-index", "--word", "inv1", "--contour", "c0")
    assert a == b


def test_eval_and_jacobian():
    code, out, _ = run("eval", "--word", "shear", "--point", "1,0;2,0")
    assert code == 0
    assert json.loads(out) == {"image": [[1.0, 0.0], [3.0, 0.0]]}
    code, out, _ = run("jacobian", "--word", "diag", "--point", "1,0;1,0")
    assert code == 0
    assert json.loads(out) == {"det": [0.0, 6.0]}


def test_compose_and_invert():
    code, out, _ = run("compose", "--word", "id", "--word", "inv1")
    assert code == 0
    assert json.loads(out) == {"n": 2,
                               "steps": [{"type": "inversion", "axis": 1}]}
    code, out, _ = run("invert", "--word", "inv1")
    assert code == 0
    assert json.loads(out)["steps"] == [{"type": "inversion", "axis": 1}]


def test_compose_needs_exactly_two_words():
    code, out, err = run("compose", "--word", "id")
    assert code == 1 and out == ""
    assert "exactly two" in err


def test_negative_component():
    code, out, _ = run("negative-component", "--word", "inv1",
                       "--contour", "c0")
    assert code == 0
    assert json.loads(out) == {"in_negative_component": True}


def test_homotopy_certify_small_grid():
    code, out, _ = run("homotopy-certify", "--path", "swap_path",
                       "--grid", "21")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"endpoint_err0", "endpoint_err1", "min_abs_det",
                        "max_inverse_residual"}
    assert rep["endpoint_err0"] < 1e-12 and rep["endpoint_err1"] < 1e-12
    assert rep["min_abs_det"] > 0.4
    assert rep["max_inverse_residual"] < 1e-9


def test_continuity():
    code, out, _ = run("continuity", "--path", "shear_path", "--t", "0.25")
    assert code == 0
    rep = json.loads(out)
    assert rep["dt"] == 0.25 and rep["modulus"] > 0.0


def test_centralizer_and_extract():
    code, out, _ = run("centralizer", "--word", "diag")
    assert code == 0
    assert json.loads(out) == {"commutes": True, "witness": None}
    code, out, _ = run("extract-diagonal", "--word", "diag")
    assert code == 0
    lam = json.loads(out)["lambda"]
    assert abs(complex(*lam[0]) - 2.0) < 1e-12
    assert abs(complex(*lam[1]) - 3j) < 1e-12


def test_centralizer_negative_verdict_has_witness():
    code, out, _ = run("centralizer", "--word", "shear")
    assert code == 0
    res = json.loads(out)
    assert res["commutes"] is False
    assert res["witness"]["deviation"] > 1e-3
    assert len(res["witness"]["theta"]) == 2


def test_classify_and_preserves():
    code, out, _ = run("classify")
    assert code == 0
    assert json.loads(out) == {"kind": "complement", "is_stein": True}
    code, out, _ = run("preserves", "--word", "inv1")
    assert code == 0
    assert json.loads(out) == {"preserves": True, "witness": None}
    code, out, _ = run("preserves", "--word", "swap")
    assert code == 0
    res = json.loads(out)
    assert res["preserves"] is False and res["witness"] is not None


def test_validate_exponents():
    code, out, _ = run("validate-exponents", "--matrix", "m_shear")
    assert code == 0
    assert out == '{"det":1}\n'
    code, out, err = run("validate-exponents", "--matrix", "m_bad")
    assert code == 2
    assert out == '{"error":"NotUnimodular","det":2}\n'
    assert err != ""


def test_usage_errors_exit_1():
    for argv in (
        [],                                        # no subcommand
        ["frobnicate"],                            # unknown subcommand
        ["eval", "--word", "id"],                  # missing --point
        ["eval", "--word", "id", "--point", "x"],  # malformed point
        ["homotopy-certify", "--path", "swap_path", "--grid", "abc"],
    ):
        code, out, err = run(*argv)
        assert code == 1, argv
        assert out == ""
        assert err != ""


# each of these ended in numpy's "expected non-negative integer" traceback
NEGATIVE_SEEDS = [
    (["centralizer", "--word", "shear", "--seed", "-1"], DEMO),
    (["extract-diagonal", "--word", "shear", "--seed", "-1"], DEMO),
    (["homotopy-certify", "--path", "swap_path", "--seed", "-1"], DEMO),
    (["continuity", "--path", "swap_path", "--t", "0.5", "--seed", "-2"], DEMO),
    (["preserves", "--word", "there_and_back", "--seed", "-1"], None),
]


@pytest.mark.parametrize("argv,scene", NEGATIVE_SEEDS,
                         ids=[a[0] for a, _ in NEGATIVE_SEEDS])
def test_negative_seed_is_a_usage_error(argv, scene, aux_scene, capsys):
    from hologroup import cli
    assert cli.main([*argv, "--scene", scene or aux_scene]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:") and "non-negative" in err
    assert err.count("\n") == 1


def test_scene_errors_exit_1(tmp_path):
    code, out, _ = run("eval", "--word", "ghost", "--point", "1,0;1,0")
    assert code == 1 and out == ""
    code, out, _ = run("eval", "--word", "id", "--point", "1,0;1,0",
                       scene=str(tmp_path / "none.json"))
    assert code == 1 and out == ""
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, out, _ = run("eval", "--word", "id", "--point", "1,0;1,0",
                       scene=str(broken))
    assert code == 1 and out == ""


def test_non_finite_scene_term_exits_1(tmp_path):
    # json.loads accepts the NaN literal; the polynomial refuses it
    scene = {"words": {"w": {"n": 2, "steps": [
        {"type": "overshear", "axis": 2, "f": [], "g": [
            {"exponents": [1, 0], "re": float("nan"), "im": 0.0}]}]}}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scene), encoding="utf-8")
    code, out, err = run("eval", "--word", "w", "--point", "1,0;1,0", scene=str(path))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_dimension_mismatch_exits_1():
    code, out, _ = run("eval", "--word", "id", "--point", "1,0")
    assert code == 1 and out == ""


def test_math_errors_exit_2(aux_scene):
    cases = [
        (["eval", "--word", "inv1", "--point", "0,0;1,0"], "SingularPoint", DEMO),
        (["continuity", "--path", "shear_path", "--t", "1.5"], "OutOfRange", DEMO),
        (["extract-diagonal", "--word", "shear"], "NotDiagonal", DEMO),
        (["centralizer", "--word", "swap"], "DomainNotPreserved", DEMO),
        (["winding-index", "--word", "edge", "--contour", "good"],
         "ZeroOnContour", aux_scene),
        (["winding-index", "--word", "edge", "--contour", "bad_axis"],
         "InvalidAxis", aux_scene),
        (["winding-index", "--word", "edge", "--contour", "off_domain"],
         "OutsideDomain", aux_scene),
        (["winding-index", "--word", "edge", "--contour", "bad_radius"],
         "OutOfRange", aux_scene),
        (["eval", "--word", "id", "--point", "nan,0;1,0"], "NonFinite", DEMO),
        (["eval", "--word", "id", "--point", "inf,0;1,0"], "NonFinite", DEMO),
        (["jacobian", "--word", "diag", "--point", "nan,0;1,0"], "NonFinite", DEMO),
        (["eval", "--word", "huge", "--point", "1,0;1,0"], "NonFinite", aux_scene),
        (["homotopy-certify", "--path", "blowup", "--grid", "101"], "NonFinite",
         aux_scene),
        (["continuity", "--path", "blowup", "--t", "0.01", "--radius", "3"],
         "NonFinite", aux_scene),
        (["winding-index", "--word", "spike", "--contour", "good"], "NonFinite",
         aux_scene),
        (["centralizer", "--word", "spike", "--seed", "3"], "NonFinite", aux_scene),
        (["preserves", "--word", "tiny_inv"], "NonFinite", aux_scene),
    ]
    for argv, name, scene in cases:
        code, out, err = run(*argv, scene=scene)
        assert code == 2, (argv, err)
        payload = json.loads(out)
        assert payload["error"] == name
        assert err != "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [["winding-index", "--word", "spike", "--contour", "good"],
                                  ["centralizer", "--word", "spike", "--seed", "3"]],
                         ids=["winding-index", "centralizer"])
def test_refusal_stderr_is_one_line(aux_scene, argv):
    # numpy's overflow warnings used to print above the refusal
    code, out, err = run(*argv, scene=aux_scene)
    assert code == 2
    assert err == f"error: {json.loads(out)['message']}\n"


@pytest.mark.parametrize("seed", ["3", "42"])
def test_extraction_refuses_an_overflowing_ratio(aux_scene, seed, capsys):
    # the library returned [1-0j, inf+nanj], and the CLI failed only in the
    # encoder, with "cannot serialize non-finite float inf"
    from hologroup import cli
    assert cli.main(["extract-diagonal", "--word", "e800", "--seed", seed,
                     "--scene", aux_scene]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "NonFinite"
    assert payload["message"].startswith("diagonal extraction: the orbit ratio w(p) / p is ")
    assert payload["message"].endswith(", which is not finite")
    assert err == f"error: {payload['message']}\n"


@pytest.mark.skipif(shutil.which("hologroup") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["hologroup", "winding-index", "--word", "inv1",
                           "--contour", "c0", "--scene", DEMO],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '{"index":-1,"raw":-1.0,"samples":64}\n'


# stdout of one fixed invocation per subcommand on the demo scene,
# pinned byte for byte; run in process to spare 13 interpreter starts
DEMO_GOLDEN = [
    (["eval", "--word", "inv1", "--point", "2,1;3,0"],
     '{"image":[[0.40000000000000002,-0.20000000000000001],[3.0,0.0]]}'),
    (["compose", "--word", "shear", "--word", "inv1"],
     '{"n":2,"steps":[{"type":"overshear","axis":2,"f":[{"exponents":[1,0],'
     '"re":1.0,"im":0.0}],"g":[]},{"type":"inversion","axis":1}]}'),
    (["invert", "--word", "shear"],
     '{"n":2,"steps":[{"type":"overshear","axis":2,"f":[{"exponents":[1,0],'
     '"re":-1.0,"im":0.0}],"g":[]}]}'),
    (["jacobian", "--word", "inv1", "--point", "0.5,0.25;1,0"],
     '{"det":[-1.9199999999999999,2.5600000000000001]}'),
    (["winding-index", "--word", "inv1", "--contour", "c0"],
     '{"index":-1,"raw":-1.0,"samples":64}'),
    (["negative-component", "--word", "inv1", "--contour", "c0"],
     '{"in_negative_component":true}'),
    (["homotopy-certify", "--path", "swap_path"],
     '{"endpoint_err0":0.0,"endpoint_err1":3.1401849173675503e-16,'
     '"min_abs_det":0.42711760691476847,"max_inverse_residual":1.5582722720639764e-15}'),
    (["continuity", "--path", "shear_path", "--t", "1e-3"],
     '{"dt":0.001,"modulus":0.0019704801692940551}'),
    (["centralizer", "--word", "diag"], '{"commutes":true,"witness":null}'),
    (["extract-diagonal", "--word", "diag"],
     '{"lambda":[[2.0,0.0],[0.0,3.0]]}'),
    (["classify"], '{"kind":"complement","is_stein":true}'),
    (["preserves", "--word", "inv1"], '{"preserves":true,"witness":null}'),
    (["validate-exponents", "--matrix", "m_shear"], '{"det":1}'),
    (["preserves", "--word", "swap"], '{"preserves":false,"witness":[[1.0,0.0],[0.0,0.0]]}'),
    (["centralizer", "--word", "shear"],
     '{"commutes":false,"witness":{"theta":[3.4845589853632135,0.40097564589827117],'
     '"z":[[1.7610168620744406,-0.81202456754381369],[0.92934435816108729,0.86978956773764049]],'
     '"deviation":3.876803592371374}}'),
]
# a line is named by its subcommand; a later line for the same one adds its word
GOLDEN_IDS = []
for argv, _ in DEMO_GOLDEN:
    GOLDEN_IDS.append(" ".join(argv[:3]) if argv[0] in GOLDEN_IDS else argv[0])


@pytest.mark.parametrize("argv,expected", DEMO_GOLDEN, ids=GOLDEN_IDS)
def test_demo_scene_golden(argv, expected, capsys):
    from hologroup import cli
    assert cli.main([*argv, "--scene", DEMO]) == 0
    assert capsys.readouterr().out == expected + "\n"


# oversized work and unusable sampling radii are refused before any
# allocation, with the exit-2 error document; run in process, since each
# must return at once
REFUSED = [
    (["continuity", "--path", "shear_path", "--t", "1e-9"], "BudgetExhausted"),
    (["homotopy-certify", "--path", "swap_path", "--grid", str(10 ** 9)],
     "BudgetExhausted"),
    (["homotopy-certify", "--path", "shear_path", "--radius", "nan"], "OutOfRange"),
    (["homotopy-certify", "--path", "shear_path", "--radius", "inf"], "OutOfRange"),
    (["homotopy-certify", "--path", "shear_path", "--radius", "-2"], "OutOfRange"),
    (["continuity", "--path", "swap_path", "--t", "0.1", "--radius", "nan"],
     "OutOfRange"),
]


@pytest.mark.parametrize("argv,name", REFUSED, ids=[" ".join(a[3:]) for a, _ in REFUSED])
def test_refused_before_any_work(argv, name, capsys):
    from hologroup import cli
    start = time.perf_counter()
    assert cli.main([*argv, "--scene", DEMO]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == name
    assert err != ""


# the refusal used to print the count: a 401-digit --grid ended in
# "OverflowError: int too large to convert to float", and --t 1e-300
# printed a 301-digit count
@pytest.mark.parametrize("argv", [
    ["homotopy-certify", "--path", "swap_path", "--grid", "1" + "0" * 400],
    ["continuity", "--path", "swap_path", "--t", "1e-300"],
], ids=["401-digit grid", "t 1e-300"])
def test_budget_refusal_does_not_print_the_count(argv, capsys):
    from hologroup import cli
    assert cli.main([*argv, "--scene", DEMO]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "BudgetExhausted"
    assert payload["message"].endswith("is over the budget of 1000000 times")
    assert err == f"error: {payload['message']}\n"
