import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import warnings

import pytest

from hologroup import cli, homotopy

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "scenes", "demo.json")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def run(*args, scene=DEMO):
    """(exit code, stdout, stderr) of `cli.main` on args, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*args, "--scene", scene])
    return code, out.getvalue(), err.getvalue()


def run_process(*args, scene=DEMO):
    """As `run`, through `python -m hologroup` in a new process."""
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
            # z1 -> z1 + 1 -> z1: two odd steps, and no rule proves it preserves d
            "there_and_back": {"n": 2, "steps": [
                {"type": "overshear", "axis": 1, "g": [],
                 "f": [{"exponents": [0, 0], "re": 1.0, "im": 0.0}]},
                {"type": "overshear", "axis": 1, "g": [],
                 "f": [{"exponents": [0, 0], "re": -1.0, "im": 0.0}]}]},
            # its image and its determinant at (1, 1) overflow
            "square_1e308": {"n": 2, "steps": [
                {"type": "diagonal", "lambda": [[1e308, 0.0], [1.0, 0.0]]},
                {"type": "diagonal", "lambda": [[1e308, 0.0], [1.0, 0.0]]}]},
            # its image at (1, 1) is finite, its determinant overflows
            "det_1e616": {"n": 2, "steps": [
                {"type": "permutation", "perm": [2, 1]},
                {"type": "diagonal", "lambda": [[1e308, 0.0], [1.0, 0.0]]},
                {"type": "permutation", "perm": [2, 1]},
                {"type": "diagonal", "lambda": [[1.0, 0.0], [1e308, 0.0]]}]},
            # its image and determinant overflow at (1e10, 1)
            "diag_1e300": {"n": 2, "steps": [{"type": "diagonal",
                                              "lambda": [[1e300, 0.0], [1e300, 0.0]]}]},
            # z2 -> exp(z1^1000) z2 overflows wherever |z1| > 1.0008
            "g_z1_1000": {"n": 2, "steps": [{"type": "overshear", "axis": 2, "f": [],
                                             "g": [{"exponents": [1000, 0], "re": 1.0,
                                                    "im": 0.0}]}]},
            # undefined on {z2 = 0}; the inverse of its first step overflows
            "tiny_inv": {"n": 2, "steps": [{"type": "diagonal",
                                            "lambda": [[1e-320, 0.0], [1.0, 0.0]]},
                                           {"type": "inversion", "axis": 2}]},
            # z2 -> 360 z1^32, then z1 -> exp(z2 + 331) z1: finite on the contour
            # "z2_zero", where the quotient of two samples overflows
            "wild": {"n": 2, "steps": [
                {"type": "overshear", "axis": 2, "g": [],
                 "f": [{"exponents": [32, 0], "re": 360.0, "im": 0.0}]},
                {"type": "overshear", "axis": 1, "f": [],
                 "g": [{"exponents": [0, 1], "re": 1.0, "im": 0.0},
                       {"exponents": [0, 0], "re": 331.0, "im": 0.0}]}]},
        },
        "contours": {
            "good": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "z2_zero": {"axis": 1, "p": [[1.0, 0.0], [0.0, 0.0]], "R": 1.0},
            "bad_axis": {"axis": 2, "p": [[1.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "off_domain": {"axis": 1, "p": [[0.0, 0.0], [1.0, 0.0]], "R": 1.0},
            "bad_radius": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": -1.0},
            "wide": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": 2.0},
        },
        "paths": {
            # exp((1-t) 400 z1) leaves the float range on the radius-2 polydisc
            "blowup": {"type": "overshear", "n": 2, "axis": 2,
                       "f": [{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                       "g": [{"exponents": [1, 0], "re": 400.0, "im": 0.0}]},
            # g(z) = 1e308i z1 is not finite at some sample points
            "huge_g": {"type": "overshear", "n": 2, "axis": 2, "f": [],
                       "g": [{"exponents": [1, 0], "re": 0.0, "im": 1e308}]},
            # f(z) = z1^1000 is not finite on the polydisc of radius 1e10
            "f_z1_1000": {"type": "overshear", "n": 2, "axis": 2, "g": [],
                          "f": [{"exponents": [1000, 0], "re": 1.0, "im": 0.0}]},
            # three terms in each of f and g, all finite
            "fg": {"type": "overshear", "n": 2, "axis": 2,
                   "f": [{"exponents": [1, 0], "re": 0.5, "im": -0.25},
                         {"exponents": [2, 0], "re": 0.0, "im": 0.3},
                         {"exponents": [0, 0], "re": -0.2, "im": 0.0}],
                   "g": [{"exponents": [2, 0], "re": 0.25, "im": 0.1},
                         {"exponents": [1, 0], "re": -0.15, "im": 0.0},
                         {"exponents": [0, 0], "re": 0.0, "im": 0.05}]},
        },
    }
    f = tmp_path_factory.mktemp("scenes") / "aux.json"
    f.write_text(json.dumps(scene), encoding="utf-8")
    return str(f)


# one invocation pinned through both launchers: `python -m` and the script
WINDING_ARGV = ["winding-index", "--word", "inv1", "--contour", "c0"]
WINDING_LINE = '{"index":-1,"raw":-1.0,"samples":64}\n'


def test_winding_index_golden():
    code, out, err = run_process(*WINDING_ARGV)
    assert code == 0
    assert out == WINDING_LINE


# a success, a HoloError and a usage error
ENTRY_CASES = [
    (WINDING_ARGV, 0),
    (["validate-exponents", "--matrix", "m_bad"], 2),
    (["eval", "--word", "id"], 1),
]


@pytest.mark.parametrize("argv,code", ENTRY_CASES, ids=["exit 0", "exit 2", "exit 1"])
def test_process_entry_matches_in_process_main(argv, code, capsys):
    # the process entry freezes the heap; cli.main must leave its caller's alone
    frozen = gc.get_freeze_count()
    assert cli.main([*argv, "--scene", DEMO]) == code
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    assert run_process(*argv) == (code, out, err)


def test_process_entry_freezes_before_main(monkeypatch):
    from hologroup import __main__ as process
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(process, "main", lambda: calls.append("main") or 0)
    assert process.entry() == 0
    assert calls == ["freeze", "main"]


def test_console_script_target_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hologroup"]
    module, _, name = target.partition(":")
    from hologroup.__main__ import entry
    assert getattr(importlib.import_module(module), name) is entry


def test_output_is_byte_deterministic():
    # two processes, so that a dependence on the hash seed would show
    a = run_process(*WINDING_ARGV)
    b = run_process(*WINDING_ARGV)
    assert a == b


def test_eval_and_jacobian():
    code, out, _ = run("eval", "--word", "shear", "--point", "1,0;2,0")
    assert code == 0
    assert json.loads(out) == {"image": [[1.0, 0.0], [3.0, 0.0]]}
    code, out, _ = run("jacobian", "--word", "diag", "--point", "1,0;1,0")
    assert code == 0
    assert json.loads(out) == {"det": [0.0, 6.0]}
    # an empty component between separators is skipped
    assert run("eval", "--word", "shear", "--point=1,0;;2,0") == \
        run("eval", "--word", "shear", "--point", "1,0;2,0")


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


def test_classify_and_preserves(tmp_path):
    code, out, _ = run("classify")
    assert code == 0
    assert json.loads(out) == {"kind": "complement", "is_stein": True}
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert run("classify", scene=str(empty)) == \
        (1, "", "input error: scene has no domain to classify\n")
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
        [],                                        # --scene FILE read as a subcommand
        ["frobnicate"],                            # unknown subcommand
        ["eval", "--word", "id"],                  # missing --point
        ["eval", "--word", "id", "--point", "x"],  # malformed point
        ["homotopy-certify", "--path", "swap_path", "--grid", "abc"],
    ):
        code, out, err = run(*argv)
        assert code == 1, argv
        assert out == ""
        assert err != ""


# each usage error's one stderr line; the first call has no argument at all
USAGE_ERRORS = [
    ([], "a subcommand is required (try --help)"),
    (["eval", "--word", "shear", "--point=a,b", "--scene", DEMO],
     "bad point component 'a,b': not numbers"),
    (["eval", "--word", "shear", "--point=;", "--scene", DEMO],
     "point must have at least one coordinate"),
    (["centralizer", "--word", "shear", "--seed", "x", "--scene", DEMO],
     "argument --seed: invalid seed 'x': not an integer"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=["no subcommand", "point a,b", "point ;", "seed x"])
def test_usage_error_lines(argv, message, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


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
    # each of these ended in a traceback: bytes that are not UTF-8, nesting
    # past the decoder's recursion limit, an integer past Python's
    # 4,300-digit limit for converting a decimal string
    for name, data in [("latin1.json", b'{"words": {"\xe9": {}}}'),
                       ("deep.json", b"[" * 200_000),
                       ("bigint.json", b'{"exponent_matrices": {"m": [[' + b"9" * 5000
                        + b"]]}}")]:
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run("classify", scene=str(path))
        assert code == 1 and out == "", name
        assert err.startswith(f"input error: scene file {path} ") and err.count("\n") == 1


def test_oversized_exponent_entry_exits_1(tmp_path):
    # formatting NotUnimodular's 5,001-digit determinant ended in a ValueError
    big = 10 ** 2500
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"exponent_matrices": {"m": [[big, 0], [0, big]]}}),
                    encoding="utf-8")
    code, out, err = run("validate-exponents", "--matrix", "m", scene=str(path))
    assert code == 1 and out == ""
    assert err == ("input error: scene.exponent_matrices.m: "
                   "an entry has magnitude 2^63 or more\n")


# float() of each ended the CLI in "OverflowError: int too large to convert
# to float", with a traceback
BEYOND_FLOAT = 10 ** 400
TERM = {"exponents": [1, 0], "re": 1.0, "im": 0.0}
BEYOND_FLOAT_FIELDS = [
    ({"contours": {"c": {"axis": 1, "p": [[1.0, 0.0], [1.0, 0.0]], "R": BEYOND_FLOAT}}},
     "contours.c.R"),
    ({"contours": {"c": {"axis": 1, "p": [[1.0, 0.0], [BEYOND_FLOAT, 0.0]], "R": 1.0}}},
     "contours.c.p"),
    ({"words": {"w": {"n": 2, "steps": [{"type": "overshear", "axis": 2, "g": [],
                                         "f": [{**TERM, "re": BEYOND_FLOAT}]}]}}},
     "words.w.steps[0].f"),
    ({"words": {"w": {"n": 2, "steps": [{"type": "overshear", "axis": 2, "f": [],
                                         "g": [{**TERM, "im": -BEYOND_FLOAT}]}]}}},
     "words.w.steps[0].g"),
    ({"words": {"w": {"n": 2, "steps": [{"type": "diagonal",
                                         "lambda": [[1.0, 0.0], [0.0, BEYOND_FLOAT]]}]}}},
     "words.w.steps[0]"),
    ({"words": {"w": {"n": 2, "steps": [{"type": "linear", "matrix": [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-BEYOND_FLOAT, 0.0]]]}]}}},
     "words.w.steps[0]"),
    ({"paths": {"q": {"type": "transposition", "n": 2, "j": 1, "k": 2,
                      "bump": {"table": [0.0, BEYOND_FLOAT, 0.0]}}}},
     "paths.q.bump"),
]


@pytest.mark.parametrize("scene,where", BEYOND_FLOAT_FIELDS,
                         ids=["R", "p", "re", "im", "lambda", "matrix", "table"])
def test_scene_number_beyond_the_float_range_exits_1(tmp_path, scene, where):
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps({"domain": {"kind": "complement", "n": 2, "deleted": [1]},
                                **scene}), encoding="utf-8")
    code, out, err = run("classify", scene=str(path))
    assert code == 1 and out == ""
    assert err == (f"input error: scene.{where}: "
                   "a number has magnitude beyond the float range\n")


# each printed the whole number on one stderr line, of some 4,400 bytes, or
# failed to format it: two such exponents sum past Python's 4,300-digit limit
NINES = 10 ** 4300 - 1
HUGE_G = {"type": "overshear", "axis": 2, "f": []}
HUGE_NUMBERS = [
    ({"n": 2, "steps": [{**HUGE_G, "g": [{"exponents": [NINES, 0], "re": 1.0, "im": 0.0}]}]},
     ".steps[0].g: an exponent has magnitude over the limit of 1000"),
    ({"n": 2, "steps": [{**HUGE_G, "g": [{"exponents": [NINES, NINES], "re": 1.0,
                                          "im": 0.0}]}]},
     ".steps[0].g: an exponent has magnitude over the limit of 1000"),
    ({"n": 2, "steps": [{**HUGE_G, "g": [{"exponents": [-NINES, 0], "re": 1.0, "im": 0.0}]}]},
     ".steps[0].g: an exponent has magnitude over the limit of 1000"),
    ({"n": 2, "steps": [{"type": "inversion", "axis": NINES}]},
     ".steps[0]: an axis has magnitude over the limit of 64"),
    ({"n": 2, "steps": [{"type": "permutation", "perm": [NINES, 1]}]},
     ".steps[0]: a permutation entry has magnitude over the limit of 64"),
    ({"n": NINES, "steps": []}, ": a dimension has magnitude over the limit of 64"),
]


@pytest.mark.parametrize("word,message", HUGE_NUMBERS,
                         ids=["exponent", "two exponents", "negative exponent",
                              "inversion axis", "permutation entry", "dimension"])
def test_huge_scene_numbers_are_refused_by_their_limit(tmp_path, word, message):
    path = tmp_path / "huge.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"words": {"w": word}}, fh)
    code, out, err = run("invert", "--word", "w", scene=str(path))
    assert code == 1 and out == ""
    assert err == f"input error: scene.words.w{message}\n"
    assert len(err) < 100


# [NaN, 1, NaN] passed the bump's endpoint checks and exited 2 with "linear
# step is singular to tolerance"; [0, NaN, 0] exited 2 with "|det| is not
# finite at t = 0.1"
@pytest.mark.parametrize("table,index", [([float("nan"), 1.0, float("nan")], 0),
                                         ([0.0, float("nan"), 0.0], 1)],
                         ids=["nan ends", "nan middle"])
def test_non_finite_bump_exits_1(tmp_path, table, index):
    scene = {"paths": {"p": {"type": "transposition", "n": 2, "j": 1, "k": 2,
                             "bump": {"table": table}}}}
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(scene), encoding="utf-8")
    code, out, err = run("homotopy-certify", "--path", "p", "--grid", "11", scene=str(path))
    assert code == 1 and out == ""
    assert err == (f"input error: scene.paths.p.bump: bump table value {index} "
                   "is nan, which is not finite\n")


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


def test_singular_subnormal_linear_step_exits_1(tmp_path):
    # its row-normalised determinant was NaN, which passed the singularity
    # test, and `jacobian` printed {"det":[0.0,0.0]} with exit 0
    tiny = [5e-324, 0.0]
    scene = {"words": {"w": {"n": 2, "steps": [
        {"type": "linear", "matrix": [[tiny, tiny], [tiny, tiny]]}]}}}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(scene), encoding="utf-8")
    code, out, err = run("jacobian", "--word", "w", "--point", "1,0;1,0", scene=str(path))
    assert code == 1 and out == ""
    assert err == "input error: scene.words.w.steps[0]: linear step is singular to tolerance\n"


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


OVERFLOW_AT_1E10 = ["--point", "1e10,0;1,0"]


# each subcommand enters `quiet()` where it computes, and main does not
@pytest.mark.parametrize("argv,code", [
    (["winding-index", "--word", "spike", "--contour", "good"], 2),
    (["centralizer", "--word", "spike", "--seed", "3"], 2),
    (["eval", "--word", "diag_1e300", *OVERFLOW_AT_1E10], 2),
    (["jacobian", "--word", "diag_1e300", *OVERFLOW_AT_1E10], 2),
    (["winding-index", "--word", "g_z1_1000", "--contour", "wide"], 0),
    (["centralizer", "--word", "g_z1_1000"], 2),
    (["extract-diagonal", "--word", "g_z1_1000"], 2),
    (["eval", "--word", "g_z1_1000", *OVERFLOW_AT_1E10], 2),
    (["homotopy-certify", "--path", "f_z1_1000", "--radius", "1e10"], 2),
    (["continuity", "--path", "f_z1_1000", "--t", "0.1", "--radius", "1e10"], 2),
], ids=["winding-index", "centralizer", "eval-diagonal", "jacobian-diagonal",
        "winding-index-exp", "centralizer-exp", "extract-diagonal-exp", "eval-exp",
        "homotopy-certify-exp", "continuity-exp"])
def test_refusal_stderr_is_one_line(aux_scene, argv, code):
    # numpy's overflow warnings used to print above the refusal; they are
    # errors here, so a block that overflows outside `quiet()` fails the call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(*argv, scene=aux_scene)
    assert got == code and out.count("\n") == 1
    payload = json.loads(out)
    assert err == (f"error: {payload['message']}\n" if code == 2 else "")


@pytest.mark.parametrize("seed", ["3", "42"])
def test_extraction_refuses_an_overflowing_ratio(aux_scene, seed, capsys):
    # the library returned [1-0j, inf+nanj], and the CLI failed only in the
    # encoder, with "cannot serialize non-finite float inf"
    assert cli.main(["extract-diagonal", "--word", "e800", "--seed", seed,
                     "--scene", aux_scene]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "NonFinite"
    assert payload["message"].startswith("diagonal extraction: the orbit ratio w(p) / p is ")
    assert payload["message"].endswith(", which is not finite")
    assert err == f"error: {payload['message']}\n"


def test_overflowing_winding_quotient_exits_2(aux_scene):
    # the word's index is 1; this exited 0 with
    # {"index":5,"raw":4.5000000000416716,"samples":64}
    code, out, err = run("winding-index", "--word", "wild", "--contour", "z2_zero",
                         scene=aux_scene)
    assert code == 2
    message = ("the quotient of the output coordinate by its previous sample is "
               "(inf+infj) at theta 0.19634954084936207, which is not finite")
    assert json.loads(out) == {"error": "NonFinite", "message": message}
    assert err == f"error: {message}\n"


def test_not_diagonal_names_its_point():
    code, out, err = run("extract-diagonal", "--word", "shear")
    assert code == 2
    message = ("orbit ratio is not constant across sample points "
               "at p [ 1.33320764+0.26143011j -1.10395728+0.46364697j]")
    assert out == f'{{"error":"NotDiagonal","message":"{message}"}}\n'
    assert err == f"error: {message}\n"


# both exited 2 with only the encoder's "cannot serialize non-finite float inf"
@pytest.mark.parametrize("argv,what", [
    (["eval", "--word", "square_1e308"], "the image w(p) is [inf+0.j  1.+0.j]"),
    (["jacobian", "--word", "det_1e616"], "the Jacobian determinant is (inf+0j)"),
], ids=["eval", "jacobian"])
def test_overflow_is_refused_at_its_source(aux_scene, argv, what, capsys):
    assert cli.main([*argv, "--point", "1,0;1,0", "--scene", aux_scene]) == 2
    out, err = capsys.readouterr()
    message = f"{what} at p [1.+0.j 1.+0.j], which is not finite"
    assert json.loads(out) == {"error": "NonFinite", "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.skipif(shutil.which("hologroup") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["hologroup", *WINDING_ARGV, "--scene", DEMO],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == WINDING_LINE


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
     '{"endpoint_err0":0.0,"endpoint_err1":0.0,'
     '"min_abs_det":0.42711760691476847,"max_inverse_residual":1.9860273225978185e-15}'),
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
    # the path invocations that the benchmark's cli workload runs
    (["homotopy-certify", "--path", "shear_path"],
     '{"endpoint_err0":0.0,"endpoint_err1":0.0,"min_abs_det":1.0,'
     '"max_inverse_residual":3.1401849173675503e-16}'),
    (["continuity", "--path", "swap_path", "--t", "0.001"],
     '{"dt":0.001,"modulus":0.0083854419446615803}'),
]
# a line is named by its subcommand; a later line for the same one adds its word
GOLDEN_IDS = []
for argv, _ in DEMO_GOLDEN:
    GOLDEN_IDS.append(" ".join(argv[:3]) if argv[0] in GOLDEN_IDS else argv[0])


# the usage line of the top level and of each subcommand, one line each
# on a 200-column terminal
USAGE_LINES = {
    None: "usage: hologroup [-h] <command> ...",
    "eval": 'usage: hologroup eval [-h] --scene FILE --word WORD --point "re,im;..."',
    "compose": "usage: hologroup compose [-h] --scene FILE --word WORD",
    "invert": "usage: hologroup invert [-h] --scene FILE --word WORD",
    "jacobian": 'usage: hologroup jacobian [-h] --scene FILE --word WORD --point "re,im;..."',
    "winding-index":
        "usage: hologroup winding-index [-h] --scene FILE --word WORD --contour CONTOUR",
    "negative-component":
        "usage: hologroup negative-component [-h] --scene FILE --word WORD --contour CONTOUR",
    "homotopy-certify": "usage: hologroup homotopy-certify [-h] --scene FILE --path PATH "
                        "[--grid GRID] [--radius RADIUS] [--seed SEED]",
    "continuity": "usage: hologroup continuity [-h] --scene FILE --path PATH --t T "
                  "[--radius RADIUS] [--seed SEED]",
    "centralizer": "usage: hologroup centralizer [-h] --scene FILE --word WORD [--seed SEED]",
    "extract-diagonal":
        "usage: hologroup extract-diagonal [-h] --scene FILE --word WORD [--seed SEED]",
    "classify": "usage: hologroup classify [-h] --scene FILE",
    "preserves": "usage: hologroup preserves [-h] --scene FILE --word WORD [--seed SEED]",
    "validate-exponents":
        "usage: hologroup validate-exponents [-h] --scene FILE --matrix MATRIX",
}


@pytest.mark.parametrize("command,line", USAGE_LINES.items(),
                         ids=[c or "hologroup" for c in USAGE_LINES])
def test_usage_line(command, line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"] if command is None else [command, "--help"])
    assert capsys.readouterr().out.split("\n")[0] == line


def test_command_table_matches_benchmark_and_goldens():
    from test_benchmark_pools import load_workloads
    assert tuple(cli.COMMANDS) == load_workloads().CLI_COMMANDS
    assert tuple(USAGE_LINES)[1:] == tuple(cli.COMMANDS)
    assert {argv[0] for argv, _ in DEMO_GOLDEN} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv,expected", DEMO_GOLDEN, ids=GOLDEN_IDS)
def test_demo_scene_golden(argv, expected, capsys):
    assert cli.main([*argv, "--scene", DEMO]) == 0
    assert capsys.readouterr().out == expected + "\n"


# an overshear path with several terms in f and g, whose bits follow the
# closed form (1-t) f(z) + exp((1-t) g(z)) z2 with f(z), g(z) evaluated once
# and exp((1-t) g) taken as exp((1-t) Re g) (cos + i sin)((1-t) Im g); at
# t = 0 that differs from the target word's complex exp by about one ulp
AUX_GOLDEN = [
    (["homotopy-certify", "--path", "fg"],
     '{"endpoint_err0":2.2204460492503131e-16,"endpoint_err1":0.0,'
     '"min_abs_det":0.41509158048281408,"max_inverse_residual":1.1116099371267112e-15}'),
    (["continuity", "--path", "fg", "--t", "0.01"],
     '{"dt":0.01,"modulus":0.078420318125922997}'),
]


@pytest.mark.parametrize("argv,expected", AUX_GOLDEN, ids=["homotopy-certify", "continuity"])
def test_aux_scene_golden(argv, expected, aux_scene, capsys):
    assert cli.main([*argv, "--scene", aux_scene]) == 0
    assert capsys.readouterr().out == expected + "\n"


# the refusal named |det| at t = 1.0 at grid 11, and the inverse residual at
# t = 0.0 at grid 33, since a block checked every |det| before any residual
# and the place that failed first depended on the block size
HUGE_G_MESSAGE = ("the overshear's g(z) is (8.630392279382267e+305-infj) at z "
                  "[-1.85319108-0.00863039j  1.03277691+1.31257151j], which is not finite")


@pytest.mark.parametrize("block", [1, homotopy.BLOCK_TIMES], ids=["block 1", "default block"])
@pytest.mark.parametrize("grid", ["11", "33"])
def test_non_finite_g_is_refused_where_it_is_evaluated(grid, block, aux_scene, monkeypatch):
    monkeypatch.setattr(homotopy, "BLOCK_TIMES", block)
    code, out, err = run("homotopy-certify", "--path", "huge_g", "--grid", grid, scene=aux_scene)
    assert code == 2
    assert json.loads(out) == {"error": "NonFinite", "message": HUGE_G_MESSAGE}
    assert err == f"error: {HUGE_G_MESSAGE}\n"


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
    assert cli.main([*argv, "--scene", DEMO]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["error"] == "BudgetExhausted"
    assert payload["message"].endswith("is over the budget of 1000000 times")
    assert err == f"error: {payload['message']}\n"
