"""The benchmark's tracer binds hologroup names from outside `src/`; a
rename that breaks `benchmarks/layers/run.py --trace 1` fails here."""

import importlib.util
import os

import numpy as np

from hologroup import Overshear, Poly, Word, cli, eval_word_batch, serialize

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "layers",
                       "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    dumps, certify = serialize.dumps, cli.certify_path
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert serialize.dumps is not dumps and serialize.dumps.__wrapped__ is dumps
        assert cli.certify_path is not certify
    finally:
        tracer.uninstall()
    assert serialize.dumps is dumps and cli.certify_path is certify


def test_one_overshear_is_one_kernel_call():
    # f and g share one exponent table (three distinct terms), evaluated in
    # one kernel call; a step that bypassed poly_eval would read as no
    # kernel time in `--trace 1`
    tracing = load_tracing()
    f = Poly(3, {(0, 0, 0): 1.0, (1, 0, 0): 2.0})
    g = Poly(3, {(1, 0, 0): 0.1, (0, 2, 0): 0.01j})
    word = Word(3, (Overshear(3, f, g),))
    pts = np.ones((17, 3), dtype=np.complex128)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        eval_word_batch(word, pts)
    finally:
        tracer.uninstall()
    table = tracing.SpanTable(tracer)
    assert table.count("kernel") == 1
    assert tracer.counters["kernel.term_points"] == 3 * 17
