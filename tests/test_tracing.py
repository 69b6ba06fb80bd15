"""The benchmark's tracer binds hologroup names from outside `src/`; a
rename that breaks `benchmarks/layers/run.py --trace 1` fails here."""

import importlib.util
import os

from hologroup import cli, serialize

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
