"""Every verdict of the benchmark's small pools passes its reference check,
or fails only as a known defect predicts for its input; a preservation
verdict must pass outright, whatever its input is tolerated. Run twice in
one process, every item gives the same result bit for bit. Every item of
the `cli` pool passes outright, run in this process through `cli.main`
rather than one process each. The pools are
built from `benchmarks/layers/workloads.py`, loaded by path; `run.py` is
not imported, since importing it pins the process to one CPU."""

import importlib.util
import os
import pickle
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
WORKLOADS = os.path.join(ROOT, "benchmarks", "layers", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verdicts", "sweep", "paths"])
def test_small_pool_has_no_unpredicted_failure(workload):
    wl = load_workloads()
    items = wl.build(workload, 7, ROOT, small=True)
    assert items
    unpredicted = []
    for item in items:
        try:
            key = item.check(item.run())
        except Exception as exc:  # a refusal is a failure like any other
            key = f"{wl.REFUSED}:{type(exc).__name__}"
        outright = item.family.startswith("preserves-")
        if key is not None and (outright or key not in item.tolerated):
            unpredicted.append(f"{item.family}:{key}")
    assert unpredicted == []


def outcome(item):
    """The item's result pickled, so that floats and arrays compare by their
    bytes; a refusal by its type and message."""
    try:
        return pickle.dumps(item.run())
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("workload", ["verdicts", "sweep", "paths"])
def test_small_pool_is_deterministic_in_one_process(workload):
    # what each object derives once and keeps (kernel plans, tables,
    # inverses, work sizes) must not change a later verdict
    items = load_workloads().build(workload, 7, ROOT, small=True)
    first = [outcome(item) for item in items]
    assert [outcome(item) for item in items] == first


@pytest.mark.parametrize("seed", [1, 7])
def test_cli_pool_passes_in_process(seed):
    wl = load_workloads()
    items = wl.build("cli", seed, ROOT)
    assert [item.family for item in items] == list(wl.CLI_COMMANDS)
    failed = []
    for item in items:
        result = wl.run_cli_inprocess(item.argv)
        key = item.check(result)
        if key is not None:
            failed.append(f"{item.family}:{key}")
        assert item.check(item.plant(result)) is not None, item.family  # a live judge
    assert failed == []
