"""Every verdict of the benchmark's small pools passes its reference check,
or fails only as a known defect predicts for its input; a preservation
verdict must pass outright, whatever its input is tolerated. Every item of
the `cli` pool passes outright, run in this process through `cli.main`
rather than one process each. The pools are
built from `benchmarks/layers/workloads.py`, loaded by path; `run.py` is
not imported, since importing it pins the process to one CPU."""

import importlib.util
import os
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
