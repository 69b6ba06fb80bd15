"""hologroup benchmark: seeded workloads, checked verdicts, end-to-end and
per-layer metrics.

    python3 benchmarks/layers/run.py --workload paths --seed 1 --seconds 25 --trace 0
    python3 benchmarks/layers/run.py --workload all --seed 1 --trace 0
    python3 benchmarks/layers/run.py --self-test

Workloads (see BENCHMARK.json for why each exists): `paths`, `sweep`,
`verdicts` and `cli`. Load is a closed loop: one caller in one process
issues the next verdict when the previous one returns, cycling through
a seeded pool of inputs made before timing starts. Each verdict is
checked against a reference known by construction, and failures are
counted by reason.

End-to-end figures: set-up time (median of SETUP_REPEATS processes),
verdicts per second over the pool's mix of inputs (see per_item_rate),
the median and tail latency of the whole run (see tail), the share of
verdicts that did not fail, and peak resident memory of the process
doing the work. Timings are in reference seconds, scaled by the host's
speed measured between blocks of verdicts (see speed.py); the wall-clock
values are printed beside them and kept in the result file.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
installs span wrappers (tracing.py) and reports the per-layer metrics,
including the tracing overhead: the same verdicts timed in alternating
untraced and traced blocks. Result files go to benchmarks/layers/results/.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `failed` counts the verdicts that
failed in a way no known defect predicts for their input (see
KNOWN_DEFECTS and Item.tolerated in workloads.py), and `correct` is false
when there is any. The failures a known defect predicts are not in
`failed`: a closed loop attempts a different number of them in every run
of the same inputs. They are in `ok_ratio`, and in `failed_ratio` and the
counts by reason, printed and kept in the result file.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter

import speed

# One caller and no extra threads: BLAS stays single-threaded unless the
# caller's environment says otherwise, and this process and its children
# run on one CPU, the one where the host's speed is measured (speed.py).
# The settings go into the result file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
# verdicts between speed measurements, and the untraced/traced alternation
# for the tracing overhead
BLOCK_S = 0.25
TAIL_WINDOW = 1000  # verdicts per window of the tail latency estimate
WORKLOAD_NAMES = ("paths", "sweep", "verdicts", "cli")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, small: bool):
    """Import, make the inputs and warm up; return (items, wl module,
    calibration, set-up time as {"wall": s, "scaled": reference s})."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hologroup", "__init__.py")):
        raise SystemExit(f"hologroup sources not found under {src}")
    # the host's speed on either side of set-up; the time it takes is not set-up
    cal = speed.Calibration()
    before = cal.median()
    sys.path.insert(0, src)
    import workloads as wl

    items = wl.build(workload, seed, ROOT, small)
    # warm every code path once; a CLI process only needs the bytecode cache
    warm = items[:1] if workload == "cli" else list({i.family: i for i in items[::-1]}.values())
    for item in warm:
        _attempt(item.run, item.check)
    wall = time.perf_counter() - T_START - cal.spent
    scale = speed.REFERENCE_S / (0.5 * (before + cal.median()))
    return items, wl, cal, {"wall": wall, "scaled": wall * scale}


def _attempt(run, check):
    """Time one verdict; return (seconds, failure reason or None, error name)."""
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a refusal or a crash is a counted failure
        return time.perf_counter() - t0, "refused", type(exc).__name__
    elapsed = time.perf_counter() - t0
    return elapsed, check(result), None


def _setup_samples(args, count: int) -> list:
    """Set-up times of `count` fresh processes, as setup() gives them."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise SystemExit(f"set-up run failed:\n{done.stderr}")
        out.append(json.loads(done.stdout.splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# recording


class Tally:
    """Latencies and failures of the verdicts attempted."""

    def __init__(self, wl):
        self.wl = wl
        # compact arrays, so that the record of a long run barely moves peak_rss_mb
        self.latencies = array("d")
        self.ends = array("d")
        self.reasons = Counter()
        self.by_family = Counter()
        self.errors = Counter()
        self.predicted = Counter()  # failures a known defect predicts for their input
        self.unexpected = Counter()

    def record(self, item, elapsed, reason, error=None):
        self.latencies.append(elapsed)
        self.ends.append(time.perf_counter())
        if reason is None:
            return
        self.reasons[reason] += 1
        self.by_family[f"{item.family}:{reason}"] += 1
        if error:
            self.errors[error] += 1
        key = f"{reason}:{error}" if error else reason
        if key in item.tolerated:
            self.predicted[item.family] += 1
        else:
            self.unexpected[f"{item.family}:{key}"] += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def failed_unpredicted(self) -> int:
        return sum(self.unexpected.values())

    def summary(self) -> dict:
        known = {f: self.wl.KNOWN_DEFECTS[f] for f in
                 {k.split(":")[0] for k in self.by_family} if f in self.wl.KNOWN_DEFECTS}
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_ratio": self.failed / max(self.attempted, 1),
                "failures": {r: self.reasons[r] for r in self.wl.REASONS},
                "failures_by_family": dict(sorted(self.by_family.items())),
                "errors": dict(self.errors), "predicted": dict(self.predicted),
                "unexpected": dict(self.unexpected), "known_defects": known}


def tail(latencies) -> dict:
    """Tail latency in seconds, with the percentile and sample counts behind it.

    Within consecutive windows of TAIL_WINDOW verdicts (a single window for
    shorter runs), take the highest percentile that leaves at least 10
    samples beyond it; report the median over windows, so that one burst
    of stalls from other tenants of the machine does not set the tail.
    """
    import numpy as np
    lat = np.asarray(latencies)
    windows = np.array_split(lat, max(1, len(lat) // TAIL_WINDOW))
    p = max(50.0, 100.0 * (1.0 - 10.0 / min(len(w) for w in windows)))
    values = [float(np.percentile(w, p)) for w in windows]
    beyond = [int(np.sum(w > v)) for w, v in zip(windows, values)]
    return {"value_s": float(np.median(values)), "percentile": p, "windows": len(windows),
            "samples_per_window": min(len(w) for w in windows),
            "samples_beyond_per_window": int(np.median(beyond)), "samples": len(lat)}


# ---------------------------------------------------------------------------
# end-to-end run


def per_item_rate(scaled, pool: int) -> float:
    """Verdicts per reference second for the pool's mix of inputs: the
    inverse of the mean, over the inputs attempted, of each one's mean
    time, so that a pass left unfinished when time ran out does not
    weight some inputs more than others."""
    by_item = [scaled[k::pool] for k in range(min(pool, len(scaled)))]
    return 1.0 / statistics.fmean(statistics.fmean(t) for t in by_item)


def end_to_end(args, items, wl, setup_s, cal) -> tuple:
    tally = Tally(wl)
    scaled = array("d")  # reference seconds of each verdict (see speed.py)
    # set-up samples before and after the timed loop, in different spells
    setups = [setup_s] + _setup_samples(args, (SETUP_REPEATS - 1) // 2)
    deadline = time.perf_counter() + args.seconds
    before = cal.measure()
    i = 0
    while time.perf_counter() < deadline:
        first, t_block = tally.attempted, time.perf_counter()
        while time.perf_counter() - t_block < BLOCK_S and time.perf_counter() < deadline:
            item = items[i % len(items)]
            i += 1
            tally.record(item, *_attempt(item.run, item.check))
        after = cal.measure()
        # the block's verdicts at the speed measured on either side of it
        scale = speed.REFERENCE_S / (0.5 * (before + after))
        scaled.extend(x * scale for x in tally.latencies[first:])
        before = after
    if args.workload == "cli":  # each subcommand once more, from a small parent
        peak_rss_mb = wl.cli_peak_rss_mb(ROOT, list({i.family: i.argv for i in items}.values()))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += _setup_samples(args, SETUP_REPEATS - len(setups))
    lat = tally.latencies
    tail_stats = tail(scaled)
    metrics = {
        "setup_s": statistics.median(s["scaled"] for s in setups),
        "verdicts_per_s": per_item_rate(scaled, len(items)),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_stats.pop("value_s"),
        "ok_ratio": 1.0 - tally.failed / len(lat),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {"setup_s": statistics.median(s["wall"] for s in setups),
            "verdicts_per_s": per_item_rate(lat, len(items)),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail(lat)["value_s"]}
    extra = {"setup_samples": setups,
             "passes": {"verdicts_per_pass": len(items), "complete": len(lat) // len(items)},
             "wall_clock": wall,
             "speed": {"reference_s": speed.REFERENCE_S,
                       "calibration_s": [round(x, 6) for x in cal.samples]},
             "latency_tail": tail_stats,
             **tally.summary(),
             "latencies_ms": [round(1e3 * x, 4) for x in lat],
             "ends_s": [round(x - tally.ends[0], 4) for x in tally.ends]}
    return metrics, tally, extra


# ---------------------------------------------------------------------------
# traced run


def _probe_ms(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
    return 1e3 * (time.perf_counter() - t0)


def traced(args, items, wl) -> tuple:
    """Per-layer figures from spans; the tracing overhead from the same
    verdicts timed in alternating untraced and traced blocks."""
    import tracing

    is_cli = args.workload == "cli"

    def verdict(item):
        return (lambda: wl.run_cli_inprocess(item.argv)) if is_cli else item.run

    tally = Tally(wl)
    tr = tracing.Tracer()
    traced_s = []
    untraced_s = 0.0
    start = time.perf_counter()
    i = 0

    def traced_verdict(item):
        k = len(traced_s)
        elapsed, reason, error = _attempt(lambda: tr.run_verdict(k, verdict(item)), item.check)
        traced_s.append(elapsed)
        tally.record(item, elapsed, reason, error)

    # first half: blocks of about BLOCK_S untraced, then the same block traced
    while time.perf_counter() - start < args.seconds / 2:
        block, t_block = [], time.perf_counter()
        while time.perf_counter() - t_block < BLOCK_S:
            item = items[i % len(items)]
            i += 1
            elapsed, reason, error = _attempt(verdict(item), item.check)
            untraced_s += elapsed
            tally.record(item, elapsed, reason, error)
            block.append(item)
        tr.install()
        try:
            for item in block:
                traced_verdict(item)
        finally:
            tr.uninstall()
    paired = len(traced_s)

    # second half traced; for cli each command also runs as a whole
    # process, followed by one start-up probe
    env = wl.cli_env(ROOT)
    probes = [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import numpy"],
              [sys.executable, "-c", "import hologroup.cli"]]
    startup = [[], [], []]
    process = []
    tr.install()
    try:
        while time.perf_counter() - start < args.seconds:
            item = items[i % len(items)]
            i += 1
            traced_verdict(item)
            if is_cli:
                elapsed, reason, error = _attempt(item.run, item.check)
                process.append(1e3 * elapsed)
                tally.record(item, elapsed, reason, error)
                startup[i % 3].append(_probe_ms(probes[i % 3], env))
    finally:
        tr.uninstall()

    metrics = tracing.layer_metrics(tr, len(traced_s))
    overhead = sum(traced_s[:paired]) - untraced_s
    metrics["trace.overhead_ms"] = 1e3 * overhead / paired
    metrics["trace.overhead_share"] = overhead / untraced_s
    med = [statistics.median(s) if s else 0.0 for s in startup]
    phases = {"cli.interpreter_ms": med[0], "cli.numpy_import_ms": med[1] - med[0],
              "cli.hologroup_import_ms": med[2] - med[1]}
    metrics.update(phases)
    # in-process phases of the verdicts that also ran as a whole process
    metrics.update(tracing.cli_phases_ms(tr, first_verdict=paired))
    metrics["cli.process_ms"] = statistics.fmean(process) if process else 0.0
    accounted = sum(phases.values()) + sum(metrics[k] for k in (
        "cli.scene_parse_ms", "cli.op_ms", "cli.serialize_ms"))
    metrics["cli.unaccounted_ms"] = metrics["cli.process_ms"] - accounted if process else 0.0
    q = statistics.quantiles(process, n=4) if len(process) >= 2 else [0.0, 0.0, 0.0]
    metrics["cli.process_iqr_ms"] = q[2] - q[0]
    os.makedirs(RESULTS, exist_ok=True)
    spans_file = os.path.join(RESULTS, f"spans_{args.workload}.npz")
    tr.save(spans_file)
    extra = {"traced_verdicts": len(traced_s), "overhead_verdicts": paired,
             "spans_file": os.path.relpath(spans_file, ROOT),
             "cli_startup_samples_ms": startup, **tally.summary()}
    return metrics, tally, extra


# ---------------------------------------------------------------------------
# machine and output


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    import numpy as np
    import hologroup

    backend = getattr(hologroup, "active_backend", None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "backend": backend() if backend else "numpy (no backend switch)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": _git_commit(),
    }


def report(args, spec, metrics, tally, extra):
    kind = "per_layer" if args.trace else "end_to_end"
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    label = "per-layer (traced)" if args.trace else "end-to-end, timings in reference seconds"
    print(f"{args.workload}: {label}, seed {args.seed}, {args.seconds:g} s, "
          f"closed loop with 1 caller")
    for name, m in chosen.items():
        note = ""
        if name == "latency_tail_ms":
            t = extra["latency_tail"]
            note = (f"  (p{t['percentile']:.2f}: {t['samples_beyond_per_window']} of "
                    f"{t['samples_per_window']} beyond, median of {t['windows']} windows)")
        elif name == "setup_s":
            note = f"  (median of {len(extra['setup_samples'])} set-ups)"
        if name == "verdicts_per_s":
            p = extra["passes"]
            note = f"  ({p['complete']} complete passes of {p['verdicts_per_pass']} inputs)"
        if name in extra.get("wall_clock", {}):
            note += f"  [wall clock {extra['wall_clock'][name]:.6g}]"
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{note}")
    f = extra["failures"]
    print(f"  failed_ratio {extra['failed_ratio']:.6g} of {tally.attempted}: "
          f"wrong {f['wrong']}, refused {f['refused']}, non_finite {f['non_finite']}; "
          f"predicted by a known defect {sum(tally.predicted.values())}, "
          f"not predicted {tally.failed_unpredicted}")
    for family, why in extra["known_defects"].items():
        print(f"  known defect on {family}: {why}")
    if tally.unexpected:
        print(f"  UNEXPECTED failures: {dict(tally.unexpected)}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json")
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "small": args.small, "machine": machine(args.seed),
           "metrics": chosen, **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": tally.attempted > 0 and not tally.unexpected,
                      "attempted": tally.attempted, "failed": tally.failed_unpredicted,
                      "metrics": chosen}))


# ---------------------------------------------------------------------------
# entry points


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print("\n" + f"{'metric':<34}" + "".join(f"{n:>14}" for n, _ in rows))
    for metric in names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<34}"
              + "".join(f"{r['metrics'][metric]['value']:>14.6g}" for _, r in rows))
    print(f"{'unpredicted failed / attempted':<34}"
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for _, r in rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload small and check that planted wrong "
                             "answers are counted")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(ROOT, os.path.abspath(__file__))
    if args.workload is None:
        parser.error("--workload is required")
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    items, wl, cal, setup_s = setup(args.workload, args.seed, args.small)
    if args.setup_only:
        print(json.dumps(setup_s))
        return 0
    if args.trace:
        metrics, tally, extra = traced(args, items, wl)
    else:
        metrics, tally, extra = end_to_end(args, items, wl, setup_s, cal)
    report(args, spec, metrics, tally, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
