"""Self-test of the benchmark: every workload at small size, and proof
that the checker counts wrong answers.

For each workload, one correct result per plantable input family is
altered (a perturbed min |det|, a round trip moved by 1e-6, a flipped
winding index, a perturbed lambda, a flipped preservation verdict, an
altered CLI value) and fed to the checker through the same tally the
benchmark uses; each must come back as one more failure and, on an
input for which no known defect predicts a wrong answer, make the run
incorrect. Then each
workload runs for one second untraced and traced, and must report
every metric of BENCHMARK.json with `correct` true.
"""

from __future__ import annotations

import json
import subprocess
import sys


def planted(root: str) -> bool:
    import run
    import workloads as wl

    ok = True
    for name in wl.WORKLOADS:
        items = wl.build(name, 7, root, small=True)
        tally = run.Tally(wl)
        tried = set()
        for item in items:
            if item.plant is None or item.family in tried:
                continue
            elapsed, reason, _ = run._attempt(item.run, item.check)
            if reason is not None:
                continue  # a failing input cannot carry a planted error
            tried.add(item.family)
            before, unexpected = tally.failed, sum(tally.unexpected.values())
            tally.record(item, elapsed, item.check(item.plant(item.run())))
            counted = tally.failed == before + 1
            # unless a known defect predicts it, a wrong answer makes the run incorrect
            flagged = wl.WRONG in item.tolerated \
                or sum(tally.unexpected.values()) == unexpected + 1
            ok &= counted and flagged
            print(f"  {name:<9} planted wrong {item.family:<26} "
                  f"{'counted' if counted else 'MISSED'}, "
                  f"{'flagged' if flagged else 'NOT FLAGGED'} "
                  f"(failed_ratio {tally.failed}/{tally.attempted})")
    return ok


def short_runs(root: str, script: str) -> bool:
    spec = json.load(open(f"{root}/BENCHMARK.json", encoding="utf-8"))
    ok = True
    for name in ("paths", "sweep", "verdicts", "cli"):
        for trace in (0, 1):
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            done = subprocess.run(
                [sys.executable, script, "--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--small"],
                cwd=root, capture_output=True, text=True, timeout=300)
            try:
                result = json.loads(done.stdout.splitlines()[-1])
                good = (done.returncode == 0 and result["correct"]
                        and set(result["metrics"]) == want and result["attempted"] >= 1)
            except (IndexError, json.JSONDecodeError, KeyError):
                good = False
            ok &= good
            print(f"  {name:<9} trace {trace}: {'ok' if good else 'FAILED'}"
                  + ("" if good else f"\n{done.stdout[-2000:]}{done.stderr[-2000:]}"))
    return ok


def main(root: str, script: str) -> int:
    sys.path.insert(0, f"{root}/src")
    print("planted wrong answers:")
    ok = planted(root)
    print("short runs of every workload:")
    ok &= short_runs(root, script)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
