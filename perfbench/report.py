#!/usr/bin/env python3
"""Print every metric of the benchmark, for every workload, with units.

    python3 perfbench/report.py [--seed 1] [--seconds N] [--workload NAME ...]

Runs perfbench/run.py untraced and traced on each workload and prints
the end-to-end metrics, the input properties and the per-layer metrics
(per traced sweep).  It then checks the trace itself: the self times of
all wrapped functions sum to the traced scenario wall time, the wrapper
call counts equal cProfile's, and the workloads bypass the layers they
are meant to bypass.  Exits 1 if any run or check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# layer prefixes that must show 0 calls on a workload (traced table keys)
BYPASSED = {
    "pt-sweep": ("lr_ode.evolve", "numerics.expm.n10", "numerics.eig4"),
    "lr-sweep": ("point_transform.", "numerics.expm.n4", "numerics.eig4"),
    "regime-sweep": ("point_transform.", "numerics.expm.n4", "lr_ode.evolve",
                     "numerics.expm.n10"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s (trace %d)" % (workload, trace))
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            out.update(json.loads(line))
    return out


def show(metrics: dict, width: int = 44):
    for name, m in metrics.items():
        print("  %-*s %14.6g %s" % (width, name, m["value"], m["unit"]))


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    failures = []
    for wl in args.workload or names:
        plain = run(wl, args.seed, args.seconds, 0)
        traced = run(wl, args.seed, args.seconds, 1)
        print("== %s (seed %d): %s" % (wl, args.seed, plain["why"]))
        print("env: %s" % json.dumps(plain["env"]))
        print("inputs: %s" % json.dumps(plain["inputs"]))
        print("inputs of the traced run: %s" % json.dumps(traced["inputs"]))
        print("end to end (untraced; attempted %d, failed %d):"
              % (plain["attempted"], plain["failed"]))
        show(plain["metrics"])
        # bounded in BENCHMARK.json as pass_frac (a metric there is never 0);
        # the check headroom depends on the drawn inputs, so it is unbounded
        show({"failed_frac": {"value": plain["failed"] / plain["attempted"], "unit": "frac"},
              "worst_check_ratio": {"value": plain["worst_check_ratio"], "unit": "ratio"}})
        print("per layer (traced; attempted %d, failed %d):"
              % (traced["attempted"], traced["failed"]))
        show(traced["metrics"])
        for res, label in ((plain, "untraced"), (traced, "traced")):
            if not res["correct"]:
                failures.append("%s %s run is not correct" % (wl, label))
        table = traced["trace_table_per_sweep"]
        self_sum = sum(st.get("self_s", 0.0) for st in table.values())
        m = traced["metrics"]
        print("trace: self_s of the %d called functions sums to %.4f s/sweep, %.4f of the "
              "traced scenario wall time; cli.run_scenario.self_s is %.4f of it; "
              "overhead %.3f; cProfile count mismatches %d"
              % (len(table), self_sum, m["trace.attributed_frac"]["value"],
                 m["trace.unattributed_frac"]["value"], m["trace.overhead_frac"]["value"],
                 m["trace.cprofile_mismatches"]["value"]))
        for prefix in BYPASSED[wl]:
            called = {k: st["calls"] for k, st in table.items()
                      if k.startswith(prefix) and st.get("calls")}
            status = "0 calls" if not called else "CALLED %s" % called
            print("bypass %-24s %s" % (prefix + "*", status))
            if called:
                failures.append("%s reaches %s" % (wl, prefix))
        print()
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
