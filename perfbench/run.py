#!/usr/bin/env python3
"""Scenario-sweep benchmark of sp4lr.

    python3 perfbench/run.py --workload pt-sweep --seed 1 --seconds 30 --trace 0

A single closed-loop client runs generated scenario configs one after
another through ``sp4lr.cli.main(["run", ...])``, as a user running a
parameter sweep would, and verifies every output (verify.py).  Configs
come in sweeps of fixed composition (workloads.py); the client starts
sweeps while the next one is expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs every sweep twice, traced and untraced in alternating
order, prints the per-layer metrics of BENCHMARK.json as totals per
traced sweep (tracer.py), and checks the wrapper call counts against
cProfile on one scenario.  JSON lines with the environment, the
per-scenario times, the input properties and (traced) the full
per-function table precede the result, which is the last line of
standard output.  Exit code 0 means a result was printed; a broken
checkout exits 2 without one.  Linux only (CPU affinity, ru_maxrss in KiB).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# numpy, sp4lr and the modules beside this file import numpy, so they are
# imported only after pin_environment() has set the thread counts.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_SPAWNS = 9
# One BLAS thread: the kernels are small batched 4x4 and 10x10 products,
# and a single thread keeps runs steady on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REF_SECONDS = 0.02  # nominal duration of the reference kernel
REF_LOOPS = 800


def pin_environment():
    """Run settings that must precede the numpy import.

    SP4_SEED would silently override each config's ``seed`` field.  The
    process and the interpreters it starts share one CPU, so a timing and
    the reference kernel that calibrates it see the same CPU.
    """
    os.environ.pop("SP4_SEED", None)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibrator:
    """Scales wall times to a fixed machine speed.

    On a shared virtual machine the CPU share this process gets can halve
    for tens of seconds at a time, invisibly to the guest: process CPU
    time grows with wall time.  A fixed reference kernel (small batched
    matrix products, determinants and a Python loop, like the program's
    own mix) is timed right before and right after each measured
    interval, and the interval is scaled by REF_SECONDS over the mean of
    the two.  Values read as seconds on a machine where the kernel takes
    REF_SECONDS; a change to sp4lr moves them in full.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).standard_normal((64, 4, 4))
        self.last = self.reference()

    def reference(self) -> float:
        np, a = self._np, self._a
        t0 = perf_counter()
        acc = 0.0
        for _ in range(REF_LOOPS):
            acc += float(np.linalg.det((a @ a)[:4]).sum())
            for j in range(100):
                acc += j * 1e-9
        return perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at reference speed."""
        now = self.reference()
        factor = REF_SECONDS / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor


def measure_setup(cal: Calibrator, n: int) -> float:
    """Median time from starting a fresh interpreter to ``sp4lr.cli`` imported."""
    code = ("import sys; sys.path.insert(0, %r); import sp4lr.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()" % str(SRC))
    times = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if ready != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import sp4lr.cli: "
                               + err.decode(errors="replace")[-400:])
        times.append(cal.scale(elapsed))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "blas_threads": BLAS_THREADS, "cpu": cpu,
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0))}


class Client:
    """Runs and verifies scenarios, and keeps the counts the metrics need."""

    def __init__(self, seed: int, cal: Calibrator, tracer=None):
        import numpy as np

        self.cli = importlib.import_module("sp4lr.cli")
        self.verify = importlib.import_module("verify")
        self.rng = np.random.default_rng([seed, 2**20])  # verification rows
        self.cal = cal
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []
        self.regime_samples: dict[str, int] = {}
        self.configs: list[dict] = []
        self.raw_seconds = 0.0  # uncalibrated time of all scenarios
        self.traced_wall = 0.0  # uncalibrated time inside traced cli.main calls

    def call_main(self, cfg: dict, slot: str, traced: bool = False):
        """Write the config, run the CLI on it; (exit code, output dir, log, seconds)."""
        path, outdir = WORK / (slot + ".json"), WORK / slot
        path.write_text(json.dumps(cfg))
        shutil.rmtree(outdir, ignore_errors=True)
        log = io.StringIO()
        argv = ["run", "--config", str(path), "--out", str(outdir)]
        rc = None
        t0 = perf_counter()
        with redirect_stdout(log), redirect_stderr(log):
            try:
                if traced:
                    with self.tracer.span():
                        rc = self.cli.main(argv)
                else:
                    rc = self.cli.main(argv)
            except Exception:  # a crash is a failed scenario, not a failed run
                log.write(traceback.format_exc())
        return rc, outdir, log.getvalue(), perf_counter() - t0

    def run_scenario(self, cfg: dict, slot: str, traced: bool) -> float:
        """Run and verify one scenario; the calibrated seconds that took."""
        self.attempted += 1
        self.configs.append(cfg)
        t0 = perf_counter()
        rc, outdir, log, t_main = self.call_main(cfg, slot, traced)
        problems = []
        if rc != 0:
            problems.append("exit code %r: %s" % (rc, log.strip()[-400:]))
        else:
            try:
                out = self.verify.check_scenario(cfg, str(outdir), self.rng)
            except Exception:
                problems.append("verification crashed: " + traceback.format_exc()[-400:])
            else:
                problems += out.problems
                self.ratios += out.ratios
                for name, n in out.regime_samples.items():
                    self.regime_samples[name] = self.regime_samples.get(name, 0) + n
        elapsed = perf_counter() - t0
        self.raw_seconds += elapsed
        if traced:
            self.traced_wall += t_main
        if problems:
            self.failed += 1
            print("scenario failed: %s\n  config: %s" % ("; ".join(problems), json.dumps(cfg)),
                  file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        return self.cal.scale(elapsed)

    def run_sweep(self, configs: list[dict], traced: bool = False) -> list[float]:
        """Calibrated seconds of each scenario of the sweep."""
        return [self.run_scenario(cfg, "s%d" % k, traced) for k, cfg in enumerate(configs)]


def sweeps(workload: str, seed: int, seconds: float, run_one) -> None:
    """Call ``run_one(configs, index)`` -> seconds while the next sweep fits."""
    import workloads

    durations = []
    start = perf_counter()
    index = 0
    while True:
        durations.append(run_one(workloads.make_sweep(workload, seed, index), index))
        index += 1
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def typical_sweep(times: list[list[float]]) -> float:
    """Seconds of a sweep of typical scenarios: the sum over the sweep's
    slots (each slot is one scenario family) of the slot's median time.
    A slowdown of the machine that the calibration misses hits single
    scenarios, so per-slot medians shed it better than whole sweeps."""
    return sum(statistics.median(slot) for slot in zip(*times))


def declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def end_to_end(args, client: Client) -> dict:
    setup = measure_setup(client.cal, SETUP_SPAWNS)
    times = []

    def run_one(configs, _):
        times.append(client.run_sweep(configs))
        return sum(times[-1])

    sweeps(args.workload, args.seed, args.seconds, run_one)
    print(json.dumps({"scenario_seconds_calibrated": times,
                      "raw_seconds_all_scenarios": client.raw_seconds}))
    return {
        "setup_s": setup,
        "sweep_s": typical_sweep(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (client.attempted - client.failed) / client.attempted,
    }


def per_layer(args, client: Client) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced sweep, and failed harness checks."""
    import workloads
    from tracer import cprofile_mismatches

    tracer = client.tracer
    untraced, traced = [], []

    def pair(configs, index):
        # traced first on even sweeps, so the first traced scenario pays the
        # first-use caches as every fresh CLI run does
        for tr in ((True, False) if index % 2 == 0 else (False, True)):
            if tr:
                with tracer.installed():
                    traced.append(client.run_sweep(configs, traced=True))
            else:
                untraced.append(client.run_sweep(configs))
        return sum(traced[-1]) + sum(untraced[-1])

    sweeps(args.workload, args.seed, args.seconds, pair)
    n = len(traced)
    table = {key: {stat: v / n for stat, v in st.items()} for key, st in tracer.stats.items()}
    print(json.dumps({"trace_table_per_sweep": table}, sort_keys=True))
    self_total = sum(st.get("self_s", 0.0) for st in table.values())
    wall = client.traced_wall / n
    expm_per_evolve = tracer.per_call.get("lr_ode.evolve", [])

    first = workloads.make_sweep(args.workload, args.seed, 0)[0]
    rc = []
    mismatches = cprofile_mismatches(lambda: rc.append(client.call_main(first, "selftest")[0]))
    problems = ["cProfile count mismatch %s: wrapper %d, cProfile %d" % m for m in mismatches]
    if rc != [0]:
        problems.append("self-test scenario exited %r" % rc)
    if abs(self_total - wall) > 0.01 * wall:
        problems.append("self times sum to %.4f s of %.4f s traced wall" % (self_total, wall))
    special = {
        "trace.overhead_frac": typical_sweep(traced) / typical_sweep(untraced) - 1.0,
        "trace.unattributed_frac": table.get("cli.run_scenario", {}).get("self_s", 0.0) / wall,
        "trace.attributed_frac": self_total / wall,
        "trace.cprofile_mismatches": float(len(mismatches)),
        "lr_ode.evolve.expm_per_call.median":
            float(statistics.median(expm_per_evolve)) if expm_per_evolve else 0.0,
        "lr_ode.evolve.expm_per_call.max": float(max(expm_per_evolve, default=0)),
        "checks.worst_ratio": max(client.ratios, default=0.0),
    }
    values = {}
    for m in declared("per_layer"):
        name = m["name"]
        key, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif key in tracer.code_keys or key.rpartition(".")[0] in tracer.code_keys:
            values[name] = table.get(key, {}).get(stat, 0.0)
        else:
            raise KeyError("per-layer metric %r names no traced function" % name)
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sp4lr" / "cli.py").is_file():
        print("error: no sp4lr sources under %s" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import sp4lr
    import workloads

    if Path(sp4lr.__file__).resolve().parent != SRC / "sp4lr":
        print("error: sp4lr imported from %s, not %s" % (sp4lr.__file__, SRC), file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in declared("workloads")}
    if args.workload not in why:
        print("error: workload must be one of %s" % sorted(why), file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "why": why[args.workload], "seed": args.seed}))
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            from tracer import Tracer

            client = Client(args.seed, Calibrator(), Tracer())
            values, problems = per_layer(args, client)
            kind = "per_layer"
        else:
            client = Client(args.seed, Calibrator())
            values, problems = end_to_end(args, client), []
            kind = "end_to_end"
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print("harness check failed: " + p, file=sys.stderr)
    inputs = workloads.input_properties(args.workload, client.configs)
    if client.regime_samples:
        total = sum(client.regime_samples.values())
        inputs.update({"samples_%s_frac" % k: v / total for k, v in client.regime_samples.items()})
    if args.trace and args.workload == "lr-sweep":
        inputs["expm_calls_per_evolve_median"] = values["lr_ode.evolve.expm_per_call.median"]
        inputs["expm_calls_per_evolve_max"] = values["lr_ode.evolve.expm_per_call.max"]
    print(json.dumps({"inputs": inputs,
                      "worst_check_ratio": max(client.ratios, default=None)}))
    print(json.dumps({
        "correct": client.failed == 0 and not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared(kind)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
