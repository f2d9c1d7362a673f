"""Benchmark of the ``zonoids`` CLI: seeded jobs, checked against closed forms.

    python3 bench/run.py --workload equiv-2d --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, each in its own process

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/``.  One run generates the workload's fixed job list from
``--seed`` and runs one untimed warm-up job.  Then it repeats whole passes
over the job list, calling ``zonoids.cli.main(argv)`` in-process, for about
``--seconds``.  Every execution is checked against its reference
(``jobs.py``).  With ``--trace 0`` a calibration sample follows every job,
the job times are scaled to the reference speed (``Timeline``), fresh
imports are timed between jobs, and the last line of output holds the
end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, and the last line
holds the per-layer metrics.  Every run also writes all its figures to
``.bench_work/<workload>/result.json``.  README.md maps metrics to layers and
workloads.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from jobs import WORKLOADS, Outcome, check, make_jobs
from spans import SpanRecorder

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9  # fresh imports per run, spread over the measuring time
IMPORTTIME_REPEATS = 3  # ``-X importtime`` imports after a traced run
TAIL_BEYOND = 10  # job tails: the highest percentile with at least this many executions beyond it
CAL_ROUNDS = 3000  # one calibration sample ...
CAL_REF_S = 0.025  # ... takes this long on the 2-core machine of bench/baseline.json
# How long the samples around an interval keep describing the host's speed:
# on that machine, speeds measured 2 s apart correlate at about 0.2.
CAL_REACH_S = 2.0
_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 4))


def _import_package():
    """Import ``zonoids`` from this checkout's ``src/``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "zonoids", "__init__.py")):
        raise SystemExit(f"bench: no package source at {os.path.relpath(SRC)}/zonoids; "
                         "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import zonoids

    if not os.path.abspath(zonoids.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported zonoids from {zonoids.__file__}, not from {SRC}")
    return zonoids


def _fresh_import(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)


# The child times a pure-Python loop right before and right after its import.
# The import is interpreter work from start to end, and the two samples run in
# the same process, so they follow its speed closely.
SETUP_CHILD = """
import time
def sample():
    t = time.perf_counter()
    s = 0
    for i in range(200000):
        s += i * i
    return time.perf_counter() - t
before = sample()
import zonoids
print(before, sample())
"""
SETUP_REF_S = 0.016  # one sample of SETUP_CHILD takes this long on the baseline machine


def fresh_import_seconds() -> tuple:
    """(measured, scaled): wall time of a fresh interpreter importing the package,
    as every CLI call pays it, without the child's two samples; and that time
    times SETUP_REF_S over the geometric mean of the samples."""
    t0 = time.perf_counter()
    proc = _fresh_import(["-c", SETUP_CHILD])
    wall = time.perf_counter() - t0
    before, after = (float(x) for x in proc.stdout.split())
    measured = wall - before - after
    return measured, measured * SETUP_REF_S / math.sqrt(before * after)


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the scipy modules imported from outside scipy.

    ``-X importtime`` lists a module after everything it imported, indented
    two spaces per nesting level, so a line's parent is the next line that is
    indented less.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((e[2] for e in entries[i + 1:] if e[0] < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            total_us += cumulative
    return total_us / 1e6


def _blas_threads():
    """OpenBLAS thread count of this process, read through its C API, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{idx}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{idx}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{idx}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment(jobs: list, seed: int, workers: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ws = sorted(j.working_set_bytes for j in jobs)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "cli_workers": workers,
        "caches": _cache_sizes(),
        "seed": seed,
        "working_set_bytes": {"min": ws[0], "median": ws[len(ws) // 2], "max": ws[-1]},
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Per-job outcome over all executions: a job fails if any execution fails."""

    def __init__(self, jobs: list):
        self.failed = [None] * len(jobs)   # first failing check per job
        self.exact_failed = [False] * len(jobs)

    def record(self, i: int, outcome) -> None:
        bad = [c for c in outcome.checks if not c.ok]
        if bad and self.failed[i] is None:
            self.failed[i] = bad[0]
        self.exact_failed[i] |= outcome.exact_failed

    @property
    def n_failed(self) -> int:
        return sum(f is not None for f in self.failed)

    @property
    def correct(self) -> bool:
        return not any(self.exact_failed)


def run_job(cli, job, argv: list, out: str, recorder=None):
    """Run one job in-process through ``cli.main``; return (seconds, outcome)."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            rc = cli.main(argv)
        else:  # look ``main`` up per call, so the installed wrapper runs
            rc = recorder.call(recorder.span_id("job"), cli.main, (argv,), {})
    except Exception as exc:  # a crash is a failed job, and the run goes on
        seconds = time.perf_counter() - t0
        outcome = Outcome()
        outcome.add("runs without raising", False, True, f"{type(exc).__name__}: {exc}")
        return seconds, outcome
    seconds = time.perf_counter() - t0
    return seconds, check(job, rc, out)


def calibration_sample() -> float:
    """Seconds for a fixed loop of small numpy projections, which runs no package code."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ROUNDS):
        acc += float(np.abs(_CAL_MATRIX @ _CAL_MATRIX[i % 64]).mean())
    return time.perf_counter() - t0


class Timeline:
    """Timed intervals in a row, with a calibration sample before and after each.

    On a machine whose cores other tenants share, the speed of this process
    changes by a factor of up to 1.6 within seconds, and short intervals slow
    down with it.  ``scaled`` gives an interval's time at the reference speed
    as far as the samples around it tell it: the measured time t times
    (CAL_REF_S / g) ** exp(-t / CAL_REACH_S), where g is the geometric mean of
    the two samples.  A short interval is scaled fully; a long one, during
    which the speed has changed many times, stays close to its measured time.
    """

    def __init__(self):
        self.measured: list[float] = []
        self.cal = [calibration_sample()]

    def add(self, seconds: float) -> int:
        """Record an interval that has just ended; return its index."""
        self.measured.append(seconds)
        self.cal.append(calibration_sample())
        return len(self.measured) - 1

    def scaled(self, i: int) -> float:
        t = self.measured[i]
        speed = CAL_REF_S / math.sqrt(self.cal[i] * self.cal[i + 1])
        return t * speed ** math.exp(-t / CAL_REACH_S)


def run_pass(cli, jobs: list, prepared: list, tally: Tally, recorder=None, after_job=None) -> list:
    """Run every job once and return the times; ``after_job(seconds)`` follows each job."""
    times = []
    for i, (job, (argv, out)) in enumerate(zip(jobs, prepared)):
        seconds, outcome = run_job(cli, job, argv, out, recorder)
        tally.record(i, outcome)
        times.append(seconds)
        if after_job is not None:
            after_job(seconds)
    return times


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND executions beyond it."""
    xs = sorted(times)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def list_time(passes: list) -> float:
    """Time to run the job list once: the sum over jobs of each job's median time."""
    return sum(statistics.median(times) for times in zip(*passes))


def timing_metrics(passes: list) -> dict:
    executions = [t for times in passes for t in times]
    return {"wall_s": list_time(passes), "job_s_p50": statistics.median(executions),
            "job_s_tail": tail(executions)[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    _import_package()
    import zonoids.cli as cli

    jobs = make_jobs(workload, seed, tiny)
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # Timed passes run the path-parallel commands on every usable core, as the
    # CLI does by default.  A traced run uses one worker, so that spans nest
    # and never overlap; its untraced passes do the same, for the overhead.
    workers = 1 if trace else len(os.sched_getaffinity(0))
    prepared = [job.materialize(workdir, workers) for job in jobs]
    env = environment(jobs, seed, workers)

    run_job(cli, jobs[0], *prepared[0])  # warm-up: lazy imports, first large allocations
    tally = Tally(jobs)
    plain, traced = [], []  # per pass, the time of every job
    recorder = SpanRecorder() if trace else None
    timeline = None if trace else Timeline()
    setup = []  # (measured, scaled) fresh-import times
    repeats = 1 if tiny else SETUP_REPEATS
    t_start = time.perf_counter()

    def after_job(job_seconds: float) -> None:
        timeline.add(job_seconds)
        # The fresh imports, spread evenly over the measuring time.  They stay
        # out of the timeline: a sample taken right after a child process
        # exits runs up to three times slower than its neighbours.
        due = repeats * (time.perf_counter() - t_start) / max(seconds, 1e-9)
        if len(setup) < min(due, repeats):
            setup.append(fresh_import_seconds())

    # whole passes; start another only while it would end at most half a pass past --seconds
    while not plain or (time.perf_counter() - t_start) * (1 + 0.5 / len(plain)) < seconds:
        plain.append(run_pass(cli, jobs, prepared, tally, after_job=None if trace else after_job))
        if trace:
            recorder.install()
            try:
                traced.append(run_pass(cli, jobs, prepared, tally, recorder))
            finally:
                recorder.uninstall()

    summary = {"workload": workload, "seed": seed, "jobs": len(jobs), "passes": len(plain),
               "executions": len(jobs) * len(plain), "env": env,
               "failing": {jobs[i].name: f"{c.name} ({c.detail})" for i, c in enumerate(tally.failed) if c}}
    if trace:
        recorder.save(os.path.join(workdir, "spans.npz"))
        scipy_s = [scipy_import_seconds(_fresh_import(["-X", "importtime", "-c", "import zonoids"]).stderr)
                   for _ in range(1 if tiny else IMPORTTIME_REPEATS)]
        values = recorder.layer_metrics(len(traced))
        values["setup.scipy_import_s"] = statistics.median(scipy_s)
        values["trace.overhead_s"] = list_time(traced) - list_time(plain)
        summary["missing_trace_targets"] = recorder.missing
    else:
        while len(setup) < repeats:  # a run shorter than its first pass
            setup.append(fresh_import_seconds())
        scaled = [timeline.scaled(i) for i in range(len(timeline.measured))]
        scaled_passes = [scaled[k * len(jobs):(k + 1) * len(jobs)] for k in range(len(plain))]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            **timing_metrics(scaled_passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # not gated: the times as measured, and the median calibration sample
            "measured_setup_s": statistics.median(measured for measured, _ in setup),
            **{f"measured_{k}": v for k, v in timing_metrics(plain).items()},
            "calibration_s": statistics.median(timeline.cal),
        }
        summary["tail_percentile"] = tail(scaled)[1]
        with open(os.path.join(workdir, "times.json"), "w", encoding="utf-8") as fh:
            json.dump({"jobs": [j.name for j in jobs], "measured": timeline.measured,
                       "calibration": timeline.cal, "setup": setup}, fh)
    result = {"summary": summary, "values": values, "correct": tally.correct,
              "attempted": len(jobs), "failed": tally.n_failed}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_human(result: dict, units: dict) -> None:
    s = result["summary"]
    print(f"workload {s['workload']}  seed {s['seed']}  jobs {s['jobs']}  passes {s['passes']}  "
          f"executions {s['executions']}")
    print(f"  environment {json.dumps(s['env'], sort_keys=True)}")
    for name, value in result["values"].items():
        note = ""
        if name in ("job_s_tail", "measured_job_s_tail"):
            note = f"  (p{s['tail_percentile']:.0f} over {s['executions']} executions)"
        print(f"  {name:<28} {value:.6g} {units.get(name, 's')}{note}")
    print(f"  {'failed_ops':<28} {result['failed']}/{result['attempted']} jobs"
          f"{'' if result['correct'] else '  (an exact check failed: incorrect)'}")
    for name, why in s["failing"].items():
        print(f"    failed {name}: {why}")
    if s.get("missing_trace_targets"):
        print(f"  not traced (absent from the package): {', '.join(s['missing_trace_targets'])}")


def _result_line(result: dict, units: dict) -> str:
    metrics = {name: {"value": result["values"][name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _run_all(args, workloads) -> int:
    """Each workload in its own process, so that its memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    units = _units(spec, bool(args.trace))
    _print_human(result, units)
    print(_result_line(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
