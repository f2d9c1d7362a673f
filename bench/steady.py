"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/steady.py --runs 10                      # every workload, seeds 0..9
    python3 bench/steady.py --runs 5 --workloads swap-4d --out .bench_work/spread.json

For each workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median next
to a third of the metric's bound from BENCHMARK.json.  It also prints
``failed`` per seed and the spread of the extra figures each run writes to
``.bench_work/<workload>/result.json``.  ``--out`` adds one traced run per
workload at seed 0 and writes all the figures and the environment as JSON;
``bench/baseline.json`` holds them for the package as first benchmarked.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    """(the result line, the run's result.json) of one run."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900, check=True)
    with open(os.path.join(ROOT, ".bench_work", workload, "result.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), doc


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "seeds": list(range(args.runs)), "workloads": {}}
    for workload in args.workloads.split(","):
        results, docs = [], []
        for seed in range(args.runs):
            result, run_doc = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            docs.append(run_doc)
            env = run_doc["summary"]["env"]
            doc.setdefault("environment", {k: v for k, v in env.items() if k not in ("seed", "working_set_bytes")})
            doc.setdefault("working_set_bytes", {})[workload] = env["working_set_bytes"]
        entry = {"attempted": results[0]["attempted"], "failed": [r["failed"] for r in results],
                 "correct": [r["correct"] for r in results], "metrics": {}, "extra": {}}
        print(f"{workload}: failed per seed {entry['failed']} of {entry['attempted']}, "
              f"correct {all(entry['correct'])}")
        for name, bound in bounds.items():
            unit = results[0]["metrics"][name]["unit"]
            stats = _spread([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = {"unit": unit, "bound": bound, **stats}
            flag = "" if stats["spread"] < bound / 3 else "   <-- spread above bound/3"
            print(f"  {name:<12} median {stats['median']:.4g} {unit}  q1 {stats['q1']:.4g}  "
                  f"q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}  bound/3 {bound / 3:.3f}{flag}")
        for name in docs[0]["values"]:
            if name not in bounds:
                stats = _spread([d["values"][name] for d in docs])
                entry["extra"][name] = stats
                print(f"  {name:<20} median {stats['median']:.4g}  spread {stats['spread']:.3f}  (not gated)")
        doc["workloads"][workload] = entry
        if args.out:  # one traced run, for the per-layer figures of the baseline
            _, traced = run_once(workload, 0, spec["run_seconds"], trace=1)
            doc.setdefault("per_layer_seed0", {})[workload] = traced["values"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
