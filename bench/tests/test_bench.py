"""Self-tests of the benchmark: run with ``python3 -m pytest -q bench/tests``."""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs as jobs_mod  # noqa: E402
import run as run_mod  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "all", "--tiny", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    per_workload = [json.loads(ln) for ln in lines if ln.startswith('{"correct"')][:-1]
    assert len(per_workload) == len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in per_workload:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        for name, unit in expected.items():  # the human-readable lines name every metric too
            assert any(ln.split()[:1] == [name] and unit in ln for ln in lines)


def _run_jobs(workload, mutate=None):
    import zonoids.cli as cli

    jobs = jobs_mod.make_jobs(workload, 0, tiny=True)
    if mutate:
        mutate(jobs)
    workdir = os.path.join(run_mod.WORK, f"selftest-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tally = run_mod.Tally(jobs)
    run_mod.run_pass(cli, jobs, [j.materialize(workdir, 1) for j in jobs], tally)
    return jobs, tally


def test_wrong_statistical_reference_counts_as_a_failed_op():
    _, clean = _run_jobs("equiv-2d")

    def flip(jobs):
        job = next(j for j in jobs if j.name.startswith("ln1"))
        job.ref["equivalent"] = not job.ref["equivalent"]

    jobs, wrong = _run_jobs("equiv-2d", flip)
    assert wrong.n_failed == clean.n_failed + 1
    assert wrong.correct == clean.correct  # a statistical check does not make the run incorrect
    failing = [j.name for j, f in zip(jobs, wrong.failed) if f is not None]
    assert any(name.startswith("ln1") for name in failing)


def test_wrong_exact_reference_counts_and_marks_the_run_incorrect():
    _, clean = _run_jobs("swap-4d")
    assert clean.correct

    def miscount(jobs):
        next(j for j in jobs if j.kind == "swap-exact").ref["n_perms"] += 1

    _, wrong = _run_jobs("swap-4d", miscount)
    assert wrong.n_failed == clean.n_failed + 1
    assert not wrong.correct


def test_same_seed_same_jobs_other_seed_other_inputs():
    a = jobs_mod.make_jobs("equiv-2d", 3, tiny=True)
    b = jobs_mod.make_jobs("equiv-2d", 3, tiny=True)
    c = jobs_mod.make_jobs("equiv-2d", 4, tiny=True)
    assert [(j.argv, j.files) for j in a] == [(j.argv, j.files) for j in b]
    assert [j.files for j in a] != [j.files for j in c]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run_mod.tail([float(i) for i in range(28)])
    assert value == 17.0 and pct == pytest.approx(100 * 18 / 28)
    assert run_mod.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_timeline_scales_short_intervals_fully_and_long_ones_less(monkeypatch):
    samples = iter([0.025, 0.05, 0.1])
    monkeypatch.setattr(run_mod, "calibration_sample", lambda: next(samples))
    timeline = run_mod.Timeline()
    short, long = timeline.add(1e-6), timeline.add(100.0)
    speed = run_mod.CAL_REF_S / (0.025 * 0.05) ** 0.5
    assert timeline.scaled(short) == pytest.approx(1e-6 * speed)
    assert timeline.scaled(long) == pytest.approx(100.0, rel=1e-9)


def test_scipy_import_time_counts_top_level_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:       700 |        700 |     scipy.special",
        "import time:       200 |        900 |   scipy.stats",
        "import time:        10 |       1060 | zonoids.invariance",
        "import time:         5 |          5 | zonoids",
    ])
    assert run_mod.scipy_import_seconds(log) == pytest.approx(1050e-6)


def test_refuses_to_run_without_the_package_source():
    bare = os.path.join(run_mod.WORK, "selftest-bare")  # only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "series", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
