"""Seeded job lists for the benchmark workloads, each job with its reference.

A job is one ``zonoids`` CLI invocation.  The generator writes every input
document the job needs and attaches a reference: the oracle verdict or
closed-form value, with its tolerance.  ``check`` compares a finished job's
exit code and report against that reference.

Every check is either *exact* (deterministic: a closed form to ~1e-10, a
count, an exit code that must be 0/1) or *statistical* (a verdict of a
statistical test, or a Monte Carlo value within a stated multiple of its
standard error).  A job fails when any of its checks fails; only failed exact
checks, exceptions and exit codes 2/3 mark the run incorrect, because a
statistical verdict can be wrong at a known rate (see README.md).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("equiv-2d", "swap-4d", "series")
# Stands in argv for the --workers value of the path-parallel commands, which
# the run fills in: the usable core count when timing, 1 in a traced run.
WORKERS = "{workers}"

EXACT_TOL = 1e-10
MC_SE_MULTIPLE = 6.0     # closed-form Monte Carlo values: |estimate - truth| <= 6 SE
CF_BOOT_MULTIPLE = 5.0   # cf-identity: discrepancy <= 5 bootstrap SE
FRECHET_SE_MULTIPLE = 3.0  # lepage max: P(Y <= 1) within 3 SE of exp(-1), as in the acceptance suite
EQUIV_TAU = 4.0          # the acceptance suite's tau for lognormal pairs


@dataclass
class Job:
    """One CLI invocation.  ``argv`` names input files as ``@<file>``."""

    name: str
    kind: str
    argv: list
    files: dict
    ref: dict
    working_set_bytes: int

    def materialize(self, workdir: str, workers: int) -> tuple[list, str]:
        """Write the input files into ``workdir``; return (argv, report path)."""
        for fname, doc in self.files.items():
            with open(f"{workdir}/{fname}", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out = f"{workdir}/{self.name}.report.json"
        argv = [str(workers) if a == WORKERS else f"{workdir}/{a[1:]}" if a.startswith("@") else a
                for a in self.argv]
        return argv + ["--out", out], out


@dataclass
class Check:
    name: str
    ok: bool
    exact: bool
    detail: str = ""


@dataclass
class Outcome:
    """Checks of one execution of one job."""

    checks: list = field(default_factory=list)

    def add(self, name: str, ok, exact: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), exact, detail))

    @property
    def exact_failed(self) -> bool:
        return any(not c.ok and c.exact for c in self.checks)


# ---------------------------------------------------------------------------
# input documents (closed forms written out here, not taken from the package)
# ---------------------------------------------------------------------------

def _lognormal(mean, cov) -> dict:
    return {"schema": 1, "type": "lognormal", "mean": np.asarray(mean).tolist(),
            "cov": np.asarray(cov).tolist()}


def _discrete(atoms, weights) -> dict:
    return {"schema": 1, "type": "discrete", "atoms": np.asarray(atoms, dtype=float).tolist(),
            "weights": np.asarray(weights, dtype=float).tolist()}


def _swap_lognormal(b, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-mean and log-covariance of the first d coordinates of the lognormal coupling model."""
    bfull = np.zeros(d)
    bfull[: len(b)] = b
    s2 = float(np.dot(b, b))
    cov = np.add.outer(bfull, bfull) + s2 + np.eye(d)
    mean = -0.5 * (1.0 + s2 + 2.0 * bfull)
    return mean, cov


def _dacunha(n: int) -> dict:
    """Joint law of the first n coordinates of the sparse unit-mean sequence."""
    atoms = np.zeros((n + 1, n))
    weights = np.empty(n + 1)
    for k in range(1, n + 1):
        atoms[k - 1, k - 1] = k * (k + 1)
        weights[k - 1] = 1.0 / (k * (k + 1))
    weights[n] = 1.0 / (n + 1)
    return _discrete(atoms, weights / weights.sum())


def _lognormal_pair(rng, passing: bool, flavor: int):
    """The acceptance suite's random lognormal pair: equivalent iff ``passing``."""
    a11, a22 = rng.uniform(0.3, 1.2, size=2)
    rho = rng.uniform(-0.6, 0.6)
    a12 = rho * math.sqrt(a11 * a22)
    cov = np.array([[a11, a12], [a12, a22]])
    mu = rng.uniform(-1.0, 0.5, size=2)
    if passing:
        c = rng.uniform(0.1, 0.8)
        return (mu, cov), (mu - 0.5 * c, cov + c)
    if flavor % 2 == 0:
        mu2 = mu.copy()
        mu2[0] += rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.45)
        return (mu, cov), (mu2, cov)
    delta = rng.choice([-1.0, 1.0]) * 0.3 * math.sqrt(a11 * a22)
    lim = 0.9 * math.sqrt(a11 * a22)
    a12_new = float(np.clip(a12 + delta, -lim, lim))
    return (mu, cov), (mu, np.array([[a11, a12_new], [a12_new, a22]]))


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _equiv_jobs(rng, tiny: bool) -> list:
    from zonoids.laws import law_from_json
    from zonoids.levy import check_lognormal_equiv

    n_pairs = 2 if tiny else 6
    budgets = (2_000, 1_000) if tiny else (10**6, 10**5)
    n_ell, ell_budget = (1, 1_000) if tiny else (2, 10**5)
    jobs = []
    for i in range(n_pairs):
        passing = i % 2 == 0
        (m1, c1), (m2, c2) = _lognormal_pair(rng, passing, i // 2)
        a, b = _lognormal(m1, c1), _lognormal(m2, c2)
        oracle = check_lognormal_equiv(law_from_json(a), law_from_json(b)).verdict
        if oracle != passing:
            raise RuntimeError(f"lognormal pair {i}: closed-form oracle disagrees with its construction")
        for budget in budgets:
            name = f"ln{i}-n{budget}"
            jobs.append(Job(
                name, "equiv",
                ["equiv", "--law-a", f"@{name}.a.json", "--law-b", f"@{name}.b.json",
                 "--budget", str(budget), "--tau", str(EQUIV_TAU), "--seed", _cli_seed(rng)],
                {f"{name}.a.json": a, f"{name}.b.json": b},
                {"equivalent": oracle, "budget": budget},
                # CRN: the normal driver and both sample matrices, plus |proj| of each side and the difference
                8 * budget * (3 * 2 + 3),
            ))
    for i in range(n_ell):
        # R A U with R ~ chi(2) and U uniform on the circle is N(0, A A^T): the pair is
        # equal in law, so zonoid-equivalent, with no shared driver.
        mat = np.tril(rng.uniform(-1.0, 1.0, size=(2, 2)))
        np.fill_diagonal(mat, rng.uniform(0.5, 1.5, size=2))
        cov = mat @ mat.T
        name = f"ell{i}-n{ell_budget}"
        jobs.append(Job(
            name, "equiv",
            ["equiv", "--law-a", f"@{name}.a.json", "--law-b", f"@{name}.b.json",
             "--budget", str(ell_budget), "--tau", str(EQUIV_TAU), "--seed", _cli_seed(rng)],
            {f"{name}.a.json": {"schema": 1, "type": "elliptical", "radial": {"kind": "chi", "dof": 2},
                                "matrix": mat.tolist()},
             f"{name}.b.json": {"schema": 1, "type": "gaussian", "mean": [0.0, 0.0], "cov": cov.tolist()}},
            {"equivalent": True, "budget": ell_budget, "gaussian_cov": cov.tolist()},
            8 * ell_budget * (2 * 2 + 1),
        ))
    return jobs


def _orbit_law(rng, d: int, m: int) -> dict:
    atoms = rng.uniform(0.2, 3.0, size=(m, d))
    w = rng.uniform(0.1, 1.0, size=m)
    perms = list(itertools.permutations(range(d)))
    orbit = np.vstack([atoms[:, p] for p in perms])
    return _discrete(orbit, np.tile(w / w.sum() / len(perms), len(perms)))


def _random_discrete(rng, d: int) -> dict:
    m = int(rng.integers(2, 5))
    w = rng.uniform(0.1, 1.0, size=m)
    return _discrete(rng.uniform(-2.0, 2.0, size=(m, d)), w / w.sum())


def _swap_jobs(rng, tiny: bool) -> list:
    from zonoids.laws import law_from_json, permute_law
    from zonoids.levy import check_lognormal_equiv

    budget = 1_000 if tiny else 10**5
    n5, n4 = (2, 3) if tiny else (21, 40)

    def exact_job(name: str, doc: dict) -> Job:
        d = len(doc["atoms"][0])
        return Job(name, "swap-exact",
                   ["swap", "--law", f"@{name}.law.json", "--perms", "all", "--seed", _cli_seed(rng)],
                   {f"{name}.law.json": doc}, {"law": doc, "n_perms": math.factorial(d) - 1},
                   8 * len(doc["atoms"]) * (d + 2) * 2)

    def stat_job(name: str, mean, cov) -> Job:
        doc = _lognormal(mean, cov)
        law = law_from_json(doc)
        d = len(mean)
        invariant = all(check_lognormal_equiv(law, permute_law(law, p)).verdict
                        for p in itertools.permutations(range(d)))
        return Job(name, "swap-stat",
                   ["swap", "--law", f"@{name}.law.json", "--perms", "all",
                    "--budget", str(budget), "--seed", _cli_seed(rng)],
                   {f"{name}.law.json": doc},
                   {"invariant": invariant, "n_perms": math.factorial(d) - 1, "budget": budget},
                   # the sample, its permuted copy, |proj| of each side and the difference
                   8 * budget * (2 * d + 3))

    mean, cov = _swap_lognormal([0.5], 4)
    invariant = stat_job("lnswap-invariant", mean, cov)
    shifted = mean.copy()
    shifted[0] += rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.4)
    not_invariant = stat_job("lnswap-shifted", shifted, cov)
    # d = 5: the sparse law and orbit-symmetrized laws (invariant), which set job_s_tail;
    # d = 4: the sparse law, orbit-symmetrized and random (not invariant) laws, which set job_s_p50
    d5 = [exact_job("dacunha5", _dacunha(5))]
    d5 += [exact_job(f"orbit5-{i}", _orbit_law(rng, 5, 2)) for i in range(n5 - 1)]
    d4 = [exact_job("dacunha4", _dacunha(4))]
    d4 += [exact_job(f"orbit4-{i}", _orbit_law(rng, 4, 3)) if i % 2 == 0
           else exact_job(f"random4-{i}", _random_discrete(rng, 4)) for i in range(n4 - 1)]
    return d5 + [invariant] + d4 + [not_invariant]


def _series_jobs(rng, tiny: bool) -> list:
    reps = 1 if tiny else 5
    cf_paths, lep_paths = (50, 200) if tiny else (1_000, 3_000)
    erg = {"dacunha-castelle": ("100,1000,10000,100000", 50), "lognormal-swap": ("100,10000", 12)}
    if tiny:
        erg = {"dacunha-castelle": ("100,1000", 5), "lognormal-swap": ("10,100", 5)}
    terms = 200 if tiny else 10_000
    us = [0.5, 1.0, 2.0]
    jobs = []
    for r in range(reps):
        name = f"lepage-max{r}"
        jobs.append(Job(name, "lepage-max",
                        ["lepage", "--driver", f"@{name}.driver.json", "--mode", "max",
                         "--terms", str(terms), "--paths", str(lep_paths), "--bound", "1",
                         "--seed", _cli_seed(rng), "--workers", WORKERS],
                        {f"{name}.driver.json": _discrete([[1.0, 1.0, 1.0]], [1.0])},
                        {"paths": lep_paths, "d": 3},
                        8 * lep_paths * (3 + 2) + 8 * 128 * 5))
        name = f"cf-identity{r}"
        jobs.append(Job(name, "cf-identity",
                        ["cf-identity", "--driver", f"@{name}.driver.json", "--u", ";".join(map(str, us)),
                         "--terms", str(terms), "--paths", str(cf_paths),
                         "--seed", _cli_seed(rng), "--workers", WORKERS],
                        {f"{name}.driver.json": _discrete([[-1.0], [1.0]], [0.5, 0.5])},
                        {"u": us},
                        8 * terms * 4 + 16 * cf_paths * len(us) * 2))
        for model, (checkpoints, paths) in erg.items():
            name = f"ergodic-{model}{r}"
            doc = {"schema": 1, "type": model}
            if model == "lognormal-swap":
                doc["b"] = [0.5]
            n_max = int(checkpoints.split(",")[-1])
            jobs.append(Job(name, "ergodic",
                            ["ergodic", "--model", f"@{name}.model.json", "--checkpoints", checkpoints,
                             "--paths", str(paths), "--seed", _cli_seed(rng), "--workers", WORKERS],
                            {f"{name}.model.json": doc},
                            {"model": model, "paths": paths},
                            8 * n_max + 8 * paths * 8))
    return jobs


_GENERATORS = {"equiv-2d": _equiv_jobs, "swap-4d": _swap_jobs, "series": _series_jobs}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list:
    """The fixed job list of ``workload`` for ``seed``; same seed, same jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, tiny)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rows(report: dict):
    table = report["result"]["per_direction"]
    return np.array(table["rows"], dtype=float)


def _axis_checks(out: Outcome, rows: np.ndarray, d: int, col: int, law: dict, n: int, label: str) -> None:
    """At u = +-e_i a lognormal side's support is E xi_i = exp(mu_i + s_ii / 2)."""
    mu, cov = np.array(law["mean"]), np.array(law["cov"])
    for r in rows:
        u = r[:d]
        i = int(np.argmax(np.abs(u)))
        if np.count_nonzero(u) != 1 or abs(u[i]) != 1.0:
            continue
        s2 = cov[i, i]
        mean = math.exp(mu[i] + 0.5 * s2)
        se = mean * math.sqrt(math.expm1(s2) / n)
        out.add(f"{label}: h(e_{i + 1}) = E xi_{i + 1}", abs(r[col] - mean) <= MC_SE_MULTIPLE * se, False,
                f"{r[col]!r} vs {mean!r} (se {se:.3g})")


def _check_equiv(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    ref = job.ref
    out.add("verdict matches the oracle", rc == (0 if ref["equivalent"] else 1), False,
            f"exit {rc}, oracle {'equivalent' if ref['equivalent'] else 'not equivalent'}")
    res = report["result"]
    out.add("report verdict matches the exit code", res["verdict"] == (rc == 0), True)
    out.add("statistical mode", res["mode"] == "statistical", True)
    rows = _rows(report)
    n = ref["budget"]
    if "gaussian_cov" in ref:
        cov = np.array(ref["gaussian_cov"])
        u = rows[:, :2]
        s = np.sqrt(np.einsum("ij,jk,ik->i", u, cov, u))
        exact = s * math.sqrt(2.0 / math.pi)
        err = float(np.abs(rows[:, 3] - exact).max())
        out.add("Gaussian side equals the folded-normal closed form", err <= EXACT_TOL, True, f"max err {err:.3g}")
        se = s * math.sqrt((1.0 - 2.0 / math.pi) / n)
        z = float((np.abs(rows[:, 2] - exact) / se).max())
        out.add("elliptical side within 6 SE of the closed form", z <= MC_SE_MULTIPLE, False, f"max z {z:.2f}")
    else:
        _axis_checks(out, rows, 2, 2, job.files[f"{job.name}.a.json"], n, "a")
        _axis_checks(out, rows, 2, 3, job.files[f"{job.name}.b.json"], n, "b")


def _swap_reference(doc: dict, dirs: np.ndarray) -> float:
    """max over permutations and directions of |h(u) - h_perm(u)|, enumerated over atoms."""
    atoms, w = np.array(doc["atoms"]), np.array(doc["weights"])
    h = w @ np.abs(atoms @ dirs.T)
    d = atoms.shape[1]
    return max(float(np.abs(h - w @ np.abs(atoms[:, p] @ dirs.T)).max())
               for p in itertools.permutations(range(d)))


def _check_swap_exact(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    res = report["result"]
    rows = _rows(report)
    d = len(job.ref["law"]["atoms"][0])
    ref_max = _swap_reference(job.ref["law"], rows[:, :d])
    invariant = ref_max <= EXACT_TOL
    out.add("verdict matches the enumerated reference", rc == (0 if invariant else 1), True,
            f"exit {rc}, reference max |delta| {ref_max:.3g}")
    out.add("exact mode", res["mode"] == "exact", True)
    out.add("max |delta| equals the reference", abs(res["max_abs_delta"] - ref_max) <= EXACT_TOL * max(1.0, ref_max),
            True, f"{res['max_abs_delta']!r} vs {ref_max!r}")
    out.add("all permutations tested", res["extras"]["n_permutations"] == job.ref["n_perms"], True)


def _check_swap_stat(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    res = report["result"]
    out.add("verdict matches the closed-form oracle", rc == (0 if job.ref["invariant"] else 1), False,
            f"exit {rc}, max standardized {res['max_standardized_discrepancy']!r}")
    out.add("report verdict matches the exit code", res["verdict"] == (rc == 0), True)
    out.add("statistical mode", res["mode"] == "statistical", True)
    out.add("all permutations tested", res["extras"]["n_permutations"] == job.ref["n_perms"], True)
    law = job.files[f"{job.name}.law.json"]
    _axis_checks(out, _rows(report), len(law["mean"]), len(law["mean"]), law, job.ref["budget"], "law")


def _check_cf(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    out.add("exit code 0", rc == 0, True, f"exit {rc}")
    per_u = report["result"]["per_u"]
    u = np.array(per_u["u"], dtype=float).ravel()
    predicted = np.exp(-0.5 * math.pi * np.abs(u))  # E|u xi| = |u| for a Rademacher mark
    err = float(np.abs(np.array(per_u["predicted"]) - predicted).max())
    out.add("predicted CF equals exp(-pi/2 |u|)", err <= 1e-12, True, f"max err {err:.3g}")
    emp = np.array(per_u["empirical_re"]) + 1j * np.array(per_u["empirical_im"])
    disc = np.abs(emp - predicted)
    se = np.array(per_u["bootstrap_se"])
    out.add("empirical CF within 5 bootstrap SE", bool(np.all(disc <= CF_BOOT_MULTIPLE * se)), False,
            f"max ratio {float((disc / se).max()):.2f}")


def _check_lepage(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    out.add("exit code 0", rc == 0, True, f"exit {rc}")
    with open(os.path.join(where, report["result"]["paths_csv"]), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    vals = np.array([[float(x) for x in r[: job.ref["d"]]] for r in rows])
    out.add("one CSV row per path", vals.shape[0] == job.ref["paths"], True)
    target = math.exp(-1.0)
    se = math.sqrt(target * (1.0 - target) / job.ref["paths"])
    z = float(np.abs((vals <= 1.0).mean(axis=0) - target).max() / se)
    out.add("P(Y_j <= 1) within 3 SE of exp(-1)", z <= FRECHET_SE_MULTIPLE, False, f"max z {z:.2f}")


def _check_ergodic(job: Job, rc: int, report: dict, where: str, out: Outcome) -> None:
    out.add("exit code 0", rc == 0, True, f"exit {rc}")
    res = report["result"]
    checkpoints = res["checkpoints"]
    k = len(checkpoints)
    rows = np.array([[r[2], r[3]] for r in res["runs"]["rows"]], dtype=float).reshape(-1, k, 2)
    avg, oracle = rows[..., 0], rows[:, 0, 1]
    paths = avg.shape[0]
    out.add("one row per path and checkpoint", paths == job.ref["paths"], True)
    if job.ref["model"] == "dacunha-castelle":
        out.add("oracle limit is 0", bool(np.all(oracle == 0.0)), True)
        out.add("median final average <= 1e-3", float(np.median(avg[:, -1])) <= 1e-3, False)
        # E avg_n = 1 and E avg_n^2 = sum_{k<=n} k(k+1) / n^2 for the sparse sequence
        for j, n in enumerate(checkpoints):
            sd = math.sqrt(max((n + 1) * (n + 2) / (3.0 * n) - 1.0, 0.0))
            z = abs(avg[:, j].mean() - 1.0) / (sd / math.sqrt(paths))
            out.add(f"cross-path mean at n={n} within 4 exact SE of 1", z <= 4.0, False, f"z {z:.2f}")
    else:
        err = np.abs(avg - oracle[:, None])
        med_x = float(np.median(oracle))
        out.add("median error at the last checkpoint <= 5% of the median limit",
                float(np.median(err[:, -1])) <= 0.05 * med_x, False)
        out.add("median error decreases", float(np.median(err[:, -1])) < float(np.median(err[:, 0])), False)


_CHECKS = {"equiv": _check_equiv, "swap-exact": _check_swap_exact, "swap-stat": _check_swap_stat,
           "cf-identity": _check_cf, "lepage-max": _check_lepage, "ergodic": _check_ergodic}


def check(job: Job, rc: int, report_path: str) -> Outcome:
    """Compare one finished execution against the job's reference."""
    out = Outcome()
    if rc not in (0, 1):
        out.add("exit code is 0 or 1", False, True, f"exit {rc}")
        return out
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        _CHECKS[job.kind](job, rc, report, os.path.dirname(report_path), out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        out.add("report has the documented layout", False, True, f"{type(exc).__name__}: {exc}")
    return out
