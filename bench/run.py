"""Benchmark of the phisigma CLI: one workload, measured for a fixed time.

    python3 bench/run.py --workload table-1e7 --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads (see workloads.py):

* ``table-1e7`` ``values-table`` to 1e7: the phi/sigma segment scan and
  the value bitmaps.
* ``census-mc`` ``capture-census`` at 1e5 and ``rl-sum`` at 1e6 (the
  per-integer Python paths: factorize, classify, is_s_normal), then two
  Monte Carlo simplex volumes, ``smooth-count`` and ``omega-census`` at
  1e7 and ``constants`` (the vectorized numpy paths and the smooth/omega
  scan modes).  It never scans for phi or sigma values.

Each workload run is a fresh interpreter (child.py) that imports
``phisigma.cli`` and calls ``cli.main(argv)`` per step, so caches and peak
RSS belong to that run alone.  Runs repeat while another one fits in
``--seconds``.  Every step's stdout must equal the bytes pinned in
expected.json and agree with the values the test suite pins.  The seed
changes nothing: every seed runs the same steps (see workloads.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of a run's steps, after the import), ``setup_s`` (median time of a fresh
interpreter importing ``phisigma.cli``, sampled before every workload run)
and ``peak_rss_mb`` (median peak RSS of a run).  ``--trace 1`` makes one
untraced run, then traced runs that wrap each layer's public functions
(child.py, tracer.py), and reports the per-layer metrics.  The last stdout line is the result
object; the line before it, and ``bench/out/``, hold the provenance,
sample counts, per-step times, failures and (traced) spans.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, all_steps, pin_problems, steps as workload_steps

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH, "expected.json")
OUT = os.path.join(BENCH, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MEMORY_BUDGET_ENV = "PHISIGMA_MEMORY_BUDGET"
SETUP_PER_RUN = 3  # setup samples taken before each workload run
HARD_LIMIT_S = 170.0  # every child is killed by then

# "both" is a window scanned for phi and sigma in one call; nothing does that
# today, but a merged phi/sigma scan must not drop out of the metrics.
SCAN_MODES = ("phi", "sigma", "both", "smooth", "omega")
STEP_NAMES = sorted({s.name for s in all_steps()})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != MEMORY_BUDGET_ENV}
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env: dict, samples: int, warm: bool) -> list[float]:
    """Seconds for a fresh interpreter to import phisigma.cli.  With warm,
    one untimed import first compiles the bytecode, as an installed
    package would have it."""
    cmd = [sys.executable, "-c", "import phisigma.cli"]
    times = []
    for i in range(samples + warm):
        t = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t
        if proc.returncode != 0:
            raise SystemExit(f"importing phisigma.cli failed:\n{proc.stderr}")
        if i >= warm:
            times.append(dt)
    return times


def run_child(steps, trace: bool, env: dict, deadline: float) -> dict:
    job = {"root": ROOT, "steps": [[s.name, list(s.argv)] for s in steps], "trace": trace}
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py")],
                              input=json.dumps(job), env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"crash": "timed out", "elapsed": time.perf_counter() - t, "traced": trace}
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        return {"crash": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed": elapsed, "traced": trace}
    rep = json.loads(proc.stdout)
    rep["elapsed"] = elapsed
    rep["traced"] = trace
    if not os.path.abspath(rep["module"]).startswith(SRC + os.sep):
        rep["crash"] = f"imported {rep['module']}, not the checkout's src/"
    return rep


def rep_failures(rep: dict, steps, expected: dict) -> list[str]:
    """One line per failed step of a run: nonzero exit, crash or wrong bytes."""
    if "crash" in rep:
        return [f"{s.name}: run failed ({rep['crash']})" for s in steps]
    bad = []
    for step, got in zip(steps, rep["steps"]):
        if got["rc"] != 0:
            why = [f"exit {got['rc']} {got['error'] or ''}".strip()]
        elif got["stdout"] != expected[step.key]:
            why = ["stdout differs from expected.json"]
        else:
            why = pin_problems(step, got["stdout"])
        if why:
            bad.append(f"{step.name}: {'; '.join(why)}")
    return bad


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    aggs, cnt = tr["aggregates"], tr["counters"]

    def agg(name, field):
        return aggs.get(name, {}).get(field, 0)

    m = {}
    for mode in SCAN_MODES:
        n = f"sieve.segment_scan.{mode}"
        ints = cnt.get(f"{n}.ints", 0)  # window width hi - lo, not what the kernel visits
        m[f"{n}.calls"] = (agg(n, "calls"), "count")
        m[f"{n}.ints"] = (ints, "count")
        m[f"{n}.self_s"] = (agg(n, "self_s"), "s")
        m[f"{n}.ns_per_int"] = (_ratio(agg(n, "self_s") * 1e9, ints), "ns")
    m["value_sets.phi_useful_ratio"] = (
        _ratio(cnt.get("value_sets.phi_useful", 0), cnt.get("value_sets.phi_scanned", 0)), "ratio")
    m["value_sets.build_value_bitmap.self_s"] = (agg("value_sets.build_value_bitmap", "self_s"), "s")
    m["value_sets.count.s"] = (agg("value_sets.count", "total_s"), "s")
    m["sieve.build_factor_sieve.s"] = (agg("sieve.build_factor_sieve", "total_s"), "s")
    m["sieve.build_factor_sieve.ints"] = (cnt.get("sieve.build_factor_sieve.ints", 0), "count")
    m["sieve.factorize.calls"] = (agg("sieve.factorize", "calls"), "count")
    m["sieve.factorize.self_s"] = (agg("sieve.factorize", "self_s"), "s")
    c = "classifier.classify"
    m[f"{c}.calls"] = (agg(c, "calls"), "count")
    m[f"{c}.self_s"] = (agg(c, "self_s"), "s")
    m[f"{c}.p50_us"] = (agg(c, "p50_us"), "us")
    m[f"{c}.p99_us"] = (agg(c, "p99_us"), "us")
    m["classifier.classify_per_value"] = (
        _ratio(agg(c, "calls"), cnt.get("classifier.values_attained", 0)), "ratio")
    m["anatomy.is_s_normal.calls"] = (agg("anatomy.is_s_normal", "calls"), "count")
    m["anatomy.is_s_normal.self_s"] = (agg("anatomy.is_s_normal", "self_s"), "s")
    cache = tr["normality_cache"]
    m["classifier.normality_cache_hit_ratio"] = (
        _ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    m["structure.r_l_sum.s"] = (agg("structure.r_l_sum", "total_s"), "s")
    m["structure.r_l_sum.ns_per_int"] = (
        _ratio(agg("structure.r_l_sum", "total_s") * 1e9, cnt.get("structure.r_l_sum.ints", 0)), "ns")
    for L in (3, 6):
        n = f"structure.simplex_volume_mc.L{L}"
        m[f"{n}.ns_per_sample"] = (_ratio(agg(n, "total_s") * 1e9, cnt.get(f"{n}.samples", 0)), "ns")
    for n in ("anatomy.psi_smooth_count", "anatomy.omega_tail_census",
              "constants.structure_constants"):
        m[f"{n}.s"] = (agg(n, "total_s"), "s")
    for step in STEP_NAMES:
        m[f"cli.{step}.s"] = (agg(f"cli.{step}", "total_s"), "s")
    m["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return m


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = f.read().strip()
        except OSError:
            continue
    return out


def provenance(env: dict) -> dict:
    sources = sorted(glob.glob(os.path.join(SRC, "phisigma", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as f:
            data = f.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # wc -l src/phisigma/*.py; informational, never gated
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "memory_budget_env_dropped": os.environ.get(MEMORY_BUDGET_ENV),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "phisigma", "cli.py")):
        print(f"no phisigma sources under {SRC}", file=sys.stderr)
        return 2
    with open(EXPECTED) as f:
        expected = json.load(f)
    steps = workload_steps(args.workload)
    missing = [s.key for s in steps if s.key not in expected]
    if missing:
        print(f"expected.json has no output for {missing}; run make_expected.py", file=sys.stderr)
        return 2
    env = child_env()

    setup, reps = [], []
    if args.trace:
        reps.append(run_child(steps, False, env, hard_deadline))
    deadline = time.perf_counter() + args.seconds
    while True:
        t = time.perf_counter()
        if not args.trace:  # spread over the run, like the workload runs
            setup += measure_setup(env, SETUP_PER_RUN, warm=not setup)
        rep = run_child(steps, bool(args.trace), env, hard_deadline)
        reps.append(rep)
        now = time.perf_counter()
        if "crash" in rep or now + (now - t) > min(deadline, hard_deadline):
            break

    failures = []
    for i, rep in enumerate(reps):
        failures += [f"run {i}: {line}" for line in rep_failures(rep, steps, expected)]
    attempted = len(steps) * len(reps)
    ok = [r for r in reps if "crash" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        } if untraced else {}
    else:
        per_rep = [layer_metrics(r["trace"], r["wall_s"], untraced[0]["wall_s"])
                   for r in traced] if untraced else []
        metrics = {name: (statistics.median(m[name][0] for m in per_rep), unit)
                   for name, (_, unit) in (per_rep[0].items() if per_rep else ())}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "steps": [list(s.argv) for s in steps],
        "provenance": provenance(env),
        "memory_budget": sorted({r["memory_budget"] for r in ok}),
        "samples": {"runs": len(reps), "traced_runs": len(traced), "setup": len(setup)},
        "runs": [{k: r.get(k) for k in ("traced", "wall_s", "peak_rss_mb", "import_s", "elapsed",
                                        "crash")}
                 | {"step_s": {s["name"]: s["seconds"] for s in r.get("steps", [])}}
                 for r in reps],
        "setup_s": setup,
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(detail | {"traces": [r["trace"] for r in traced]}, f)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
