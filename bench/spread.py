"""Run the benchmark on several seeds and summarize the run-to-run spread.

    python3 bench/spread.py --seeds 1-10 [--workloads table-1e7,census-mc] [--out FILE]

Each seed is one ``run.py --trace 0`` run of ``run_seconds`` from
BENCHMARK.json; one ``--trace 1`` run per workload follows.  For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median; per-layer metrics come from the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values, failed, provenance = {}, 0, None
        for seed in _seeds(args.seeds):
            detail, result = _run(workload, seed, spec["run_seconds"], 0)
            provenance = detail["provenance"]
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps(result), flush=True)
        end_to_end = {}
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            end_to_end[name] = {"values": v, "median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median}
        _, traced = _run(workload, _seeds(args.seeds)[0], spec["run_seconds"], 1)
        failed += traced["failed"] + (not traced["correct"])
        summary["workloads"][workload] = {
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "provenance": provenance,
        }
        for name, s in end_to_end.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
