"""The benchmark's workloads: the CLI steps of each, and the pinned values.

Each workload is a short, fixed sequence of ``phisigma`` subcommands.  The
seed picks nothing: every seed runs the same argv, so runs of one workload
do the same work and differ only in timing.  The expected bytes of every
step live in ``expected.json`` (written by ``make_expected.py``), and
``pin_problems`` cross-checks them against the numbers the repository's
tests pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

THREADS = ("--threads", "2")

# Same counts as TABLE1 in tests/test_acceptance.py: N -> (V_phi, V_sigma, V_common).
TABLE1 = {
    10**4: (2374, 2503, 1368),
    10**5: (20254, 21399, 11116),
    10**6: (180184, 189511, 95145),
    10**7: (1634372, 1717659, 841541),
}
V3_EXACT = 0.07892087143938899  # exact L=3 unit-simplex volume, tests/test_acceptance.py
CENSUS_TOTAL_1E5 = 20254  # V_phi(1e5)
RL_SUM_1E6_L3 = 16.489674913713863  # phi, L=3: math.fsum is order-free
PSI_1E7_100 = 269882
OMEGA_TAIL_1E7_15 = 2936041
RHO_REF = 0.542598586098471  # tests/test_acceptance.py, to 1e-15 relative


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _volume(L: int) -> Step:
    return Step(f"simplex-volume-L{L}",
                ("simplex-volume", "--L", str(L), "--samples", "1e7", "--seed", "42") + THREADS)


WORKLOADS = {
    "table-1e7": [
        Step("values-table", ("values-table", "--limits", "1e4,1e5,1e6,1e7") + THREADS),
    ],
    "census-mc": [
        Step("capture-census", ("capture-census", "--f", "phi", "--x", "1e5") + THREADS),
        Step("rl-sum", ("rl-sum", "--f", "phi", "--x", "1e6", "--L", "3") + THREADS),
        _volume(3),
        _volume(6),
        Step("smooth-count", ("smooth-count", "--x", "1e7", "--y", "100") + THREADS),
        Step("omega-census", ("omega-census", "--x", "1e7", "--alpha", "1.5") + THREADS),
        Step("constants", ("constants",) + THREADS),
    ],
}


def steps(workload: str) -> list[Step]:
    return list(WORKLOADS[workload])


def all_steps() -> list[Step]:
    return [s for workload in WORKLOADS.values() for s in workload]


def pin_problems(step: Step, stdout: str) -> list[str]:
    """Disagreements between one step's output and the tests' pinned values."""
    try:
        if step.name == "values-table":
            rows = {}
            for line in stdout.splitlines()[1:]:
                n, vp, vs, vc = line.split(",")[:4]
                rows[int(n)] = (int(vp), int(vs), int(vc))
            return [f"row {n}: {rows.get(n)} != {want}"
                    for n, want in TABLE1.items() if rows.get(n) != want]
        out = json.loads(stdout)
        if step.name == "capture-census":
            return [f"{field} {out[field]} != {CENSUS_TOTAL_1E5}"
                    for field in ("total_values", "values_with_outside_preimage")
                    if out[field] != CENSUS_TOTAL_1E5]
        if step.name == "rl-sum" and out["value"] != RL_SUM_1E6_L3:
            return [f"value {out['value']!r} != {RL_SUM_1E6_L3!r}"]
        if step.name == "simplex-volume-L3" and abs(out["mean"] - V3_EXACT) > 6.0 * out["std_error"]:
            return [f"mean {out['mean']} more than 6 standard errors from {V3_EXACT}"]
        if step.name == "smooth-count" and out["psi_exact"] != PSI_1E7_100:
            return [f"psi_exact {out['psi_exact']} != {PSI_1E7_100}"]
        if step.name == "omega-census" and out["observed"] != OMEGA_TAIL_1E7_15:
            return [f"observed {out['observed']} != {OMEGA_TAIL_1E7_15}"]
        if step.name == "constants" and abs(out["rho"] - RHO_REF) > 1e-15 * RHO_REF:
            return [f"rho {out['rho']!r} != {RHO_REF!r}"]
        return []
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
