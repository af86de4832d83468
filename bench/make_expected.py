"""Write expected.json: the stdout of every step of every workload.

    python3 bench/make_expected.py

Run it from a checkout of the commit whose outputs are the reference (the
outputs are meant never to change).  Every output is cross-checked
against the values the test suite pins before anything is written.
"""

from __future__ import annotations

import json
import sys

from child import run
from run import EXPECTED, ROOT
from workloads import all_steps, pin_problems


def main() -> int:
    steps = {s.key: s for s in all_steps()}
    got = run(ROOT, [[s.name, list(s.argv)] for s in steps.values()], False)
    expected, bad = {}, []
    for step, result in zip(steps.values(), got["steps"]):
        if result["rc"] != 0:
            bad.append(f"{step.key}: exit {result['rc']} {result['error'] or ''}")
            continue
        bad += [f"{step.key}: {p}" for p in pin_problems(step, result["stdout"])]
        expected[step.key] = result["stdout"]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(expected)} outputs to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
