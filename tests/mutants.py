"""Mutation runner: every mutant must be caught by the tests named for it.

A mutant is (file under src/phisigma, exact old text, new text, test node
ids).  For each one, src/ is copied to a temporary directory, the old
text must occur exactly once in the copied file, it is replaced there, and
only the listed tests are run against the copy (PYTHONPATH points at it),
two mutants at a time.
A mutant whose tests all pass survives.  Before any mutant, the same tests
run against an unchanged copy and must pass, so that a broken environment
cannot pass for killed mutants.

    python tests/mutants.py

Exit status 0 when every mutant is killed, 1 when any survives, 2 when a
mutant's old text is not found exactly once or the unchanged copy fails.
pytest does not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINS = "tests/test_per_integer_pins.py"
GRID_SCAN = "tests/test_anatomy.py::test_s_normal_window_flags_match_grid_scan"
FSUM = "tests/test_sieve.py::test_fixed_sum_rounds_to_fsum"
MUTANTS = [
    ("anatomy.py", "(t == u and b <= a)", "(t == u and b < a)",
     [f"{PINS}::test_s_normal_reports_pinned"]),
    ("anatomy.py", "ends += [(p, llp, p, i + 1),", "ends += [(p, llp, p, i),",
     [GRID_SCAN, f"{PINS}::test_s_normal_reports_pinned"]),
    ("anatomy.py", "(p, llp, math.nextafter(p, 0.0), i)", "(p, llp, p, i)",
     [f"{PINS}::test_s_normal_reports_pinned"]),
    ("sieve.py", "        d = p + 2\n", "        d = p + 4\n",
     ["tests/test_sieve.py::test_factorize_equals_naive",
      "tests/test_sieve.py::test_factorize_out_of_window"]),
    ("classifier.py", 'if f_tag == "phi" and n > 2 * X * X:', "if False:",
     ["tests/test_cli.py::test_classify_large_prime_decided_before_any_trial_division"]),
    ("classifier.py", "n > 2 * X * X:", "n > X:",
     ["tests/test_classifier.py::test_classify_bound_from_n_alone_keeps_n_of_small_phi"]),
    ("classifier.py", 'if f_tag == "sigma" and n >= X:', "if False:",
     ["tests/test_classifier.py::test_classify_refuses_trial_division_past_the_input_cap"]),
    ("anatomy.py", "math.lgamma(k0 + 1) < exponent", "math.lgamma(k0 + 1) >= exponent",
     ["tests/test_anatomy.py::test_poisson_tail_grid"]),
    # the premises of what the (7) lemma and the input cap made dead
    ("classifier.py", "if n > INPUT_CAP:", "if False:",
     ["tests/test_classifier.py::test_classify_refuses_trial_division_past_the_input_cap"]),
    ("classifier.py", "if x > INPUT_CAP:", "if False:",
     ["tests/test_cli.py::test_every_flag_at_its_extremes[capture-census--x=1e400]"]),
    ("anatomy.py", "x.bit_length()))", "x.bit_length() - 3))",
     ["tests/test_anatomy.py::test_omega_census_lift_matches_trial_division[1]"]),
    # r_l_sum's exact sum and its odd factor table
    ("sieve.py", "((int(his[b]) << 26) + int(los[b]))", "(int(his[b]) << 26)",
     [f"{FSUM}[binades]"]),
    ("sieve.py", "ex += SUM_SHIFT - 53", "ex += SUM_SHIFT - 52", [f"{FSUM}[binades]"]),
    ("sieve.py", "tab[(p - 3) // 2 :: p] = p", "tab[(p - 1) // 2 :: p] = p",
     ["tests/test_sieve.py::test_odd_factor_table_is_the_odd_half_of_the_factor_sieve[1001]"]),
    ("sieve.py", "return total / (1 << SUM_SHIFT)",  # truncated to 53 bits, not rounded
     "return math.ldexp(total >> (k := max(total.bit_length() - 53, 0)), k - SUM_SHIFT)",
     [f"{FSUM}[tie-broken-up]"]),
]

RUN_TIMEOUT = 300  # seconds; a mutant whose tests hang this long is killed


def run_tests(src: Path, tests: list[str]) -> tuple[bool, str]:
    """Run the tests against the package under src; (passed, last output line)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {RUN_TIMEOUT} s"
    lines = r.stdout.strip().splitlines()
    return r.returncode == 0, lines[-1] if lines else r.stderr.strip()[-200:]


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_mutant(mutant) -> tuple[str, str]:
    """('killed' | 'survived' | 'bad', what the tests said)."""
    name, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="phisigma-mutant-") as tmp:
        path = copy_src(Path(tmp)) / "phisigma" / name
        text = path.read_text()
        if text.count(old) != 1:
            return "bad", f"old text occurs {text.count(old)} times in {name}"
        path.write_text(text.replace(old, new))
        passed, said = run_tests(path.parent.parent, tests)
    return ("survived" if passed else "killed"), said


def main() -> int:
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="phisigma-control-") as tmp:
        tests = sorted({t for *_, ts in MUTANTS for t in ts})
        passed, said = run_tests(copy_src(Path(tmp)), tests)
    if not passed:
        print(f"the unchanged copy fails its tests: {said}")
        return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run_mutant, MUTANTS))
    for (name, old, new, _), (verdict, said) in zip(MUTANTS, outcomes):
        print(f"{verdict:8} {name}: {old.strip()!r} -> {new.strip()!r}  ({said})")
    survivors = sum(v == "survived" for v, _ in outcomes)
    bad = sum(v == "bad" for v, _ in outcomes)
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {bad} not applied, "
          f"{time.monotonic() - t0:.1f} s")
    return 2 if bad else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
