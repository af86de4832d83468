"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its stated runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
extended 1e8 table row is non-gating and lives behind the slow marker,
and the 1e9 row behind the frontier marker (`pytest -m frontier`).
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from phisigma import (
    af_params,
    build_value_bitmap,
    capture_census,
    check_comparison_lemma,
    check_poisson_tail,
    classify,
    count_values,
    factorize,
    intersect_count,
    psi_smooth_count,
    sieve_bound_census,
    simplex_volume_exact,
    simplex_volume_mc,
    unit_spec,
    values_table,
)
from phisigma.anatomy import big_omega_range
from phisigma.constants import structure_constants
from phisigma import sieve

from conftest import classify_oracle, factor_pairs_naive, phi_oracle_top, phi_trial, sigma_trial

TABLE1 = {
    10**4: (2374, 2503, 1368),
    10**5: (20254, 21399, 11116),
    10**6: (180184, 189511, 95145),
    10**7: (1634372, 1717659, 841541),
}

TABLE1_1E8 = (15037909, 15784779, 7570480)

TABLE1_1E9 = (139847905, 146622886, 69091721)

RHO_REF = 0.542598586098471

V2_EXACT = 0.46287202527121724  # pinned after first computation
V3_EXACT = 0.07892087143938899


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    line = f"[acceptance] {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)"
    print(line, flush=True)
    assert elapsed <= budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = values_table(sorted(TABLE1))
    for row in rows:
        want = TABLE1[row.N]
        assert (row.v_phi, row.v_sigma, row.v_common) == want, row
    _report("criterion 1 (table counts exact to 1e7)", t0, 120.0)


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
def test_capture_census_at_cap(f_tag):
    c = capture_census(f_tag, 10**7)
    v = TABLE1[10**7][("phi", "sigma").index(f_tag)]
    assert (c.total_values, c.values_with_outside_preimage, c.fraction) == (v, v, 1.0)


@pytest.mark.slow
@pytest.mark.parametrize("threads", [1, 2])
def test_criterion_1_extended_1e8(threads):
    t0 = time.time()
    (row,) = values_table([10**8], threads=threads)
    assert (row.v_phi, row.v_sigma, row.v_common) == TABLE1_1E8
    _report(f"criterion 1 extended (1e8, threads={threads}, non-gating)", t0, 1800.0)


@pytest.mark.frontier
@pytest.mark.parametrize("threads", [1, 2])
def test_criterion_1_frontier_1e9(threads):
    # the counts agree with a step-1 scan of every n in [2, phi_preimage_bound]
    # (phi) and [2, x] (sigma), which uses no classes, tops or closure
    t0 = time.time()
    (row,) = values_table([10**9], threads=threads)
    assert (row.v_phi, row.v_sigma, row.v_common) == TABLE1_1E9
    _report(f"criterion 1 frontier (1e9, threads={threads}, non-gating)", t0, 3600.0)


def test_criterion_2_constants_regression():
    t0 = time.time()
    structure_constants.cache_clear()
    k = structure_constants()
    assert abs(k.rho - RHO_REF) / RHO_REF <= 1e-15
    assert abs(k.f_prime_at_rho - 5.697758) <= 1e-6
    assert abs(k.c_const - 0.817814) <= 1e-6
    assert abs(k.d_const - 2.176968) <= 1e-6
    _report("criterion 2 (rho, F'(rho), C, D digits)", t0, 1.0)


def test_criterion_3_simplex_oracle_equivalence():
    t0 = time.time()
    for L, pinned in ((2, V2_EXACT), (3, V3_EXACT)):
        spec = unit_spec(L)
        exact = simplex_volume_exact(spec)
        assert exact == pytest.approx(pinned, abs=1e-8)
        est = simplex_volume_mc(spec, 10**7, seed=20260809)
        assert abs(est.mean - exact) <= 3.0 * est.std_error, (L, est, exact)
    _report("criterion 3 (MC volume within 3 sigma of exact, L=2,3)", t0, 30.0)


def test_criterion_4_anatomy_oracles():
    t0 = time.time()

    # Psi against brute force: exhaustive small rectangle, then every
    # y <= 100 at a dense ladder of x values up to 1e4
    N = 300
    lpf_small = [0, 1] + [
        max(p for p, _ in factor_pairs_naive(n)) for n in range(2, N + 1)
    ]
    for y in range(2, 21):
        run = 0
        counts = []
        for n in range(1, N + 1):
            run += 1 if lpf_small[n] <= y else 0
            counts.append(run)
        for x in range(1, N + 1, 13):
            assert psi_smooth_count(x, y).psi_exact == counts[x - 1]

    M = 10**4
    lpf = np.zeros(M + 1, dtype=np.int64)
    lpf[1] = 1
    from phisigma import primes_up_to

    for p in primes_up_to(M):
        lpf[p::p] = p
    ladder = [1, 2, 3, 5, 10, 31, 100, 316, 1000, 3162, 9999, 10**4]
    prefix = {x: np.sort(lpf[1 : x + 1]) for x in ladder}
    for y in range(2, 101):
        for x in ladder:
            want = int(np.searchsorted(prefix[x], y, side="right"))
            assert psi_smooth_count(x, y).psi_exact == want

    # Omega-range additivity on a full (U, T, W) grid over many n
    rng = random.Random(1)
    ns = [2**19, 3**10, 510510, 720720] + [rng.randrange(2, 10**6) for _ in range(60)]
    for n in ns:
        fact = factorize(n)
        grid = [1.0 + (n - 1.0) * k / 6.0 for k in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                for k in range(j + 1, 7):
                    U, T, W = grid[i], grid[j], grid[k]
                    assert big_omega_range(fact, U, T) + big_omega_range(
                        fact, T, W
                    ) == big_omega_range(fact, U, W)

    # Poisson tail inequality on the full grid
    for z in (0.3, 0.7, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0, 100.0):
        for a in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95):
            assert check_poisson_tail(z, a)

    observed, _ = sieve_bound_census([(1, 0), (1, 2)], 10**4)
    assert observed == 205
    _report("criterion 4 (psi brute force, additivity, poisson, twins)", t0, 60.0)


def test_criterion_5_property_suite(monkeypatch):
    t0 = time.time()

    # comparison-lemma sampling census: zero violations at 1e5 points
    assert check_comparison_lemma(unit_spec(5), 10**5, seed=20260809)

    # classifier agrees with the independent naive oracle on 1e3
    # random (n, x) pairs
    rng = random.Random(99)
    params_pool = [
        af_params(rng.uniform(3e4, 3e6), rng.uniform(0.05, 0.9))
        for _ in range(20)
    ]
    for _ in range(1000):
        n = rng.randrange(1, 40000)
        f_tag = rng.choice(("phi", "sigma"))
        params = rng.choice(params_pool)
        rep = classify(n, f_tag, params)
        want = classify_oracle(n, f_tag, params)
        if want is None:
            assert not rep.applicable
        else:
            assert rep.cond == want and rep.member == all(want)

    # bitmaps equal the double-loop oracle at x = 1e4
    x = 10**4
    vp = {1}
    for n in range(2, phi_oracle_top(x) + 1):
        v = phi_trial(n)
        if v <= x:
            vp.add(v)
    vs = {1}
    for n in range(2, x + 1):
        v = sigma_trial(n)
        if v <= x:
            vs.add(v)
    bp = build_value_bitmap("phi", x)
    bs = build_value_bitmap("sigma", x)
    assert count_values(bp, x) == len(vp)
    assert count_values(bs, x) == len(vs)
    assert intersect_count(bp, bs, x) == len(vp & vs)
    assert all(bp.test(v) for v in vp) and all(bs.test(v) for v in vs)

    # determinism: segmentation must not change a single byte
    for f_tag in ("phi", "sigma"):
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 14)
        a = build_value_bitmap(f_tag, 10**4)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 13)
        b = build_value_bitmap(f_tag, 10**4)
        assert (a.bits == b.bits).all()

    # determinism: thread counts must not change a single output byte
    for args, threads in (
        (["values-table", "--limits", "1000"], ("1", "8")),
        (["simplex-volume", "--L", "3", "--samples", "2e5", "--seed", "7"], ("1", "8")),
        (["values-table", "--limits", "1e4,1e5"], ("1", "2", "3")),
        (["capture-census", "--f", "phi", "--x", "1e5"], ("1", "2", "3")),
        (["smooth-count", "--x", "1e6", "--y", "100"], ("1", "2", "3")),
        (["omega-census", "--x", "1e6", "--alpha", "1.5"], ("1", "2", "3")),
        (["rl-sum", "--f", "phi", "--x", "1e6", "--L", "3"], ("1", "2", "3")),
    ):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "phisigma.cli"] + args + ["--threads", t],
                capture_output=True,
                text=True,
                timeout=300,
            ).stdout
            for t in threads
        ]
        assert outs[0] and all(out == outs[0] for out in outs), args

    _report("criterion 5 (lemma census, oracle agreement, determinism)", t0, 300.0)
