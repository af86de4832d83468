import math
import os
import random

import numpy as np
import pytest

from phisigma import (
    DomainError,
    Factorization,
    ResourceError,
    build_factor_sieve,
    factorize,
    phi_of,
    primes_up_to,
    segment_map,
    sigma_of,
)
from phisigma import sieve
from phisigma.sieve import SPF_PRIME_SENTINEL, composite_mask, deal_windows
from phisigma.value_sets import scan_progressions

from conftest import (dealt_windows, factor_pairs_naive, joined_scan, phi_trial, scan_dtype,
                      sigma_trial)


def test_primes_up_to_small():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert len(primes_up_to(100)) == 25


def test_primes_up_to_rejects_negative():
    with pytest.raises(DomainError):
        primes_up_to(-1)


def test_factor_sieve_single_prime():
    sv = build_factor_sieve(2, 3)
    assert sv.spf.tolist() == [SPF_PRIME_SENTINEL]
    assert factorize(2, sv).pairs == ((2, 1),)


def test_factor_sieve_window_10_20():
    sv = build_factor_sieve(10, 20)
    assert sv.spf[15 - 10] == 3
    assert sv.spf[17 - 10] == SPF_PRIME_SENTINEL
    assert sv.spf[16 - 10] == 2


def test_factor_sieve_high_window_matches_trial_division():
    lo = 10**6
    sv = build_factor_sieve(lo, lo + 10)
    for n in range(lo, lo + 10):
        smallest = factor_pairs_naive(n)[0][0]
        assert sv.spf[n - lo] == (SPF_PRIME_SENTINEL if smallest == n else smallest)


@pytest.mark.parametrize("x", [3, 4, 7, 8, 16, 17, 1000, 1001, 123456, 1234567])
def test_odd_factor_table_is_the_odd_half_of_the_factor_sieve(x):
    # even x, odd x, and x < 9, where no odd prime is at most isqrt(x + 1)
    # or only 3 is
    tab = sieve.odd_factor_table(x)
    assert tab.dtype == np.int32
    assert np.array_equal(tab, build_factor_sieve(3, x + 1).spf[::2])


def _binades(seed, n, signed=False):
    rng = np.random.default_rng(seed)
    values = np.ldexp(rng.random(n) + 0.5, rng.integers(-1074, 960, n))
    return values * rng.choice([-1.0, 1.0], n) if signed else values


FSUM_CASES = {  # built when a case runs: two of them hold 2 MB
    "binades": lambda: _binades(1, 20000),
    "binades-signed": lambda: _binades(2, 20000, signed=True),
    "subnormals": lambda: np.ldexp(
        np.random.default_rng(3).integers(1, 2**52, 5000).astype(float), -1074),
    "least-subnormal": lambda: np.full(7, 2.0**-1074),
    # exact half-ulp ties: down to even, up past the tie, up to even
    "tie-to-even-down": lambda: np.array([1.0, 2.0**-53]),
    "tie-broken-up": lambda: np.array([1.0, 2.0**-53, 2.0**-106]),
    "tie-to-even-up": lambda: np.array([1.0 + 2.0**-52, 2.0**-53]),
    "tie-to-even-up-large": lambda: np.array([2.0**53 + 2.0, 1.0]),
    "copies-of-one-tenth": lambda: np.full(1 << 18, 0.1),
    "copies-of-all-ones": lambda: np.full(1 << 18, 1.0 - 2.0**-53),  # the widest halves
    "one": lambda: np.array([math.pi]),
    "none": lambda: np.empty(0),
}


@pytest.mark.parametrize("case", FSUM_CASES)
def test_fixed_sum_rounds_to_fsum(case):
    values = FSUM_CASES[case]()
    total = sieve.fixed_sum(values)
    # the exact sum: each value's ratio has a power of 2 below 2^1075 as denominator
    assert total == sum(num * (1 << sieve.SUM_SHIFT) // den
                        for num, den in map(float.as_integer_ratio, values.tolist()))
    assert sieve.fixed_to_float(total).hex() == math.fsum(values.tolist()).hex()


def test_factor_sieve_rejects_bad_window():
    with pytest.raises(DomainError):
        build_factor_sieve(5, 5)
    with pytest.raises(DomainError):
        build_factor_sieve(1, 10)


def test_segment_map_random_high_window_vs_oracle():
    lo = 837421
    phi, sigma = segment_map(lo, lo + 1000, "both")
    for k in range(0, 1000, 7):
        assert phi[k] == phi_trial(lo + k)
        assert sigma[k] == sigma_trial(lo + k)


def test_factorize_examples(small_sieve):
    assert factorize(1, small_sieve).pairs == ()
    assert factorize(12, small_sieve).pairs == ((2, 2), (3, 1))
    assert factorize(97, small_sieve).pairs == ((97, 1),)


FACTORIZE_CASES = (
    [1, 2, 3, 97, 101, 997, 1009, 123457]  # 1 and primes
    + [25, 512, 1024, 729, 343, 1009**2, 2**40, 997**3]  # prime powers
    + [360, 999, 4 * 103, 2 * 3 * 5 * 7 * 11, 8 * 991]  # cofactors leave [100, 1000)
    + [1000, 10**6 + 3, 3 * 1009 * 1013, 2 * 999983, 999983 * 1000003]  # above both windows
)


@pytest.mark.parametrize("window", [(2, 1000), (100, 1000), None],
                         ids=["from-2", "from-100", "no-sieve"])
def test_factorize_equals_naive(window):
    sv = None if window is None else build_factor_sieve(*window)
    for n in FACTORIZE_CASES:
        assert factorize(n, sv).pairs == tuple(factor_pairs_naive(n)), n


def test_factorize_out_of_window():
    # n below, inside and above the window [10, 20) all factor correctly
    sv = build_factor_sieve(10, 20)
    for n in (1, 3, 9, 12, 17, 20, 25, 10**6 + 3):
        assert factorize(n, sv) == factorize(n), n
        assert factorize(n, sv).pairs == tuple(factor_pairs_naive(n)), n


def test_factor_agrees_with_and_without_sieve():
    sv = build_factor_sieve(100, 1000)
    for n in (1, 2, 97, 100, 360, 997, 999, 1000, 1024, 123457):
        got = factorize(n, sv)
        assert got == factorize(n), n
        assert got.pairs == tuple(factor_pairs_naive(n)), n


def test_factorize_rejects_nonpositive():
    for n in (0, -12):
        with pytest.raises(DomainError):
            factorize(n)
        with pytest.raises(DomainError):
            factorize(n, build_factor_sieve(2, 100))


def test_factorize_in_high_window_without_full_table():
    # quotients leave the window; trial division finishes
    sv = build_factor_sieve(10**6, 10**6 + 100)
    for n in (10**6, 10**6 + 3, 10**6 + 81):
        fact = factorize(n, sv)
        assert fact.n == n
        assert fact.pairs == tuple(factor_pairs_naive(n))


def test_factorization_invariants_reject_garbage():
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)))  # not ascending
    with pytest.raises(DomainError):
        Factorization(((2, 0),))


def test_phi_sigma_of_examples():
    one = Factorization(())
    assert phi_of(one) == 1 and sigma_of(one) == 1
    ten = factorize(10)
    assert phi_of(ten) == 4 and sigma_of(ten) == 18
    p101 = factorize(101)
    assert phi_of(p101) == 100 and sigma_of(p101) == 102


def test_segment_map_examples():
    phi, sigma = segment_map(2, 6, "both")
    assert phi.tolist() == [1, 2, 2, 4]
    assert sigma.tolist() == [3, 4, 7, 6]
    assert segment_map(2, 3, "phi").tolist() == [1]


def test_segment_map_exhaustive_to_1e5():
    phi, sigma = segment_map(2, 10**5 + 1, "both")
    for n in range(2, 10**5 + 1, 997):  # dense spot checks against trial division
        assert phi[n - 2] == phi_trial(n)
        assert sigma[n - 2] == sigma_trial(n)
    # full equality against an independently coded vector oracle
    N = 10**5
    phi_o = np.arange(N + 1, dtype=np.int64)
    for p in primes_up_to(N):
        phi_o[p::p] -= phi_o[p::p] // int(p)
    assert (phi == phi_o[2:]).all()
    sig_o = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        sig_o[d::d] += d
    assert (sigma == sig_o[2:]).all()


def test_phi_sigma_prime_characterization():
    phi, sigma = segment_map(2, 10**4 + 1, "both")
    n = np.arange(2, 10**4 + 1, dtype=np.int64)
    prime_mask = np.zeros(10**4 + 1, dtype=bool)
    prime_mask[primes_up_to(10**4)] = True
    assert (phi <= n - 1).all()
    assert ((phi == n - 1) == prime_mask[2:]).all()
    assert (sigma >= n + 1).all()
    assert ((sigma == n + 1) == prime_mask[2:]).all()


def test_multiplicativity_on_coprime_pairs(small_sieve):
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(2, 1000)
        n = rng.randrange(2, 1000)
        if math.gcd(m, n) != 1:
            continue
        fm, fn, fmn = (factorize(v, small_sieve) for v in (m, n, m * n))
        assert phi_of(fmn) == phi_of(fm) * phi_of(fn)
        assert sigma_of(fmn) == sigma_of(fm) * sigma_of(fn)


def test_segment_independence():
    lo, hi, mid = 1000, 5000, 2718
    whole_phi, whole_sig = segment_map(lo, hi, "both")
    a_phi, a_sig = segment_map(lo, mid, "both")
    b_phi, b_sig = segment_map(mid, hi, "both")
    assert (whole_phi == np.concatenate([a_phi, b_phi])).all()
    assert (whole_sig == np.concatenate([a_sig, b_sig])).all()


def test_segment_scan_omega_against_trial_division():
    got = joined_scan(2, 2001, want_omega=True)["omega"]
    for n in range(2, 2001):
        assert got[n - 2] == sum(e for _, e in factor_pairs_naive(n)), n


SCAN_MODES = {
    "phi": {"want_phi": True},
    "sigma": {"want_sigma": True},
    "omega": {"want_omega": True},
    "smooth": {"smooth_bound": 7},
}


@pytest.mark.parametrize("step", [1, 2, 3, 4, 6, 12, 30])
@pytest.mark.parametrize("lo", [2, 3, 4, 12, 30, 60, 97, 360, 837421, 10**6])
@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_segment_scan_progression_matches_full_window(mode, lo, step):
    # lo runs through values sharing every factor of the steps (2, 3, 5)
    for hi in (lo + 1, lo + step, lo + 2 * step + 1, lo + 997):
        full = joined_scan(lo, hi, **SCAN_MODES[mode])
        prog = joined_scan(lo, hi, step, **SCAN_MODES[mode])
        assert full.keys() == prog.keys()
        for key, want in full.items():
            last = lo + (hi - 1 - lo) // step * step
            assert prog[key].dtype == scan_dtype(key, last, SCAN_MODES[mode])
            assert np.array_equal(prog[key], want[::step]), (key, hi)


@pytest.mark.parametrize("step", [2, 4, 9, 30])
def test_segment_scan_progression_vs_trial_division(step):
    lo = 837421 - 837421 % step + step  # a multiple of step
    got = joined_scan(lo, lo + 500 * step, step, want_phi=True, want_sigma=True,
                      want_omega=True)
    for k in range(0, 500, 3):
        n = lo + k * step
        assert got["phi"][k] == phi_trial(n)
        assert got["sigma"][k] == sigma_trial(n)
        assert got["omega"][k] == sum(e for _, e in factor_pairs_naive(n))


def test_deal_rejects_bad_progressions_before_any_charge(monkeypatch):
    charged = []
    monkeypatch.setattr(sieve, "check_allocation", lambda nbytes, what: charged.append(what))
    for progressions in ([(2, 0, 10)], [(2, -1, 10)], [(1, 1, 10)], [(0, 2, 10)]):
        with pytest.raises(DomainError):
            deal_windows(progressions, 1, what="test scan", want_phi=True)
    # the cap is checked before any window is cut, so a far top costs nothing
    cut = []
    monkeypatch.setattr(sieve, "cut_windows", lambda progressions: cut.append(progressions) or [])
    for top in (10**12 + 2, 10**400):
        with pytest.raises(ResourceError):
            deal_windows([(10**12 - 4, 2, top)], 1, what="test scan", want_phi=True)
    assert not charged and not cut


@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("size", [1, 97, 1 << 14])
@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_dealt_windows_concatenate_to_one_scan(monkeypatch, mode, size, step):
    start, top = 3, 3000 if size == 1 else 150_000
    want = SCAN_MODES[mode]
    whole = joined_scan(start, top + 1, step, **want)  # one window
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
    windows = [(lo, got) for lo, _, got in dealt_windows([(start, step, top)], **want)]
    elements = len(range(start, top + 1, step))
    assert len(windows) == -(-elements // size)
    assert [lo for lo, _ in windows] == list(range(start, top + 1, step * size))
    for key, arr in whole.items():
        assert np.array_equal(np.concatenate([got[key] for _, got in windows]), arr)


@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_dealt_windows_fill_one_workspace(monkeypatch, mode):
    # a return to per-window allocation would give the next window fresh memory
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 97)
    run = deal_windows([(3, 1, 1000)], 1, what="test scan", **SCAN_MODES[mode])
    first, *later = run(lambda lo, step, got: dict(got))
    assert len(later) == 10
    for got in later:
        assert got.keys() == first.keys()
        for key, arr in got.items():
            assert np.shares_memory(arr, first[key]), key


@pytest.mark.parametrize("start, top, step",
                         [(3, 1000, 1), (7, 7, 1), (4, 4000, 4), (10**6 + 1, 10**6 + 4001, 2)])
@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_dealt_windows_equal_fresh_scans(monkeypatch, mode, start, top, step):
    # a ragged last window, a one-element progression, step 4 and base
    # primes in the large-prime pass, each window of a reused workspace
    # against a one-window deal of its range on a fresh one
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 97)
    want = SCAN_MODES[mode]
    for lo, _, got in dealt_windows([(start, step, top)], **want):
        fresh = joined_scan(lo, min(lo + 97 * step, top + 1), step, **want)
        assert got.keys() == fresh.keys()
        for key, arr in fresh.items():
            last = start + (top - start) // step * step  # the deal's last integer
            assert got[key].dtype == scan_dtype(key, last, want)
            assert np.array_equal(got[key], arr), (lo, key)


@pytest.mark.parametrize("size", [None, 97])
@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_dealt_windows_of_many_progressions_equal_fresh_scans(monkeypatch, mode, size):
    # phi's classes mod 90 and 450, an empty progression, and a short
    # one after the long ones, on one workspace: each window against a
    # one-window deal of its range
    if size is not None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
    size = sieve.DEFAULT_SEGMENT_SIZE
    progressions = scan_progressions("phi", 10**5) + [(50, 90, 10), (1000, 90, 1200)]
    want = SCAN_MODES[mode]
    expect = [(lo, step, min(lo + step * size, top + 1)) for start, step, top in progressions
              for lo in range(start, top + 1, step * size)]
    got = dealt_windows(progressions, **want)
    for (lo, step, hi), (first, got_step, scan) in zip(expect, got, strict=True):
        assert (first, got_step) == (lo, step)
        fresh = joined_scan(lo, hi, step, **want)
        assert scan.keys() == fresh.keys()
        for key, arr in fresh.items():
            assert np.array_equal(scan[key], arr), (lo, step, key)


@pytest.mark.parametrize("size", [None, 97])
def test_segment_map_returns_arrays_it_owns(monkeypatch, size):
    # the deal overwrites its workspace at every window; segment_map
    # copies each window out, so later calls leave its arrays alone
    if size is not None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
    phi, sigma = segment_map(1000, 2000, "both")
    kept = phi.copy(), sigma.copy()
    later = segment_map(3000, 4000, "both") + (segment_map(3000, 4000, "phi"),)
    assert not any(np.shares_memory(a, b) for a in (phi, sigma) for b in later)
    assert not np.shares_memory(phi, sigma)
    assert np.array_equal(phi, kept[0]) and np.array_equal(sigma, kept[1])


def test_dealt_windows_edges(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 4)
    assert dealt_windows([(10, 1, 9)], want_phi=True) == []
    [(lo, _, got)] = dealt_windows([(7, 1, 7)], want_phi=True)
    assert lo == 7 and got["phi"].tolist() == [6]


@pytest.mark.parametrize("threads", [1, 2])
def test_deal_of_several_steps_equals_one_deal_per_step(monkeypatch, threads):
    # each window of a deal reads its own step's inverse table, and the
    # tiny band reaches every step's primes (29 for step 58): a deal of
    # several steps yields, window for window, the arrays of one deal per
    # step; an empty progression adds no window
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 10)
    progressions = [(91, 90, 10**6), (275, 450, 10**6), (3, 2, 5001), (50, 7, 10),
                    (59, 58, 2 * 10**5), (10**6 + 1, 30, 10**6 + 9000)]
    want = dict(want_phi=True, want_sigma=True, want_omega=True)

    def windows(progressions, threads):
        run = deal_windows(progressions, threads, what="test scan", **want)
        got = run(lambda first, step, scan: ((first, step), {k: a.copy() for k, a in scan.items()}))
        return dict(got)

    together = windows(progressions, threads)
    apart = {}
    for step in {s for _, s, _ in progressions}:
        apart.update(windows([p for p in progressions if p[1] == step], 1))
    assert together.keys() == apart.keys() and len(together) > 6
    for window, scan in together.items():
        for key, arr in scan.items():
            other = apart[window][key]
            assert arr.dtype == other.dtype and np.array_equal(arr, other), (window, key)


def test_input_cap_enforced():
    from phisigma import ResourceError

    with pytest.raises(ResourceError):
        segment_map(10**12 + 10, 10**12 + 20, "phi")
    for limit in (10**12 + 1, 10**400):  # refused before its count bound overflows a float
        with pytest.raises(ResourceError, match="input cap"):
            primes_up_to(limit)


def test_memory_budget_env_var(monkeypatch):
    from phisigma import ResourceError
    from phisigma.errors import MEMORY_BUDGET_ENV

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1000")
    with pytest.raises(ResourceError):
        primes_up_to(10**6)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1e9")
    assert len(primes_up_to(10**6)) == 78498


def test_composite_mask_marks_exactly_the_nonprimes():
    for limit in (0, 1, 2, 3, 100, 9973):
        mask = composite_mask(limit)
        assert len(mask) == limit + 1
        want = [n < 2 or any(n % d == 0 for d in range(2, math.isqrt(n) + 1))
                for n in range(limit + 1)]
        assert mask.tolist() == want
    with pytest.raises(DomainError):
        composite_mask(-1)
