"""segment_scan against the all-strided oracle, and its memory charge.

segment_scan slices the tiny base primes at every power; every power
of the others is sliced when it hits the window at least SLICE_HITS
times and goes through one vectorized pair pass per exponent otherwise.
segment_scan_strided (reference_loops.py) slices every prime on its
own.  Both must agree exactly (==) in every mode.
"""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from phisigma import ResourceError, anatomy, sieve, structure, value_sets
from phisigma.errors import MEMORY_BUDGET_ENV
from phisigma.sieve import DEFAULT_SEGMENT_SIZE, SLICE_HITS, deal_windows, primes_up_to

from conftest import (big_omega_trial, dealt_windows, joined_scan, phi_trial, scan_dtype,
                      sigma_trial)
from reference_loops import segment_scan_strided

MODES = {
    "phi": {"want_phi": True},
    "sigma": {"want_sigma": True},
    "omega": {"want_omega": True},
    "phi+sigma+omega": {"want_phi": True, "want_sigma": True, "want_omega": True},
}

PRIMES = primes_up_to(10**6).tolist()
# the last prime sliced in a full window, and the first paired there
P_AT = max(p for p in PRIMES if p <= DEFAULT_SEGMENT_SIZE // SLICE_HITS)
P_NEXT = PRIMES[PRIMES.index(P_AT) + 1]
P_AFTER = PRIMES[PRIMES.index(P_AT) + 2]


def assert_scan_equal(lo, hi, step, want, base=None):
    # the deal sieves base primes to the same bound: sqrt of the last
    # element, or smooth_bound
    size = (hi - lo + step - 1) // step
    if base is None:
        base = primes_up_to(math.isqrt(lo + (size - 1) * step))
    got = joined_scan(lo, hi, step, **want)
    ref = segment_scan_strided(lo, hi, base, step=step, **want)
    assert got.keys() == ref.keys()
    for key, arr in ref.items():
        assert got[key].dtype == scan_dtype(key, lo + (size - 1) * step, want)
        assert np.array_equal(got[key], arr), (lo, hi, step, key)
    return got


def _windows_equal_oracle(monkeypatch, top, size, step, want, start=None):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
    if start is None:
        start = 2 if step < 4 else 4
    whole = segment_scan_strided(start, top + 1, primes_up_to(math.isqrt(top)),
                                 step=step, **want)
    windows = [(lo, got) for lo, _, got in dealt_windows([(start, step, top)], **want)]
    assert len(windows) == -(-len(range(start, top + 1, step)) // size)
    for key, arr in whole.items():
        assert np.array_equal(np.concatenate([got[key] for _, got in windows]), arr), key


@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_to_1e6(monkeypatch, mode, step):
    _windows_equal_oracle(monkeypatch, 10**6, sieve.DEFAULT_SEGMENT_SIZE, step, MODES[mode])


# the phi scan's wheel steps: starts divisible by 3, by 5, by 15 and by neither
WHEEL_STARTS = {30: {"3": 3, "5": 5, "15": 15, "coprime": 7},
                60: {"3": 12, "5": 20, "15": 60, "coprime": 4},
                90: {"3": 9, "5": 5, "15": 45, "coprime": 7}}


@pytest.mark.parametrize("size", [4096, 1 << 18])
@pytest.mark.parametrize("divisor", ["3", "5", "15", "coprime"])
@pytest.mark.parametrize("step", [30, 60, 90])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_wheel_steps(monkeypatch, mode, step, divisor, size):
    _windows_equal_oracle(monkeypatch, 10**6, size, step, MODES[mode],
                          start=WHEEL_STARTS[step][divisor])


@pytest.mark.slow
@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_to_1e7(monkeypatch, mode, step):
    _windows_equal_oracle(monkeypatch, 10**7, sieve.DEFAULT_SEGMENT_SIZE, step, MODES[mode])


@pytest.mark.slow
@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_97_windows_to_1e6(monkeypatch, mode, step):
    _windows_equal_oracle(monkeypatch, 10**6, 97, step, MODES[mode])


@pytest.mark.parametrize("size", [1, 97])
@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_small_windows(mode, step, size):
    # windows of 1 and 97 elements at spread-out starts in [2, 1e6]: most
    # large primes miss such a window, the others hit it once
    rng = np.random.default_rng(size * 10 + step)
    for lo in rng.integers(2, 10**6, 60).tolist():
        assert_scan_equal(lo, lo + size * step, step, MODES[mode])


@pytest.mark.parametrize("step", [1, 2, 30, 90])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_pass_equals_strided_64_element_windows(mode, step):
    # a window of 64 elements near 1e8 pairs every power above the tiny
    # band: none hits it SLICE_HITS times
    assert 64 // SLICE_HITS < 29
    rng = np.random.default_rng(64 + step)
    for lo in rng.integers(10**8 - 10**7, 10**8, 20).tolist():
        assert_scan_equal(lo, lo + 64 * step, step, MODES[mode])


@pytest.mark.parametrize("hits", [512, 8])
@pytest.mark.parametrize("step", [1, 2, 30, 90])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_lifted_powers_sliced_in_long_windows(monkeypatch, mode, step, hits):
    # in 2^20-element windows the squares of 29..43 hit SLICE_HITS = 512
    # times or more, and at 8 hits the cubes too: they are sliced from the
    # lifted loop, sigma dividing out 1 + p (+ p^2) on a slice
    size = 1 << 20
    monkeypatch.setattr(sieve, "SLICE_HITS", hits)
    assert 43**2 <= size // 512 < 47**2 and 43**3 <= size // 8
    start = {1: 2, 2: 3}.get(step, 7)
    _windows_equal_oracle(monkeypatch, start + step * (size - 1), size, step, MODES[mode],
                          start=start)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_prime_square_above_threshold(mode):
    # p^2, p^3 and p^2 * q with p, q in the pass; the values by trial division
    p, q = P_NEXT, P_AFTER
    for n in (p * p, 2 * p * p, p**3, p * p * q, 3 * p**3):
        for step in (1, 2):
            lo = n - 5 * step
            got = assert_scan_equal(lo, lo + 11 * step, step, MODES[mode])
            if "phi" in got:
                assert got["phi"][5] == phi_trial(n)
            if "sigma" in got:
                assert got["sigma"][5] == sigma_trial(n)
            if "omega" in got:
                assert got["omega"][5] == big_omega_trial(n)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_two_large_primes_on_one_index(mode):
    p, q = P_NEXT, P_AFTER
    big = PRIMES[-1]  # the largest prime below 1e6
    for n in (p * q, 4 * p * q, p * q * 1117, p * big, p * q * P_AT):
        lo = n - 40
        got = assert_scan_equal(lo, lo + 97, 1, MODES[mode])
        if "phi" in got:
            assert got["phi"][40] == phi_trial(n)
        if "sigma" in got:
            assert got["sigma"][40] == sigma_trial(n)
        if "omega" in got:
            assert got["omega"][40] == big_omega_trial(n)


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_two_squared_large_primes_on_one_index(mode, step):
    # two pairs reach round 2 on one index: sigma's exact divisions by
    # 1 + p and 1 + q must both land on it
    p, q, r = P_NEXT, P_AFTER, PRIMES[PRIMES.index(P_AFTER) + 1]
    for n in (p * p * q * q, 2 * p * p * q * q, q * q * r * r):
        lo = n - 5 * step
        got = assert_scan_equal(lo, lo + 11 * step, step, MODES[mode])
        if "phi" in got:
            assert got["phi"][5] == phi_trial(n)
        if "sigma" in got:
            assert got["sigma"][5] == sigma_trial(n)
        if "omega" in got:
            assert got["omega"][5] == big_omega_trial(n)


@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_primes_at_and_above_threshold(mode, step):
    # windows too short to slice any prime above the tiny band, around
    # the primes on either side of a full window's edge (see
    # test_band_edges_in_full_windows); each must be divided out exactly
    # once, including as squares
    for p in (P_AT, P_NEXT):
        for n in (p * p, 4 * p * p, p * 1031 * 4):
            lo = n - 8 * step
            assert_scan_equal(lo, lo + 17 * step, step, MODES[mode])
    lo = 4 * P_AT * P_NEXT
    assert_scan_equal(lo, lo + 1000 * step, step, MODES[mode])


def assert_values_at(n, step, want, base=None, size=81):
    """n as element `back` of a window of `size` elements of step `step`
    (up to size // 2 of them before n), equal to the oracle, and phi,
    sigma and Omega of n by trial division."""
    back = min(size // 2, (n - 2) // step)
    lo = n - back * step
    got = assert_scan_equal(lo, lo + size * step, step, want, base)
    for key, value in (("phi", phi_trial), ("sigma", sigma_trial), ("omega", big_omega_trial)):
        if key in got:
            assert got[key][back] == value(n), (n, step, key)


# the last tiny prime, the first and last prime a full window slices at
# their first power, the first two it pairs; an 81-element window pairs all
# but the first
BAND_EDGES = [sieve.TINY_PRIME_THRESHOLD, 29, P_AT, P_NEXT, P_AFTER]


@pytest.mark.parametrize("step", [1, 2, 30, 90])
@pytest.mark.parametrize("mode", ["phi", "phi+sigma+omega"])
def test_band_edges_to_the_fourth_power(mode, step):
    # p^j || n for j up to 4, alone and beside a square or cube of another
    # band; the narrow lane below (2^32 - 1)/7, the wide one above
    assert BAND_EDGES[:2] == [23, 29] and BAND_EDGES[2:] == [509, 521, 523]
    for p in BAND_EDGES:
        for j in range(1, 5):
            for n in (p**j, 4 * p**j, 29**2 * p**j, 23**3 * p**j, 7 * 521**2 * p**j):
                if n <= 10**12:
                    assert_values_at(n, step, MODES[mode])


@pytest.mark.parametrize("step", [1, 2, 30, 90])
def test_band_edges_in_full_windows(step):
    # a full window slices P_AT and pairs P_NEXT at j = 1, and pairs both
    # from j = 2 on (29^2 > DEFAULT_SEGMENT_SIZE // SLICE_HITS)
    assert 29**2 > DEFAULT_SEGMENT_SIZE // SLICE_HITS >= P_AT
    for p in (P_AT, P_NEXT):
        for j in (1, 2, 3):
            for n in (p**j, 29**2 * p**j):
                assert_values_at(n, step, MODES["phi+sigma+omega"], size=DEFAULT_SEGMENT_SIZE)


@pytest.mark.parametrize("step", [1, 2, 30, 90])
def test_sigma_two_higher_powers_on_one_index(step):
    # sigma's exact divisions by 1 + ... + p^(j-1) and 1 + ... + q^(i-1)
    # land on one index, for p and q in one band and in two
    pairs = [(23, 29), (29, 31), (29, 509), (509, P_NEXT), (29, P_NEXT), (P_NEXT, P_AFTER)]
    for p, q in pairs:
        for a in (2, 3, 4):
            for b in (2, 3):
                if p**a * q**b <= 10**12:
                    assert_values_at(p**a * q**b, step, MODES["sigma"])


@pytest.mark.parametrize("step", [1, 2, 30, 90])
def test_higher_powers_near_the_cap_past_2_32(step):
    # on the wide lane, p^j with p^2 > 2^32, and the squares and the third
    # and fourth powers of primes that reach 10^12
    base = primes_up_to(10**6)
    big = PRIMES[-1]  # the largest prime below 1e6
    assert big**2 > 2**32
    half = max(p for p in PRIMES if 2 * p * p <= 10**12)
    for n in (big**2, 2 * half**2, 9973**3, 997**4, 997**2 * 991**2, 29**2 * 33301**2):
        assert n <= 10**12
        assert_values_at(n, step, MODES["phi+sigma+omega"], base)


def test_window_ending_at_the_input_cap():
    base = primes_up_to(10**6)
    for mode, want in MODES.items():
        assert_scan_equal(10**12 - 300, 10**12 + 1, 1, want, base)
        got = assert_scan_equal(10**12 - 600, 10**12 + 1, 2, want, base)
        if "phi" in got:  # 10^12 = 2^12 5^12
            assert got["phi"][-1] == 4 * 10**11
        if "omega" in got:
            assert got["omega"][-1] == 24
    assert_scan_equal(10**12 - 96, 10**12 + 1, 4, {"smooth_bound": 10**6}, base)


def test_smooth_bound_above_threshold_matches_strided():
    base = primes_up_to(5000)
    for lo, step in ((2, 1), (3, 2), (10**6, 4)):
        assert_scan_equal(lo, lo + 5000 * step, step, {"smooth_bound": 5000}, base)


def test_fold_returns_smooth_remainder_intact():
    # the fold reads rem for Omega, sigma and phi in turn and restores it
    # each time; smooth mode returns it
    base = primes_up_to(5000)
    want = {"smooth_bound": 5000, **MODES["phi+sigma+omega"]}
    for lo, step in ((2, 1), (3, 30), (60, 60)):
        got = assert_scan_equal(lo, lo + 5000 * step, step, want, base)
        assert (got["rem"] == joined_scan(lo, lo + 5000 * step, step,
                                          smooth_bound=5000)["rem"]).all()


# --- lanes: uint32 exactly while every value fits, exact on both sides ------

LANE_MODES = {"phi": MODES["phi"], "omega": MODES["omega"], "smooth": {"smooth_bound": 5000}}


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("last", [2**32 - 2, 2**32 - 1, 2**32])
@pytest.mark.parametrize("mode", sorted(LANE_MODES))
def test_lane_boundary_at_2_32(mode, last, step):
    # rem and phi reach top + 1: the last window on the narrow lane ends
    # at 2^32 - 2
    want = LANE_MODES[mode]
    lo = last - 300 * step
    base = primes_up_to(5000) if mode == "smooth" else None
    got = assert_scan_equal(lo, last + 1, step, want, base)
    if mode != "omega":  # Omega is int16 on both lanes
        key = "rem" if mode == "smooth" else mode
        assert got[key].dtype == (np.uint32 if last < 2**32 - 1 else np.int64)


SIGMA_TOP = (2**32 - 1) // 7  # sigma(n) < 7n: the last top of sigma's narrow lane


@pytest.mark.parametrize("last", [SIGMA_TOP - 1, SIGMA_TOP, SIGMA_TOP + 1])
@pytest.mark.parametrize("mode", ["sigma", "phi+sigma+omega"])
def test_lane_boundary_for_sigma(mode, last):
    for step in (1, 2, 30):
        got = assert_scan_equal(last - 300 * step, last + 1, step, MODES[mode])
        assert got["sigma"].dtype == (np.uint32 if last <= SIGMA_TOP else np.int64)


@pytest.mark.parametrize("n", [4 * 521**3, 30 * 521**3])
@pytest.mark.parametrize("mode", sorted(MODES) + ["smooth"])
def test_prime_power_row_past_the_narrow_lane(mode, n):
    # 521 is in the pass, and at n = c 521^3 < 2^32 its round 3 reads
    # 521^4 > 2^32 from the power row, to test n mod 521^4 and to find
    # sigma's divisor 1 + 521 + 521^2: that row must not wrap.  Every
    # window here is narrow but sigma's at 30 521^3 > (2^32 - 1)/7.
    assert P_NEXT <= 521 and 521**4 > 2**32 > n
    want = MODES.get(mode, {"smooth_bound": 5000})
    base = primes_up_to(5000) if mode == "smooth" else None
    for step in (1, 2, 30):
        lo = n - 40 * step
        got = assert_scan_equal(lo, lo + 81 * step, step, want, base)
        if "phi" in got:
            assert got["phi"][40] == phi_trial(n)
        if "sigma" in got:
            assert got["sigma"][40] == sigma_trial(n)
        if "omega" in got:
            assert got["omega"][40] == big_omega_trial(n)
        if "rem" in got:
            assert got["rem"][40] == 1


@pytest.mark.parametrize("y", [2**32 - 1, 2**32, 2**40])
def test_smooth_count_with_y_past_the_narrow_lane(y):
    # x < 2^32 scans on the narrow lane; every remainder is <= x <= y
    x = 10**5
    assert anatomy.psi_smooth_count(x, y).psi_exact == x


# --- memory: the traced peak stays within what was charged -----------------

LANES = {"narrow": 10**7 + 1, "wide": 5 * 10**9 + 1}  # starts of uint32 and int64 deals
# every mode on both lanes; a narrow case keeps the mode as its id
LANE_CASES = [pytest.param(mode, lo, id=mode if lane == "narrow" else f"{mode}-{lane}")
              for lane, lo in LANES.items() for mode in sorted(MODES) + ["smooth"]]


@pytest.fixture
def charges(monkeypatch):
    """The bytes of every check_allocation made by sieve, anatomy and structure
    (value_sets charges through sieve.deal_windows)."""
    seen = []
    original = sieve.check_allocation

    def record(nbytes, what):
        seen.append(nbytes)
        original(nbytes, what)

    for mod in (sieve, anatomy, structure):
        monkeypatch.setattr(mod, "check_allocation", record)
    return seen


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode, lo", LANE_CASES)
def test_segment_scan_peak_within_charge(monkeypatch, charges, mode, lo):
    # one full window on a fresh workspace, within the deal's charge
    want = MODES.get(mode, {"smooth_bound": 5000})
    size = sieve.DEFAULT_SEGMENT_SIZE
    scan = deal_windows([(lo, 2, lo + 2 * (size - 1))], 1, what="test scan", **want)
    peak = traced_peak(lambda: scan(lambda *window: None))
    assert len(charges) == 2 and peak <= charges[0]  # the deal, then its base primes


@pytest.mark.parametrize("which, lo, hi", [
    pytest.param(which, lo, hi, id=which if lo == 2 else f"{which}-wide")
    for lo, hi in ((2, 3 * 10**6), (10**12 - 10**6, 10**12 + 1))
    for which in ("phi", "sigma", "both")])
def test_segment_map_charged_once_by_its_deal(monkeypatch, which, lo, hi):
    # 3e6 is 12 windows, the 10^6 below the cap 4 on the wide lane; the
    # deal's one charge covers them and the output
    seen = []
    real = sieve.check_allocation
    monkeypatch.setattr(sieve, "check_allocation",
                        lambda nbytes, what: (seen.append((nbytes, what)), real(nbytes, what)))
    peak = traced_peak(lambda: sieve.segment_map(lo, hi, which))
    (deal,) = [(nbytes, what) for nbytes, what in seen if not what.startswith("prime sieve")]
    assert deal[1].endswith("on 1 workers")
    assert peak <= deal[0]


SIEVES = {
    "primes": lambda: sieve.primes_up_to(10**7),
    "spf": lambda: sieve.build_factor_sieve(2, 10**7 + 1),
    "spf-at-cap": lambda: sieve.build_factor_sieve(10**12 - 10**5, 10**12 + 1),
    "twin-census": lambda: anatomy.sieve_bound_census([(1, 0), (1, 2)], 10**6),
}


@pytest.mark.parametrize("name", sorted(SIEVES))
def test_sieve_peak_within_charge(charges, name):
    # each sieve charges what it holds at once in one request: the mask
    # and the primes, the spf table and the base primes, the mask and
    # the survivors
    peak = traced_peak(SIEVES[name])
    assert peak <= max(charges)


@pytest.mark.parametrize("mode, lo", LANE_CASES)
def test_deal_charged_once_per_run(monkeypatch, charges, mode, lo):
    # one charge, the deal's, made first, covers every window of the run;
    # the second run's progressions are three wheel classes of one step
    want = MODES.get(mode, {"smooth_bound": 5000})
    size = 1 << 16
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
    one_class = [(lo, 2, lo + 2 * (4 * size - 1))]
    wheel_classes = [(31, 30, 1559235), (15, 30, 2769694), (29, 30, 1559235)]
    for progressions in (one_class, wheel_classes):
        charges.clear()
        peak = traced_peak(lambda: deal_windows(progressions, 1, what="test scan", **want)(
            lambda *window: None))
        assert len(charges) == 2  # the deal, then its base primes' sieve
        assert peak <= charges[0]


SCANS = {
    "phi": lambda: value_sets.build_value_bitmap("phi", 10**6, threads=2),
    "sigma": lambda: value_sets.build_value_bitmap("sigma", 10**6, threads=2),
    "omega": lambda: anatomy.omega_tail_census(10**6, 1.5, threads=2),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_two_workers_share_one_setup(monkeypatch, scan):
    # the deal sieves the base primes once, hands both workers' workspaces
    # one inverse table and makes one charge, its own, for both of them
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = []

    def spy(name, real):
        def call(*args, **kw):
            calls.append((name, args))
            return real(*args, **kw)
        monkeypatch.setattr(sieve, name, call)

    for name in ("primes_up_to", "check_allocation", "_Workspace"):
        spy(name, getattr(sieve, name))
    SCANS[scan]()
    deal, prime_sieve = [args[-1] for name, args in calls if name == "check_allocation"]
    assert deal.endswith("on 2 workers") and prime_sieve.startswith("prime sieve")
    assert [name for name, _ in calls].count("primes_up_to") == 1
    first, second = [args[1] for name, args in calls if name == "_Workspace"]
    assert first is second


@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_value_bitmap_peak_within_charge(charges, f):
    peak = traced_peak(lambda: value_sets.build_value_bitmap(f, 10**6))
    assert peak <= max(charges)


@pytest.mark.parametrize("segment", [sieve.DEFAULT_SEGMENT_SIZE, 1 << 12])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_value_bitmap_threads_peak_within_charge(monkeypatch, charges, f, threads, segment):
    # the build's one charge, made first, covers every worker's workspace,
    # the scratch and the pack; 2^12-element windows fill the workspaces
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment)
    peak = traced_peak(lambda: value_sets.build_value_bitmap(f, 10**5, threads=threads))
    assert peak <= charges[0]


@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_value_bitmap_refuses_second_worker_before_any_thread(monkeypatch, charges, f):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    want = value_sets.build_value_bitmap(f, 10**5, threads=2).bits
    monkeypatch.setenv(MEMORY_BUDGET_ENV, str(charges[0] - 1))
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), real_start(self)))
    before = threading.active_count()
    with pytest.raises(ResourceError):
        value_sets.build_value_bitmap(f, 10**5, threads=2)
    assert not started and threading.active_count() == before
    assert np.array_equal(value_sets.build_value_bitmap(f, 10**5, threads=1).bits, want)


CENSUSES = {
    "smooth": lambda threads: anatomy.psi_smooth_count(10**6, 100, threads=threads),
    "omega": lambda threads: anatomy.omega_tail_census(10**6, 1.5, threads=threads),
    "rl-sum": lambda threads: structure.r_l_sum("phi", structure.unit_spec(3), 10**6,
                                                threads=threads),
    "rl-sum-wide": lambda threads: structure.r_l_sum(
        "sigma", structure.SimplexSpec(L=6, xi=(100.0,) * 5), 6 * 10**5, "from_p1",
        threads=threads),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("census", sorted(CENSUSES))
def test_census_threads_peak_within_charge(monkeypatch, charges, census, threads):
    # the census's one charge, made first, covers every worker's workspace
    # and, for r_l_sum, every slice, table and kept term (94% of the n are
    # members at L = 6, xi = 100); the odd n of 1e6 are 2 windows, of 6e5 two
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    peak = traced_peak(lambda: CENSUSES[census](threads))
    assert peak <= charges[0]


@pytest.mark.parametrize("census", sorted(CENSUSES))
def test_census_refuses_second_worker_before_any_thread(monkeypatch, charges, census):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    want = CENSUSES[census](2)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, str(charges[0] - 1))
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), real_start(self)))
    before = threading.active_count()
    with pytest.raises(ResourceError):
        CENSUSES[census](2)
    assert not started and threading.active_count() == before
    assert CENSUSES[census](1) == want
