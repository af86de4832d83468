import math
import os
import sys
import threading

import numpy as np
import pytest

from phisigma import (
    DomainError,
    ResourceError,
    build_value_bitmap,
    count_values,
    intersect_count,
    phi_preimage_bound,
    factorize,
    segment_map,
    sigma_of,
    values_table,
    values_table_csv,
)
from phisigma.sieve import cut_windows
from phisigma.value_sets import scan_progressions

from conftest import phi_oracle_top, phi_trial, sigma_trial


def test_phi_preimage_bound_captures_smallest_values():
    bm = build_value_bitmap("phi", 1)
    assert [v for v in range(2) if bm.test(v)] == [1]


def test_phi_cutoffs_cover_every_x_to_1e4():
    # for each x <= 1e4: the largest n <= 7x with phi(n) <= x, overall
    # and per class, against phi_preimage_bound(x) and the class tops
    top_x = 10**4
    n = np.arange(1, phi_oracle_top(top_x) + 1)
    phi = np.concatenate([[1], segment_map(2, len(n) + 1, "phi")])
    need = np.maximum(phi, -(-n // 7))  # least x with phi(n) <= x and n <= phi_oracle_top(x)
    keep = need <= top_x
    n, need = n[keep], need[keep]

    def largest(sel):  # largest n of sel per x, 0 where none
        best = np.zeros(top_x + 1, dtype=np.int64)
        np.maximum.at(best, need[sel], n[sel])
        return np.maximum.accumulate(best)

    xs = range(1, top_x + 1)
    want = largest(np.ones(len(n), dtype=bool))
    assert phi_preimage_bound(1) == 2
    assert all(phi_preimage_bound(x) >= want[x] for x in xs)
    by_x = [scan_progressions("phi", x) for x in xs]
    for i, (start, step, _) in enumerate(by_x[0]):
        want = largest(n % step == start % step)
        assert all(p[i][2] >= want[x] for x, p in zip(xs, by_x)), (start, step)


def test_phi_preimage_bound_sound_to_1e6():
    B = phi_preimage_bound(100)
    phi = segment_map(2, 10**6 + 1, "phi")
    beyond = np.flatnonzero(phi <= 100) + 2
    assert beyond.max() <= B


def test_bitmap_phi_10():
    bm = build_value_bitmap("phi", 10)
    assert [v for v in range(11) if bm.test(v)] == [1, 2, 4, 6, 8, 10]


def test_bitmap_sigma_10():
    bm = build_value_bitmap("sigma", 10)
    assert [v for v in range(11) if bm.test(v)] == [1, 3, 4, 6, 7, 8]


def test_bitmap_rejects_bad_args():
    with pytest.raises(DomainError):
        build_value_bitmap("tau", 10)
    with pytest.raises(DomainError):
        build_value_bitmap("phi", 0)
    with pytest.raises(DomainError):
        build_value_bitmap("phi", 100, threads=0)


def test_count_and_intersect_hand_values():
    bp = build_value_bitmap("phi", 10)
    bs = build_value_bitmap("sigma", 10)
    assert count_values(bp, 10) == 6
    assert count_values(bs, 10) == 6
    assert count_values(bp, 0) == 0
    assert intersect_count(bp, bs, 10) == 4  # {1,4,6,8}


def test_intersect_disjoint_toy_bitmaps():
    from dataclasses import replace

    bp = build_value_bitmap("phi", 3)  # values {1, 2}
    bs = build_value_bitmap("sigma", 3)  # values {1, 3}
    assert intersect_count(bp, bs, 3) == 1
    # drop the shared value 1 from the phi side: nothing left in common
    disjoint = replace(bp, bits=bp.bits & ~np.uint8(1 << 1))
    assert intersect_count(disjoint, bs, 3) == 0


def test_bitmap_against_double_loop_oracle_1e3():
    x = 1000
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
    assert {v for v in range(1, x + 1) if bp.test(v)} == vp
    assert {v for v in range(1, x + 1) if bs.test(v)} == vs
    assert count_values(bp, x) == len(vp)
    assert intersect_count(bp, bs, x) == len(vp & vs)


def test_count_monotone_and_intersection_bounded():
    top = 3000
    bp = build_value_bitmap("phi", top)
    bs = build_value_bitmap("sigma", top)
    prev = 0
    for x in range(0, top + 1, 97):
        c = count_values(bp, x)
        assert c >= prev
        prev = c
        assert intersect_count(bp, bs, x) <= min(c, count_values(bs, x))


def test_every_set_phi_bit_has_witness():
    x = 2000
    bm = build_value_bitmap("phi", x)
    B = phi_oracle_top(x)
    set_bits = [v for v in range(1, x + 1) if bm.test(v)]
    rng = np.random.default_rng(5)
    for v in rng.choice(set_bits, size=100, replace=False):
        assert any(phi_trial(n) == v for n in range(1, B + 1)), v


def test_segmentation_determinism(monkeypatch):
    from phisigma import sieve

    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 14)
    a = build_value_bitmap("phi", 10**4)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 13)
    b = build_value_bitmap("phi", 10**4)
    assert (a.bits == b.bits).all()


def _in_progressions(n: np.ndarray, progressions) -> np.ndarray:
    hit = np.zeros(n.shape, dtype=bool)
    for start, step, top in progressions:
        hit |= (n >= start) & (n <= top) & ((n - start) % step == 0)
    return hit


def _multiples_of(v: np.ndarray, found: np.ndarray, multipliers) -> np.ndarray:
    """Per value in v, whether v = M w for some M in multipliers with found[w]."""
    hit = np.zeros(v.shape, dtype=bool)
    for m in multipliers:
        sel = v % m == 0
        hit[sel] |= found[v[sel] // m]
    return hit


def _check_cutoffs(x: int) -> None:
    """Every preimage of a value <= x is scanned, or is even, or (phi) is
    odd with exactly one factor 3, n = 3m, phi(n) = 2 phi(m), m = 1 or
    scanned; and every unscanned value is M w, w the value of a scanned
    n or w = 1: by the doubling lemma (phi) M = 2^j, j >= 0; by the
    Mersenne lemma (sigma) M = 2^j - 1, j >= 2."""
    window = 1 << 20
    multipliers = {"phi": [1 << j for j in range(x.bit_length())],
                   "sigma": [(1 << j) - 1 for j in range(2, (x + 1).bit_length())]}
    for f, top in (("phi", phi_oracle_top(x)), ("sigma", x)):
        progressions = scan_progressions(f, x)
        scanned = np.zeros(x + 1, dtype=bool)  # values of the scanned n, and of n = 1
        scanned[1] = True
        unscanned = np.zeros(x + 1, dtype=bool)  # values of the other n
        for lo in range(2, top + 1, window):
            vals = segment_map(lo, min(lo + window, top + 1), f)
            n = np.flatnonzero(vals <= x) + lo
            ok = _in_progressions(n, progressions)
            scanned[vals[n[ok] - lo]] = True
            unscanned[vals[n[~ok] - lo]] = True
            odd = n[~ok & (n % 2 == 1)]
            if f == "phi" and len(odd):
                m = odd // 3
                assert ((odd % 3 == 0) & (m % 3 != 0)).all(), (x, odd[:5])
                assert ((m == 1) | _in_progressions(m, progressions)).all(), (x, odd[:5])
                phi_m = np.ones(len(m), dtype=np.int64)  # phi(1) = 1
                big = m > 1
                if big.any():
                    m_lo = int(m[big].min())
                    phi_m[big] = segment_map(m_lo, int(m.max()) + 1, f)[m[big] - m_lo]
                assert np.array_equal(vals[odd - lo], 2 * phi_m), (x, odd[:5])
            else:
                assert not len(odd), (f, x, odd[:5])
        v = np.flatnonzero(unscanned)
        hit = _multiples_of(v, scanned, multipliers[f])
        assert hit.all(), (f, x, v[~hit][:5])


@pytest.mark.parametrize("x", [10**3, 10**5, 10**6])
def test_scan_cutoffs_sound(x):
    _check_cutoffs(x)


@pytest.mark.slow
def test_scan_cutoffs_sound_1e7():
    _check_cutoffs(10**7)


def _classes(f: str) -> tuple[int, list[int]]:
    """The modulus of f's classes and their residues: the odd residues
    mod 30 (sigma), and mod 90 with 3 not dividing them or 9 dividing
    them (phi)."""
    if f == "sigma":
        return 30, list(range(1, 30, 2))
    return 90, [r for r in range(1, 90, 2) if r % 3 or r % 9 == 0]


def _check_class_tops(f: str, x: int) -> None:
    """The classes of f are _classes(f), and every n of a class with
    f(n) <= x lies at or below its top."""
    step, residues = _classes(f)
    progressions = scan_progressions(f, x)
    assert sorted(start % s for start, s, _ in progressions) == residues
    assert {s for _, s, _ in progressions} == {step}
    top = np.zeros(step, dtype=np.int64)
    for start, _, t in progressions:
        top[start % step] = t
    window = 1 << 20
    bound = phi_oracle_top(x) if f == "phi" else x
    for lo in range(2, bound + 1, window):
        vals = segment_map(lo, min(lo + window, bound + 1), f)
        n = np.flatnonzero(vals <= x) + lo
        odd = n[(n % 2 == 1) & np.isin(n % step, residues)]
        over = odd[odd > top[odd % step]]
        assert not len(over), (f, x, over[:5])


@pytest.mark.parametrize("x", [1, 10, 10**3, 10**5, 10**6])
def test_phi_class_tops_sound(x):
    _check_class_tops("phi", x)


@pytest.mark.parametrize("x", [1, 10, 10**3, 10**5, 10**6])
def test_sigma_class_tops_sound(x):
    _check_class_tops("sigma", x)


@pytest.mark.slow
def test_phi_class_tops_sound_1e7():
    _check_class_tops("phi", 10**7)


@pytest.mark.slow
def test_sigma_class_tops_sound_1e7():
    _check_class_tops("sigma", 10**7)


@pytest.mark.parametrize("x", [10**4, 10**5])
def test_phi_progressions_partition_the_classes(x):
    # each odd n > 1 with 3 not dividing n or 9 dividing n lies in exactly
    # one progression, and no even n or odd n with exactly one factor 3:
    # a duplicate class would only cost time, and the closure finds the
    # values of the others
    progressions = scan_progressions("phi", x)
    top = min(t for *_, t in progressions)
    cover = np.zeros(top + 1, dtype=np.int64)
    for start, step, _ in progressions:
        cover[start::step] += 1
    n = np.arange(top + 1)
    want = (n % 2 == 1) & (n >= 2) & ((n % 3 != 0) | (n % 9 == 0))
    assert np.array_equal(cover, want.astype(np.int64))


def test_scan_progressions_at_1e7():
    x = 10**7
    # tops by gcd(n, 15): the classes divisible by 15 keep the unsplit tops
    odd = {1: 16301094, 3: 24451642, 5: 19490439, 15: 29235658}
    _, residues = _classes("phi")
    want = [(r if r > 1 else 91, 90, odd[math.gcd(r, 15)]) for r in residues]
    assert scan_progressions("phi", x) == want
    scanned = sum(len(range(a, t + 1, s)) for a, s, t in scan_progressions("phi", x))
    assert scanned == 7057902
    # against the 61,811,115 n of the step-1 scan to the former minimal-order bound
    assert scanned / 61811115 < 0.12
    assert phi_preimage_bound(x) == 58471316
    # sigma: x times prod p/(p + 1) over the wheel primes dividing the class
    odd = {1: 10000000, 3: 7500000, 5: 8333333, 15: 6250000}
    want = [(r if r > 1 else 31, 30, odd[math.gcd(r, 15)]) for r in range(1, 30, 2)]
    assert scan_progressions("sigma", x) == want
    scanned = sum(len(range(a, t + 1, s)) for a, s, t in scan_progressions("sigma", x))
    assert scanned == 4430553  # against 8,333,332 odd n <= x and even n <= 2x/3


def _full_range_bits(f: str, x: int) -> np.ndarray:
    """The bitmap of f up to x from one step-1 scan of every preimage."""
    top = phi_oracle_top(x) if f == "phi" else x
    vals = segment_map(2, top + 1, f)
    seen = np.zeros(x + 1, dtype=bool)
    seen[1] = True
    seen[vals[vals <= x]] = True
    return np.packbits(seen, bitorder="little")


@pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_bitmap_bytes_match_full_range_scan(f, x):
    assert np.array_equal(build_value_bitmap(f, x).bits, _full_range_bits(f, x))


def _check_bits_at(f: str, xs) -> None:
    """build_value_bitmap(f, x) against one oracle scan at max(xs), which
    serves every x, as no n above 7x has phi(n) <= x, nor above x
    sigma(n) <= x."""
    seen = np.unpackbits(_full_range_bits(f, max(xs)), bitorder="little")
    for x in xs:
        want = np.packbits(seen[: x + 1], bitorder="little")
        assert np.array_equal(build_value_bitmap(f, x).bits, want), (f, x)


_NEAR_POWERS_OF_TWO = sorted({*range(1, 257),
                              *(2**k + d for k in range(1, 21) for d in (-1, 0, 1))})


def test_phi_doubling_pass_near_powers_of_two():
    # the doubling pass ends where 2u reaches the cap slot x // 2 + 1
    _check_bits_at("phi", _NEAR_POWERS_OF_TWO)


def test_sigma_mersenne_closure_near_powers_of_two():
    # 2^k - 1 is a Mersenne number: there the last multiplier comes in,
    # and each multiplier's cut u < (cap - 1) // M + 1 moves
    _check_bits_at("sigma", _NEAR_POWERS_OF_TWO)


@pytest.mark.slow
def test_phi_doubling_pass_at_every_x_to_4096():
    _check_bits_at("phi", range(1, (1 << 12) + 1))


@pytest.mark.slow
def test_sigma_mersenne_closure_at_every_x_to_4096():
    _check_bits_at("sigma", range(1, (1 << 12) + 1))


# --- worker threads: the same bytes for every thread count ------------------


@pytest.mark.parametrize("x", [1, 2, 3, 10, 100, 10**4, 10**5])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_bitmap_bytes_equal_for_every_thread_count(monkeypatch, f, x):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # 3 threads make 3 workers
    one = build_value_bitmap(f, x, threads=1).bits
    for threads in (2, 3):
        assert np.array_equal(build_value_bitmap(f, x, threads=threads).bits, one)


@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_bitmap_workers_stress_more_workers_than_cores(monkeypatch, f):
    # eight workers share the scratch and the odd values' list; a lost
    # store or append would drop a value
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    want = _full_range_bits(f, 10**5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = build_value_bitmap(f, 10**5, threads=8).bits
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def test_sigma_bitmap_in_short_windows(monkeypatch):
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 6)
    x = 6000  # 2,657 odd n in 15 classes of 125 to 200 n: 52 windows of 7 to 64 n
    want = _full_range_bits("sigma", x)
    for threads in (1, 2, 3):
        assert np.array_equal(build_value_bitmap("sigma", x, threads=threads).bits, want)


@pytest.mark.parametrize("threads", [1, 2])
def test_odd_sigma_values_exhaustive_to_1e6(monkeypatch, threads):
    # sigma(n) is odd exactly at n = m^2 and 2m^2; only the odd squares
    # are scanned, and their values, with 1, times each Mersenne number
    # (sigma(2^a m^2) for a >= 1) are set straight into the bitmap, every
    # other value through the even scratch
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    x = 10**6
    bits = np.unpackbits(build_value_bitmap("sigma", x, threads=threads).bits,
                         bitorder="little")[: x + 1]
    odd = set((2 * np.flatnonzero(bits[1::2]) + 1).tolist())
    want = {1}
    for c in (1, 2):
        for m in range(1, math.isqrt(x // c) + 1):
            v = sigma_of(factorize(c * m * m))
            if v <= x:
                want.add(v)
    assert odd == want


def _dealt(monkeypatch, f, x, threads, cpus):
    """The windows (lo, step, last) that build_value_bitmap(f, x) scanned,
    one list per worker thread."""
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    real = sieve.segment_scan
    dealt = {}

    def spy(ws, lo, hi, **kw):
        dealt.setdefault(threading.current_thread(), []).append((lo, ws.step, hi - 1))
        return real(ws, lo, hi, **kw)

    monkeypatch.setattr(sieve, "segment_scan", spy)
    build_value_bitmap(f, x, threads=threads)
    return list(dealt.values())


@pytest.mark.parametrize("threads,cpus", [(1, 8), (2, 8), (3, 8), (8, 2), (8, None), (16, 64)])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_deal_partitions_the_scan_over_capped_workers(monkeypatch, f, threads, cpus):
    from phisigma import sieve

    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 8)
    x = 10**4
    progressions = scan_progressions(f, x)
    dealt = _dealt(monkeypatch, f, x, threads, cpus)
    windows = [u for part in dealt for u in part]
    assert len(windows) == len(cut_windows(progressions))
    assert len(dealt) == min(threads, len(windows), cpus or 1)
    assert all(dealt)
    # the windows cover each scanned n once
    covered = sorted(n for a, s, t in windows for n in range(a, t + 1, s))
    assert covered == sorted(n for a, s, t in progressions for n in range(a, t + 1, s))
    # dealt round robin, longest first: worker loads within one window of
    # each other in count, and within the longest window in elements
    assert max(map(len, dealt)) - min(map(len, dealt)) <= 1
    loads = [sum((t - a) // s + 1 for a, s, t in part) for part in dealt]
    assert max(loads) - min(loads) <= max((t - a) // s + 1 for a, s, t in windows)


def test_sigma_at_1_scans_nothing(monkeypatch):
    assert _dealt(monkeypatch, "sigma", 1, 4, 8) == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_one_workspace_per_worker(monkeypatch, f, threads):
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    built = []
    real = sieve._Workspace

    class Spy(real):
        def __init__(self, *args, **kw):
            built.append(threading.current_thread())
            super().__init__(*args, **kw)

    monkeypatch.setattr(sieve, "_Workspace", Spy)
    build_value_bitmap(f, 10**6, threads=threads)
    assert len(built) == threads  # one workspace per worker
    # all built on the calling thread, before any worker thread starts
    assert all(thread is threading.main_thread() for thread in built)


def test_failing_scan_worker_reraised_and_no_thread_left(monkeypatch):
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    real = sieve.segment_scan

    def failing(*args, **kw):
        if threading.current_thread() is not threading.main_thread():
            raise ResourceError("injected")
        return real(*args, **kw)

    monkeypatch.setattr(sieve, "segment_scan", failing)
    before = threading.active_count()
    with pytest.raises(ResourceError, match="injected"):
        build_value_bitmap("phi", 10**5, threads=2)
    assert threading.active_count() == before


def test_values_table_row_10():
    (row,) = values_table([10])
    assert (row.v_phi, row.v_sigma, row.v_common) == (6, 6, 4)
    assert row.ratio_phi == pytest.approx(4 / 6)


def test_values_table_multiple_limits_share_one_build():
    rows = values_table([10, 100, 1000])
    assert [r.N for r in rows] == [10, 100, 1000]
    for r in rows:
        assert 0 <= r.v_common <= min(r.v_phi, r.v_sigma)


def test_values_table_rejects_unsorted():
    with pytest.raises(DomainError):
        values_table([100, 10])


def test_values_table_csv_format():
    text = values_table_csv(values_table([10**4]))
    lines = text.strip().split("\n")
    assert lines[0] == "N,V_phi,V_sigma,V_common,ratio_phi,ratio_sigma"
    assert lines[1] == "10000,2374,2503,1368,0.5762426,0.5465441"
