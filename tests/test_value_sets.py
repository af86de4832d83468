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


def _doubles_of(v: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Per value in v, whether v = 2^j w for some j >= 0 with found[w]."""
    hit = found[v].copy()
    for j in range(1, int(v.max(initial=1)).bit_length()):
        sel = v % (1 << j) == 0
        hit[sel] |= found[v[sel] >> j]
    return hit


def _check_cutoffs(x: int) -> None:
    """Every preimage of a value <= x is scanned, or (phi) is even and,
    by the doubling lemma, has a value 2^j phi(m), m in a scanned class."""
    window = 1 << 20
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
            if f == "phi":
                ok |= n % 2 == 0
            assert ok.all(), (f, x, n[~ok][:5])
        if f == "phi":
            v = np.flatnonzero(unscanned)
            hit = _doubles_of(v, scanned)
            assert hit.all(), (x, v[~hit][:5])


@pytest.mark.parametrize("x", [10**3, 10**5, 10**6])
def test_scan_cutoffs_sound(x):
    _check_cutoffs(x)


@pytest.mark.slow
def test_scan_cutoffs_sound_1e7():
    _check_cutoffs(10**7)


def _check_class_tops(x: int) -> None:
    """The phi classes are the odd residues mod 30, and every n of a
    class with phi(n) <= x lies at or below its top."""
    progressions = scan_progressions("phi", x)
    assert sorted(start % step for start, step, _ in progressions) == list(range(1, 30, 2))
    assert {step for _, step, _ in progressions} == {30}
    top = np.zeros(30, dtype=np.int64)
    for start, _, t in progressions:
        top[start % 30] = t
    window = 1 << 20
    bound = phi_oracle_top(x)
    for lo in range(2, bound + 1, window):
        vals = segment_map(lo, min(lo + window, bound + 1), "phi")
        n = np.flatnonzero(vals <= x) + lo
        odd = n[n % 2 == 1]
        over = odd[odd > top[odd % 30]]
        assert not len(over), (x, over[:5])


@pytest.mark.parametrize("x", [1, 10, 10**3, 10**5, 10**6])
def test_phi_class_tops_sound(x):
    _check_class_tops(x)


@pytest.mark.slow
def test_phi_class_tops_sound_1e7():
    _check_class_tops(10**7)


@pytest.mark.parametrize("x", [10**4, 10**5])
def test_phi_progressions_partition_the_classes(x):
    # each odd n > 1 lies in exactly one progression, and no even n: a
    # duplicate class would only cost time, and the doubling pass finds
    # every even n's value
    progressions = scan_progressions("phi", x)
    top = min(t for *_, t in progressions)
    cover = np.zeros(top + 1, dtype=np.int64)
    for start, step, _ in progressions:
        cover[start::step] += 1
    n = np.arange(top + 1)
    want = (n % 2 == 1) & (n >= 2)
    assert np.array_equal(cover, want.astype(np.int64))


def test_scan_progressions_at_1e7():
    x = 10**7
    # tops by gcd(n, 15): the classes divisible by 15 keep the unsplit tops
    odd = {1: 16301094, 3: 24451642, 5: 19490439, 15: 29235658}
    want = [(r if r > 1 else 31, 30, odd[math.gcd(r, 15)]) for r in range(1, 30, 2)]
    assert scan_progressions("phi", x) == want
    assert scan_progressions("sigma", x) == [(3, 2, x), (2, 2, 6666666)]
    scanned = sum(len(range(a, t + 1, s)) for a, s, t in scan_progressions("phi", x))
    assert scanned == 9881062
    # against the 61,811,115 n of the step-1 scan to the former minimal-order bound
    assert scanned / 61811115 < 0.16
    assert phi_preimage_bound(x) == 58471316


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


def _check_phi_bits_at(xs) -> None:
    """build_value_bitmap("phi", x) against one oracle scan at max(xs),
    which serves every x, as no n above 7x has phi(n) <= x."""
    seen = np.unpackbits(_full_range_bits("phi", max(xs)), bitorder="little")
    for x in xs:
        want = np.packbits(seen[: x + 1], bitorder="little")
        assert np.array_equal(build_value_bitmap("phi", x).bits, want), x


def test_phi_doubling_pass_near_powers_of_two():
    # the doubling pass ends where 2u reaches the cap slot x // 2 + 1
    near = {2**k + d for k in range(1, 21) for d in (-1, 0, 1)}
    _check_phi_bits_at(sorted({*range(1, 257), *near}))


@pytest.mark.slow
def test_phi_doubling_pass_at_every_x_to_4096():
    _check_phi_bits_at(range(1, (1 << 12) + 1))


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
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 10)
    x = 6000  # 2999 and 2000 n: windows of 1024, 1024, 951, 1024 and 976 n
    want = _full_range_bits("sigma", x)
    for threads in (1, 2, 3):
        assert np.array_equal(build_value_bitmap("sigma", x, threads=threads).bits, want)


@pytest.mark.parametrize("threads", [1, 2])
def test_odd_sigma_values_exhaustive_to_1e6(monkeypatch, threads):
    # sigma(n) is odd exactly at n = m^2 and 2m^2; those values are set
    # straight into the bitmap, every other value through the even scratch
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
    """The windows each scan_windows call of build_value_bitmap(f, x)
    received, one list per worker."""
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    real = sieve.scan_windows
    dealt = []

    def spy(progressions, **kw):
        dealt.append(list(progressions))
        yield from real(dealt[-1], **kw)

    monkeypatch.setattr(sieve, "scan_windows", spy)
    build_value_bitmap(f, x, threads=threads)
    return dealt


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
    assert _dealt(monkeypatch, "sigma", 1, 4, 8) == [[]]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_one_workspace_per_worker(monkeypatch, f, threads):
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    built = []
    real = sieve._Workspace

    class Spy(real):
        def __init__(self, *args, **kw):
            built.append(self)
            super().__init__(*args, **kw)

    monkeypatch.setattr(sieve, "_Workspace", Spy)
    build_value_bitmap(f, 10**6, threads=threads)
    assert len(built) == threads  # one scan_windows call, one workspace, per worker


def test_failing_scan_worker_reraised_and_no_thread_left(monkeypatch):
    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    real = sieve.scan_windows

    def failing(progressions, **kw):
        if threading.current_thread() is not threading.main_thread():
            raise ResourceError("injected")
        yield from real(progressions, **kw)

    monkeypatch.setattr(sieve, "scan_windows", failing)
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
