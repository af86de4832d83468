import math

import numpy as np
import pytest

from phisigma import (
    DomainError,
    build_value_bitmap,
    count_values,
    intersect_count,
    phi_preimage_bound,
    segment_map,
    values_table,
    values_table_csv,
)
from phisigma.value_sets import scan_progressions

from conftest import phi_trial, sigma_trial


def test_phi_preimage_bound_floor():
    assert phi_preimage_bound(1) >= 100


def test_phi_preimage_bound_captures_smallest_values():
    bm = build_value_bitmap("phi", 1)
    assert [v for v in range(2) if bm.test(v)] == [1]


def test_phi_preimage_bound_sound_to_1e6():
    B = phi_preimage_bound(100)
    phi = segment_map(2, 10**6 + 1, "phi")
    beyond = np.flatnonzero(phi <= 100) + 2
    assert beyond.max() <= B


def test_phi_preimage_bound_envelope_monotone():
    from phisigma.value_sets import _minimal_order_envelope

    grid = np.linspace(27, 10**7, 500)
    vals = [_minimal_order_envelope(t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


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
    for n in range(2, phi_preimage_bound(x) + 1):
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
    B = phi_preimage_bound(x)
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


def _check_cutoffs(x: int) -> None:
    """Every preimage of a value <= x is scanned, or (phi) is 2 mod 4."""
    window = 1 << 20
    for f, top in (("phi", phi_preimage_bound(x)), ("sigma", x)):
        progressions = scan_progressions(f, x)
        for lo in range(2, top + 1, window):
            vals = segment_map(lo, min(lo + window, top + 1), f)
            n = np.flatnonzero(vals <= x) + lo
            ok = _in_progressions(n, progressions)
            if f == "phi":
                ok |= n % 4 == 2
            assert ok.all(), (f, x, n[~ok][:5])


@pytest.mark.parametrize("x", [10**3, 10**5, 10**6])
def test_scan_cutoffs_sound(x):
    _check_cutoffs(x)


@pytest.mark.slow
def test_scan_cutoffs_sound_1e7():
    _check_cutoffs(10**7)


def _check_class_tops(x: int) -> None:
    """Every n of a phi class with phi(n) <= x lies at or below its top."""
    tops = {}  # (step, n mod step) -> top
    for start, step, top in scan_progressions("phi", x):
        tops[step, start % step] = top
    odd_top = np.array([tops.get((30, r), 0) for r in range(30)])
    even_top = np.array([tops.get((60, r), 0) for r in range(60)])
    window = 1 << 20
    bound = phi_preimage_bound(x)
    for lo in range(2, bound + 1, window):
        vals = segment_map(lo, min(lo + window, bound + 1), "phi")
        n = np.flatnonzero(vals <= x) + lo
        odd, even = n[n % 2 == 1], n[n % 4 == 0]
        over = np.concatenate([odd[odd > odd_top[odd % 30]], even[even > even_top[even % 60]]])
        assert not len(over), (x, over[:5])


@pytest.mark.parametrize("x", [1, 10, 10**3, 10**5, 10**6])
def test_phi_class_tops_sound(x):
    _check_class_tops(x)


@pytest.mark.slow
def test_phi_class_tops_sound_1e7():
    _check_class_tops(10**7)


@pytest.mark.parametrize("x", [10**4, 10**5])
def test_phi_progressions_partition_the_classes(x):
    # each odd n > 1 and each n = 0 mod 4 lies in exactly one progression,
    # and no n = 2 mod 4: a duplicate class would only cost time
    progressions = scan_progressions("phi", x)
    top = min(t for *_, t in progressions)
    cover = np.zeros(top + 1, dtype=np.int64)
    for start, step, _ in progressions:
        cover[start::step] += 1
    n = np.arange(top + 1)
    want = ((n % 2 == 1) | (n % 4 == 0)) & (n >= 2)
    assert np.array_equal(cover, want.astype(np.int64))


def test_scan_progressions_at_1e7():
    x = 10**7
    # tops by gcd(n, 15): the classes divisible by 15 keep the unsplit tops
    odd = {1: 16301094, 3: 24451642, 5: 20376368, 15: 29235658}
    even = {1: 32602189, 3: 46777054, 5: 38980878, 15: 58471317}
    want = [(r if r > 1 else 31, 30, odd[math.gcd(r, 15)]) for r in range(1, 30, 2)]
    want += [(r or 60, 60, even[math.gcd(r, 15)]) for r in range(0, 60, 4)]
    assert scan_progressions("phi", x) == want
    assert scan_progressions("sigma", x) == [(3, 2, x), (2, 2, 6666666)]
    scanned = sum(len(range(a, t + 1, s)) for a, s, t in scan_progressions("phi", x))
    assert scanned == 19679435
    assert scanned / (phi_preimage_bound(x) - 1) < 0.33


@pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
@pytest.mark.parametrize("f", ["phi", "sigma"])
def test_bitmap_bytes_match_full_range_scan(f, x):
    top = phi_preimage_bound(x) if f == "phi" else x
    vals = segment_map(2, top + 1, f)
    seen = np.zeros(x + 1, dtype=bool)
    seen[1] = True
    seen[vals[vals <= x]] = True
    want = np.packbits(seen, bitorder="little")
    assert np.array_equal(build_value_bitmap(f, x).bits, want)


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
