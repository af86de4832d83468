"""The value bitmaps and segment_map, pinned by sha256.

A change to the scan kernel, its deal or the closures must leave every
one of these bytes as it is.  The digests were computed with the scan
kernel that sliced every base prime up to 512 at every power and
tested the higher powers of the larger primes by n mod p^(j+1).
"""

import hashlib
import os

import pytest

from phisigma import build_value_bitmap, segment_map

BITMAP_XS = sorted({*range(1, 300), *(2**k + d for k in range(1, 24) for d in (-1, 0, 1)),
                    10**4, 10**5, 10**6, 10**7})
BITMAPS_SHA256 = "16d2f30f17b63c71c2f67df7e03548fc21a8e916a21c87898f4f1950bf643dba"

# [2, 3e6) is 12 windows; the range below the cap is on the int64 lane
MAP_RANGES = [(2, 3 * 10**6), (10**12 - 10**5, 10**12 + 1)]
MAPS_SHA256 = "8362bf175f70f3e1a99c9d7355765b3b18688f40253d051554603f4799191847"

BITMAPS_1E8_SHA256 = "3a4c8f4111c1ce6fb71296b284b238ab26c5ff649b4389fdec055d425d86f03a"


def bitmaps_digest(xs, threads):
    h = hashlib.sha256()
    for x in xs:
        for f in ("phi", "sigma"):
            h.update(build_value_bitmap(f, x, threads=threads).bits.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_bitmap_bytes_pinned(monkeypatch, threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # every thread is a worker
    assert bitmaps_digest(BITMAP_XS, threads) == BITMAPS_SHA256


def test_segment_map_bytes_pinned():
    h = hashlib.sha256()
    for lo, hi in MAP_RANGES:
        for arr in segment_map(lo, hi, "both"):
            h.update(arr.astype("<i8").tobytes())
    assert h.hexdigest() == MAPS_SHA256


@pytest.mark.slow
@pytest.mark.parametrize("threads", [1, 2])
def test_bitmap_bytes_pinned_at_1e8(monkeypatch, threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert bitmaps_digest([10**8], threads) == BITMAPS_1E8_SHA256
