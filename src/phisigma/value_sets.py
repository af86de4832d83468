"""Value sets of phi and sigma: enumeration, counting, intersection.

A ValueBitmap records one bit per integer v <= x, set exactly when v is
attained by the chosen function.  The preimage scan covers only the
residue classes that can still produce a value <= x, each up to its own
exact cutoff (scan_progressions): for sigma, odd n <= x and even
n <= 2x/3; for phi, the odd n by residue mod 30 and the n = 0 mod 4 by
residue mod 60, each class up to x times an explicit bound on n/phi(n)
over the small primes the class allows (3 and 5 only where they divide
the residue), capped by the minimal-order bound phi_preimage_bound.
At x = 10^7 that is 19.7M n, 32% of [2, phi_preimage_bound(x)].
n = 2 mod 4 is never scanned for phi, since its value phi(n/2) is
already found in the odd classes.

Memory: a bitmap over [0, x] costs (x+1)/8 bytes, and the build
additionally keeps an x+2 byte scratch array, one byte per value, that
is packed into the bitmap at the end, and one scan workspace
(sieve.scan_bytes, 6.7 to 9.9 MB at the default window size for x up
to 10^8).  Each window's values are clipped to x + 1 in place and
marked by one fancy-index store, so no mask or filtered copy is made.  All of it is charged
against the memory budget before anything is allocated.  At x = 10^8 a
phi build peaks at about 140 MB of resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_allocation
from . import sieve
from .sieve import primes_up_to, scan_bytes, scan_windows

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ValueBitmap:
    """Bit v set iff v <= limit_x is a value of f (f_tag 'phi' or 'sigma')."""

    limit_x: int
    f_tag: str
    bits: np.ndarray = field(repr=False)  # uint8, little bit order

    def test(self, v: int) -> bool:
        if not 0 <= v <= self.limit_x:
            raise DomainError(f"v={v} outside [0, {self.limit_x}]")
        return bool(self.bits[v >> 3] & (1 << (v & 7)))


def _minimal_order_envelope(n: float) -> float:
    """Lower envelope of phi: phi(n) exceeds this for all n >= 27.

    Uses the explicit minimal-order inequality
    n/phi(n) < e^gamma * loglog n + 3/loglog n   (n >= 27),
    so phi(n) > n / (e^gamma loglog n + 3/loglog n), which is
    increasing in n on [27, inf).
    """
    ll = math.log(math.log(n))
    return n / (math.exp(EULER_GAMMA) * ll + 3.0 / ll)


def phi_preimage_bound(x: int) -> int:
    """A bound B with phi(n) <= x implying n <= B; sound, not tight.

    Binary search for the first integer where the minimal-order
    envelope exceeds x, with a hard floor of 100.
    """
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    lo, hi = 27, 128
    while _minimal_order_envelope(hi) <= x:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _minimal_order_envelope(mid) > x:
            hi = mid
        else:
            lo = mid
    return max(hi, 100)


_WHEEL = (3, 5)  # odd primes whose divisibility splits the phi classes


def _phi_class_top(x: int, bound: int, *, even: bool, excluded: tuple[int, ...]) -> int:
    """Largest n of one class with phi(n) <= x possible.

    The class is the odd n, or the n = 0 mod 4 when even, and of those
    only the n divisible by none of the primes in excluded (a residue
    mod 30 or 60 fixes which of the wheel primes 3 and 5 divide n).  Call
    the odd primes not in excluded the allowed primes.

    For n = 2^a m (a = 0, or a >= 2 when even), m odd with k distinct
    primes, all allowed: the i-th prime of m is at least the i-th
    allowed prime, so n >= 2^a * (product of the first k allowed
    primes), and with n <= bound, k is at most the largest count K whose
    product times 1 (odd) or 4 (even, 4 <= 2^a) stays <= bound.  And
    n/phi(n) = (2 if a else 1) * prod_{p | m} p/(p-1) is at most the
    same product over the first k <= K allowed primes, since p/(p-1)
    falls as p grows; it is largest at k = K: call it R.  Hence
    phi(n) <= x forces n <= x * R, computed here exactly.  Leaving 3
    out drops the factor 3/2 from R and lets the next allowed prime in,
    whose factor is smaller.
    """
    least, num, den = (4, 2, 1) if even else (1, 1, 1)
    for q in primes_up_to(127)[1:].tolist():  # product ~1e47 exceeds any bound
        if q in excluded:
            continue
        if least * q > bound:
            break
        least *= q
        num *= q
        den *= q - 1
    return min(bound, x * num // den)


def scan_progressions(f: str, x: int) -> list[tuple[int, int, int]]:
    """The (start, step, top) progressions whose f-values cover those <= x.

    phi: one progression per residue class, the odd n split mod 30 and
    the n = 0 mod 4 split mod 60, 15 classes each; each class is scanned
    up to its own top, x times a bound on n/phi(n) that leaves out the
    wheel primes 3, 5 not dividing the residue (see _phi_class_top).
    n = 2 mod 4 is skipped because n = 2m with m odd has
    phi(n) = phi(m), already seen in the odd classes (m = 1 for n = 2).
    sigma: odd n <= x, since sigma(n) >= n, and even n <= 2x/3, since
    sigma(2^a m) >= (2^(a+1) - 1) m >= 3n/2 for a >= 1.
    n = 1 is left out of every progression (f(1) = 1), and so is n = 0:
    the residue classes 1 mod 30 and 0 mod 60 start one step up.
    """
    if f == "sigma":
        return [(3, 2, x), (2, 2, 2 * x // 3)]
    bound = phi_preimage_bound(x)
    wheel = math.prod(_WHEEL)
    progressions = []
    for first, base, even in ((1, 2, False), (0, 4, True)):
        step = base * wheel
        for r in range(first, step, base):
            excluded = tuple(q for q in _WHEEL if r % q)
            top = _phi_class_top(x, bound, even=even, excluded=excluded)
            progressions.append((r if r > 1 else r + step, step, top))
    return progressions


def build_value_bitmap(f: str, x: int) -> ValueBitmap:
    """Enumerate the value set of f up to x into a bitmap.

    Only the progressions of scan_progressions are scanned, each in
    windows of DEFAULT_SEGMENT_SIZE elements; every n outside them
    either has f(n) > x or shares its value with a scanned n.  Values
    are marked in a byte-per-value scratch array, packed at the end.

    Parameters
    ----------
    f : {'phi', 'sigma'}
    x : int
        Value-set frontier, x >= 1.
    """
    if f not in ("phi", "sigma"):
        raise DomainError(f"f must be 'phi' or 'sigma', got {f!r}")
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    progressions = scan_progressions(f, x)
    size = sieve.DEFAULT_SEGMENT_SIZE
    # a scan workspace next to the scratch array and the bitmap;
    # isqrt(top) bounds the large base primes
    window = scan_bytes(size, math.isqrt(max(top for *_, top in progressions)),
                        **{f"want_{f}": True})
    check_allocation((x >> 3) + 1 + x + 2 + window, f"value bitmap build at x={x}")
    scratch = np.zeros(x + 2, dtype=bool)  # values above x all land on x + 1
    scratch[1] = True  # f(1) = 1 for both functions
    for start, step, top in progressions:
        for _, got in scan_windows(start, top, step=step, **{f"want_{f}": True}):
            vals = got[f]  # the window's own array, clipped in place
            np.minimum(vals, x + 1, out=vals)
            scratch[vals] = True
            del got, vals  # so the workspace dies with its run, before packbits

    bits = np.packbits(scratch[: x + 1], bitorder="little")
    if bits[0] & 1:
        raise AssertionError("value 0 can never be attained")
    return ValueBitmap(limit_x=x, f_tag=f, bits=bits)


def _prefix_popcount(bits: np.ndarray, x: int) -> int:
    """Set bits at positions 0..x of a little-bit-order bitmap."""
    nfull, rembits = divmod(x + 1, 8)
    total = int(np.bitwise_count(bits[:nfull]).sum(dtype=np.int64))
    if rembits:
        total += int(np.bitwise_count(bits[nfull] & np.uint8((1 << rembits) - 1)))
    return total


def count_values(bm: ValueBitmap, x: int) -> int:
    """Number of set bits v with 1 <= v <= x (bit 0 is never set)."""
    if x < 0 or x > bm.limit_x:
        raise DomainError(f"x={x} outside bitmap range [0, {bm.limit_x}]")
    return _prefix_popcount(bm.bits, x)


def intersect_count(bm_phi: ValueBitmap, bm_sigma: ValueBitmap, x: int) -> int:
    """Number of v <= x attained by both functions."""
    if x < 0 or x > min(bm_phi.limit_x, bm_sigma.limit_x):
        raise DomainError(f"x={x} not covered by both bitmaps")
    n = (x >> 3) + 1
    return _prefix_popcount(bm_phi.bits[:n] & bm_sigma.bits[:n], x)


@dataclass(frozen=True)
class ValuesTableRow:
    """One row of the value-count table at frontier N."""

    N: int
    v_phi: int
    v_sigma: int
    v_common: int
    ratio_phi: float
    ratio_sigma: float


def values_table(limits: list[int]) -> list[ValuesTableRow]:
    """Counts V_phi, V_sigma, V_common at each limit.

    One bitmap pair is built at max(limits) and every row is read off
    by prefix popcounts.  limits must be ascending positive integers.
    """
    if not limits:
        raise DomainError("need at least one limit")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise DomainError(f"limits must be strictly ascending, got {limits}")
    if limits[0] < 1:
        raise DomainError(f"limits must be >= 1, got {limits}")
    top = limits[-1]
    bm_phi = build_value_bitmap("phi", top)
    bm_sigma = build_value_bitmap("sigma", top)
    rows = []
    for n in limits:
        vp = count_values(bm_phi, n)
        vs = count_values(bm_sigma, n)
        vc = intersect_count(bm_phi, bm_sigma, n)
        rows.append(
            ValuesTableRow(
                N=n,
                v_phi=vp,
                v_sigma=vs,
                v_common=vc,
                ratio_phi=vc / vp,
                ratio_sigma=vc / vs,
            )
        )
    return rows


VALUES_CSV_HEADER = "N,V_phi,V_sigma,V_common,ratio_phi,ratio_sigma"


def values_table_csv(rows: list[ValuesTableRow]) -> str:
    """CSV rendering of a values table; ratios carry 7 decimals."""
    lines = [VALUES_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.N},{r.v_phi},{r.v_sigma},{r.v_common},"
            f"{r.ratio_phi:.7f},{r.ratio_sigma:.7f}"
        )
    return "\n".join(lines) + "\n"
