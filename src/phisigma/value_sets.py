"""Value sets of phi and sigma: enumeration, counting, intersection.

A ValueBitmap records one bit per integer v <= x, set exactly when v is
attained by the chosen function.  The preimage scan covers only the
residue classes that can still produce a value <= x, each up to its own
exact cutoff (scan_progressions): for sigma, odd n <= x and even
n <= 2x/3; for phi, the odd n by residue mod 30 and the n = 0 mod 4 by
residue mod 60, each class up to x times an exact bound on n/phi(n)
over the first primes the class allows (3 and 5 only where they divide
the residue), as many as phi(n) <= x leaves room for (_phi_class_top).
The same product bound gives phi_preimage_bound, a cutoff for all n.
At x = 10^7 that is 19.6M n, 34% of [2, phi_preimage_bound(x)].
n = 2 mod 4 is never scanned for phi, since its value phi(n/2) is
already found in the odd classes.

Memory: a bitmap over [0, x] costs (x+1)/8 bytes.  The build marks
values in a scratch array of x/2 + 2 bytes, one byte per even value
(the odd values are 1 and sigma's few at n = m^2, 2m^2), packed into
the bitmap at the end, and keeps one scan workspace per worker thread
for all of its windows (sieve.scan_bytes, 6.7 to 10.0 MB at the default
window size for x up to 10^8).  Each window's values are clipped in
place and marked by one fancy-index store, so no mask or filtered copy
is made.  All of it, with the pack's temporaries, is charged against
the memory budget before anything is allocated or any thread starts:
0.69 x bytes plus the workspaces.  On a 2-vCPU VM, values-table to
10^8 peaks at 96 MB of resident memory on one thread and 103 MB on two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .sieve import deal_windows, primes_up_to


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


_WHEEL = (3, 5)  # odd primes whose divisibility splits the phi classes
_ODD_PRIMES = primes_up_to(127)[1:].tolist()  # prod (q - 1) > 1e46 exceeds any x


def _phi_class_top(x: int, *, even: bool, excluded: tuple[int, ...]) -> int:
    """Largest n of one class with phi(n) <= x possible.

    The class is the odd n, or the n = 0 mod 4 when even, and of those
    only the n divisible by none of the primes in excluded (a residue
    mod 30 or 60 fixes which of the wheel primes 3 and 5 divide n).  Call
    the odd primes not in excluded the allowed primes, q_1 < q_2 < ...

    For n = 2^a m (a = 0, or a >= 2 when even), m odd with k distinct
    primes p_1 < ... < p_k, all allowed: p_i >= q_i, so
    phi(n) = phi(2^a) * prod p_i^(e_i - 1) (p_i - 1) >= c * prod_{i<=k} (q_i - 1)
    with c = phi(4) = 2 when even and c = 1 when odd.  Hence
    phi(n) <= x forces k <= K, the largest count with
    c * prod_{i<=K} (q_i - 1) <= x.  And n/phi(n) =
    (2 if a else 1) * prod_{i<=k} p_i/(p_i - 1) is at most the same
    product over the first k <= K allowed primes, since p/(p-1) falls as
    p grows; it is largest at k = K: call it R.  So phi(n) <= x forces
    n <= x * R, computed here exactly.  Leaving 3 out drops the factor
    3/2 from R and lets the next allowed prime in, whose factor is
    smaller.
    """
    c, num, den = (2, 2, 1) if even else (1, 1, 1)
    for q in _ODD_PRIMES:
        if q in excluded:
            continue
        if c * den * (q - 1) > x:
            break
        num *= q
        den *= q - 1
    return x * num // den


def phi_preimage_bound(x: int) -> int:
    """A bound B with phi(n) <= x implying n <= B; sound, not tight.

    B = 2 * top_odd, top_odd the top of the class of all odd n
    (_phi_class_top with no prime excluded).  Every n is covered: odd
    n <= top_odd; n = 2m with m odd has phi(n) = phi(m), so
    m <= top_odd; and for 4 | n, n <= x * R_even where K_even <= K_odd
    (the even product carries the factor c = 2), so R_even <= 2 R_odd
    and the integer n/2 is at most floor(x * R_odd) = top_odd.
    x = 1 gives B = 2: phi(n) <= 1 only for n = 1, 2.
    """
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    return 2 * _phi_class_top(x, even=False, excluded=())


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
    wheel = math.prod(_WHEEL)
    progressions = []
    for first, base, even in ((1, 2, False), (0, 4, True)):
        step = base * wheel
        for r in range(first, step, base):
            excluded = tuple(q for q in _WHEEL if r % q)
            top = _phi_class_top(x, even=even, excluded=excluded)
            progressions.append((r if r > 1 else r + step, step, top))
    return progressions


_SPREAD = np.array([sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256)],
                   dtype="<u2")  # bit i of a byte to bit 2i of two little-endian bytes


_NO_VALUES = np.empty(0, dtype=np.int64)


def _odd_sigma_slots(lo: int, step: int, size: int) -> np.ndarray:
    """The k < size with n = lo + k*step equal to m^2 or 2m^2 (m >= 1),
    exactly the n of the window with sigma(n) odd: sigma(n) is the
    product of 1 + p + ... + p^e over p^e || n, and for odd p that
    factor is odd iff e is even."""
    last = lo + (size - 1) * step
    slots = []
    for c in (1, 2):
        n = np.arange(math.isqrt((lo - 1) // c) + 1, math.isqrt(last // c) + 1, dtype=np.int64)
        n *= n
        n *= c
        n -= lo
        slots.append(n[n % step == 0] // step)
    return np.concatenate(slots)


def build_value_bitmap(f: str, x: int, *, threads: int = 1) -> ValueBitmap:
    """Enumerate the value set of f up to x into a bitmap.

    Only the progressions of scan_progressions are scanned, cut into
    windows of DEFAULT_SEGMENT_SIZE elements (cut_windows); every n
    outside them either has f(n) > x or shares its value with a scanned
    n.  The windows are dealt round robin to
    min(threads, windows, CPUs) workers (deal_windows): worker w scans
    every workers-th window from the w-th in one scan_windows call, on
    one workspace, and marks the even values v <= x in one shared
    scratch array, half[v >> 1] = True.  The stores are idempotent and
    nothing is read back, so the bytes never depend on the thread count.

    Every scanned phi value is even (n >= 3).  A window's odd sigma
    values sit at its m^2 and 2m^2 (_odd_sigma_slots): they are kept
    aside and their slots parked on the cap slot, where every value
    above x lands.  The scratch is then packed and spread to the even
    bits (_SPREAD), and bit 1 (f(1) = 1) and the odd values are set.

    Parameters
    ----------
    f : {'phi', 'sigma'}
    x : int
        Value-set frontier, x >= 1.
    threads : int
        Upper bound on worker threads, >= 1.
    """
    if f not in ("phi", "sigma"):
        raise DomainError(f"f must be 'phi' or 'sigma', got {f!r}")
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    want = {f"want_{f}": True}
    odd = f == "sigma"
    # sq bounds the m of any window's odd slots and the odd values kept: per
    # worker a window's odd slots (under 48 bytes per m), then the odd
    # values (16 bytes per m), the scratch, its packed bits and their
    # spread, the bitmap
    sq = math.isqrt(x) + 1
    packed_bytes = (x // 2 + 8) // 8
    scan = deal_windows(scan_progressions(f, x), threads, worker_bytes=48 * sq * odd,
                        shared_bytes=16 * sq * odd + x // 2 + 2 + 3 * packed_bytes,
                        what=f"value bitmap build at x={x}", **want)
    cap = x // 2 + 1  # the slot of 2 * cap, the first even value above x
    half = np.zeros(cap + 1, dtype=bool)

    def mark(first: int, step: int, got) -> np.ndarray:
        """Mark a window's even values; return its odd values <= x."""
        vals = got[f]  # the window's own array, changed in place
        kept = _NO_VALUES
        if odd:
            slots = _odd_sigma_slots(first, step, len(vals))
            odd_vals = vals[slots]
            kept = odd_vals[odd_vals <= x]
            vals[slots] = 2 * cap
        np.minimum(vals, 2 * cap, out=vals)
        vals >>= 1
        half[vals] = True
        return kept

    kept = scan(mark)
    packed = np.packbits(half[:cap], bitorder="little")
    del half
    bits = _SPREAD[packed].view(np.uint8)[: (x >> 3) + 1]
    if bits[0] & 1:
        raise AssertionError("value 0 can never be attained")
    bits[0] |= 2  # f(1) = 1 for both functions
    v = np.concatenate([_NO_VALUES, *kept])
    np.bitwise_or.at(bits, v >> 3, np.left_shift(1, v & 7).astype(np.uint8))
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


def values_table(limits: list[int], *, threads: int = 1) -> list[ValuesTableRow]:
    """Counts V_phi, V_sigma, V_common at each limit.

    One bitmap pair is built at max(limits), on up to `threads` worker
    threads, and every row is read off by prefix popcounts.  limits must
    be ascending positive integers.
    """
    if not limits:
        raise DomainError("need at least one limit")
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise DomainError(f"limits must be strictly ascending, got {limits}")
    if limits[0] < 1:
        raise DomainError(f"limits must be >= 1, got {limits}")
    top = limits[-1]
    bm_phi = build_value_bitmap("phi", top, threads=threads)
    bm_sigma = build_value_bitmap("sigma", top, threads=threads)
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
