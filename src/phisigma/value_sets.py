"""Value sets of phi and sigma: enumeration, counting, intersection.

A ValueBitmap records one bit per integer v <= x, set exactly when v is
attained by the chosen function.  The preimage scan covers only odd n,
by residue mod 30 for sigma and mod 90 for phi, which also skips the n
with exactly one factor 3, each class up to its own exact cutoff
(scan_progressions): x times an exact bound on n/f(n) over the class
(_class_top).  For sigma that is prod p/(p + 1) over the wheel primes
3, 5 dividing the residue; for phi, the product of p/(p - 1) over the
first odd primes the class allows (3 and 5 only where they divide the
residue), as many as phi(n) <= x leaves room for.  The same phi bound
gives phi_preimage_bound, a cutoff for all n.  At x = 10^7 that is 7.1M
n for phi, 12% of [2, phi_preimage_bound(x)], and 4.4M n for sigma.
The other n's values are the scanned n's times 2^j (phi) or a Mersenne
number 2^j - 1 (sigma), added by one pass over the scratch, the same
for both (build_value_bitmap).

Memory: a bitmap over [0, x] costs (x+1)/8 bytes.  The build marks
values in a scratch array of x/2 + 2 bytes, one byte per even value
(the odd values are 1 and sigma's few at odd squares n = m^2, with
their Mersenne multiples), packed into the bitmap at the end, and keeps
one scan workspace per worker thread for all of its windows, built on
the calling thread (sieve.scan_bytes, at the default window size 4.6,
5.3 and 6.2 MB for phi at x = 10^7, 10^8 and 10^9, and 4.2, 4.9 and
9.2 MB for sigma, of which 2.0 to 4.3 MB are the rows for one round
of prime-power pairs; sigma's lane is int64 from x = 6.2e8 on,
phi's from x = 1.36e9 on).  Each window's values are clipped in place
and marked by one fancy-index store, so no mask or filtered copy is
made, and the closure runs in place.  The scan's base primes are
sieved first, under their own charge; all the rest, with the pack's
temporaries, is charged against the memory budget in one request
before anything else is allocated or any thread starts: 0.69 x bytes
plus the workspaces.  On a 2-vCPU VM, values-table to 10^8 peaks at
96 MB of resident memory on one thread and 100 MB on two, and to 10^9
at 0.7 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .sieve import deal_windows


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


_WHEEL = (3, 5)  # odd primes whose divisibility splits the classes mod 30 and 90
# prod (q - 1) > 1e46 exceeds any x; by trial division: a sieve charges the budget
_ODD_PRIMES = [q for q in range(3, 128, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]


def _class_top(f: str, x: int, r: int) -> int:
    """Largest n of the odd class r mod 30 or 90 with f(n) <= x possible.

    The residue r fixes which of the wheel primes 3, 5 divide n; only
    r % 3 and r % 5 are read, so a class mod 90 has the top of its class
    mod 30.
    sigma: sigma(n)/n = prod_{p^e || n} (1 + 1/p + ... + 1/p^e) is at
    least prod (1 + 1/p) over the wheel primes p dividing r, so
    sigma(n) <= x forces n <= x * prod p/(p + 1).
    phi: the class excludes the wheel primes not dividing r; call the
    other odd primes the allowed ones, q_1 < q_2 < ...  An n of the class
    with k distinct primes p_1 < ... < p_k has p_i >= q_i, so
    phi(n) >= prod_{i<=k} (q_i - 1), and phi(n) <= x forces k <= K, the
    largest count with prod_{i<=K} (q_i - 1) <= x.  As p/(p-1) falls as
    p grows, n/phi(n) = prod_{i<=k} p_i/(p_i - 1) is at most R, the same
    product over the first K allowed primes, so n <= x * R.  Leaving 3
    out drops the factor 3/2 from R and lets the next allowed prime in,
    whose factor is smaller.
    Both tops are computed exactly.
    """
    num = den = 1
    if f == "sigma":
        for p in _WHEEL:
            if r % p == 0:
                num *= p
                den *= p + 1
        return x * num // den
    for q in _ODD_PRIMES:
        if q in _WHEEL and r % q:
            continue
        if den * (q - 1) > x:
            break
        num *= q
        den *= q - 1
    return x * num // den


def phi_preimage_bound(x: int) -> int:
    """A bound B with phi(n) <= x implying n <= B; sound, not tight.

    B = 2 * top_odd, top_odd = floor(x * R) the phi top of the class
    15 mod 30, which excludes no odd prime, so that top_odd and its K
    and R (_class_top) bound every odd n.  Every n is covered: odd
    n <= top_odd; and n = 2^a m with m odd and a >= 1 has
    phi(n) = 2^(a-1) phi(m) >= phi(m), so m has at most K distinct
    primes, and n/2 = phi(n) * m/phi(m) <= x * R, so the integer n/2 is
    at most top_odd.  x = 1 gives B = 2: phi(n) <= 1 only for n = 1, 2.
    """
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    return 2 * _class_top("phi", x, 15)


def scan_progressions(f: str, x: int) -> list[tuple[int, int, int]]:
    """The (start, step, top) progressions whose f-values cover those <= x.

    sigma: the 15 odd residue classes mod 30.  phi: the 35 odd residue
    classes r mod 90 with 3 not dividing r or 9 dividing r, so no odd n
    with exactly one factor 3 is scanned (phi(3m) = 2 phi(m), added by
    build_value_bitmap).  Each class runs up to its own top
    (_class_top), x times a bound on n/phi(n) or n/sigma(n) over the
    class.  Even n are not scanned: their values are odd n's values
    times 2^j (phi) or a Mersenne number 2^j - 1 (sigma), added by
    build_value_bitmap.  n = 1 is left out (f(1) = 1): the class 1
    starts at 1 + step.
    """
    step = 2 * math.prod(_WHEEL) * (3 if f == "phi" else 1)
    return [(r if r > 1 else r + step, step, _class_top(f, x, r)) for r in range(1, step, 2)
            if f == "sigma" or r % 3 or r % 9 == 0]


_SPREAD = np.array([sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256)],
                   dtype="<u2")  # bit i of a byte to bit 2i of two little-endian bytes


_NO_VALUES = np.empty(0, dtype=np.int64)


def _odd_sigma_slots(lo: int, step: int, size: int) -> np.ndarray:
    """The k < size with n = lo + k*step an odd square, exactly the odd n
    of the window with sigma(n) odd: sigma(n) is the product of
    1 + p + ... + p^e over p^e || n, and for odd p that factor is odd
    iff e is even."""
    n = np.arange(math.isqrt(lo - 1) + 1, math.isqrt(lo + (size - 1) * step) + 1, dtype=np.int64)
    n *= n
    n -= lo
    return n[n % step == 0] // step


def build_value_bitmap(f: str, x: int, *, threads: int = 1) -> ValueBitmap:
    """Enumerate the value set of f up to x into a bitmap.

    Only the odd n of scan_progressions are scanned, cut into windows of
    DEFAULT_SEGMENT_SIZE elements (cut_windows); every n outside them
    either has f(n) > x or has a value that the closure below derives
    from a scanned n's.  The windows are dealt round robin to
    min(threads, windows, CPUs) workers (deal_windows): worker w scans
    every workers-th window from the w-th on one workspace, and marks
    the even values v <= x in one shared scratch array,
    half[v >> 1] = True.  The stores are idempotent and nothing is read
    back, so the bytes never depend on the thread count.

    Every scanned phi value is even (n >= 3).  A window's odd sigma
    values sit at its odd squares (_odd_sigma_slots): they are kept
    aside and their slots parked on the cap slot, where every value
    above x lands.  After the join the scratch is closed (below), packed
    and spread to the even bits (_SPREAD), and the odd values are set.
    Value 2u sits at half[u].

    The scratch is closed, in place, under the multipliers M <= x of f:
    M = 2^a = 2, 4, 8, ... for phi, M = 2^(a+1) - 1 = 3, 7, 15, ... for
    sigma.  This is sound: every n >= 2 is 2^a m, m odd, with
    phi(n) = 2^(a-1) phi(m) for a >= 1 and sigma(n) = (2^(a+1) - 1)
    sigma(m), so the values <= x are exactly the M w <= x, M = 1 or a
    multiplier, w = f(m) for an odd m, and such an m is 1 (w = 1) or, as
    f(m) <= f(n) <= x, lies in a scanned class at or below its top.
    Each M multiplies only the scan's own values, which misses nothing:
    phi's multipliers are closed under products, and for sigma M M' w is
    in general no value.  phi skips the odd n = 3m with 3 not dividing
    m, as phi(3m) = 2 phi(m) with m = 1 or scanned, so phi(2^a 3m) =
    2^(a+1) phi(m) is again a multiplier times a scanned value or 1.
    With M_1 the least multiplier, the even w with
    M w <= x for some M are at most x/M_1, at u < (cap - 1)//M_1 + 1;
    the pass sets half[M u] |= half[u] for every M and every such u with
    M u < cap, by blocks [a, b) with b <= M_1 a, from the top block
    down.  A block's writes land at M u >= M_1 a >= b, above it and
    above every block read after it, so every slot read still holds what
    the scan left; the cap slot is never read or written; and read and
    written slots never overlap, so numpy makes no copy.  The odd w, 1
    and sigma's kept values, have no slot in the scratch: they are set
    straight into the bitmap times 1 and every M with M w <= x.

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
    # the multipliers <= x: 2, 4, 8, ... for phi, 3, 7, 15, ... for sigma
    mults = [(1 << j) - odd for j in range(1 + odd, (x + odd).bit_length())]
    # sq bounds the m of any window's odd slots and of the odd values kept:
    # per worker a window's odd slots (under 48 bytes per m), then the odd
    # values and one multiplier's multiples of them (under 32 bytes per m),
    # the scratch, its packed bits and their spread, the bitmap
    sq = math.isqrt(x) + 1
    packed_bytes = (x // 2 + 8) // 8
    scan = deal_windows(scan_progressions(f, x), threads, worker_bytes=48 * sq * odd,
                        shared_bytes=32 * sq * odd + x // 2 + 2 + 3 * packed_bytes,
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
        np.minimum(vals, 2 * cap, out=vals)  # 2 cap <= x + 2 fits the lane, whose bound exceeds x
        vals >>= 1
        half[vals] = True
        return kept

    kept = scan(mark)
    b = (cap - 1) // mults[0] + 1 if mults else 0  # u < b is exactly mults[0] u < cap
    while b > 1:
        a = -(-b // mults[0])  # the block [a, b) has b <= mults[0] a
        for m in mults:
            k = min(b, (cap - 1) // m + 1)  # u < k is exactly m u < cap
            if k <= a:
                break
            half[m * a:m * k:m] |= half[a:k]
        b = a
    packed = np.packbits(half[:cap], bitorder="little")
    del half
    bits = _SPREAD[packed].view(np.uint8)[: (x >> 3) + 1]
    if bits[0] & 1:
        raise AssertionError("value 0 can never be attained")
    w = np.concatenate([np.ones(1, dtype=np.int64), *kept])  # the odd w: f(1) = 1, kept
    for m in [1, *mults]:
        v = w[w <= x // m] * m
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
