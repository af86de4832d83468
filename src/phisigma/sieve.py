"""Segmented sieving primitives.

Prime generation, smallest-prime-factor windows (and the odd-only
table of structure.r_l_sum, odd_factor_table), per-integer
factorization, bulk evaluation of the multiplicative functions phi
(Euler totient) and sigma (sum of divisors) over ranges, and the exact
sum of doubles that r_l_sum's workers reduce their terms by (fixed_sum).

factorize is the one scalar factorizer: it reads each prime from a
FactorSieve's spf table while the cofactor lies in the window, and
finds it by trial division otherwise, or when no sieve is given.

The bulk scan (segment_scan) covers an arithmetic progression
lo, lo+step, ... < hi, its base primes in two bands.  A tiny prime,
p <= TINY_PRIME_THRESHOLD or p <= the largest prime factor of step, is
sliced at every power p^j.  No other prime divides step: one inverse
table gives its first hit, and that of p^(j+1) is lifted from that of
p^j (Hensel), in one loop over j (_slice_or_pair): a power that hits
the window at least SLICE_HITS times is sliced, the rarer ones share
one pair pass per exponent (_apply_pairs), expanded at once into rows
that a proven bound sizes.
deal_windows is the one window loop and segment_scan's one caller: it
cuts a list of progressions into windows of DEFAULT_SEGMENT_SIZE
elements (cut_windows), sieves the base primes under their own charge,
charges the rest once, builds the inverse table and, on the calling
thread, every worker's workspace (_Workspace), which carries the deal,
and deals the windows round robin to worker threads.  Each worker fills
its workspace in place at every window, as the bucket sieve reuses its
fixed window buffers: freed and allocated afresh, arrays of this size
would fault their pages back in at every window.  phi and sigma are
updated in place, by the factor each prime power adds (sigma trades
1 + ... + p^(j-1) for 1 + ... + p^j by exact division), so neither
needs a buffer beside its own array.

Inputs are capped at 10**12.  A deal carries the remainder, phi and
sigma in one lane dtype, chosen from the last integer it scans, top:
np.uint32 when every value they can hold is below 2**32, np.int64
otherwise.  Every such value is bounded: the remainder divides n <= top,
and the sigma fold writes rem + 1 <= top + 1; phi holds phi(d) <= d for
a divisor d of n, so at most top; sigma holds sigma(d) <= sigma(n) for
a divisor d of n, and the factors it multiplies in and divides out are
sigma(p^j) for prime powers p^j | n, so at most sigma(n) < 7n <= 7 top.
sigma(n) < 7n for n <= 10**12: Robin's unconditional bound (J. Math.
Pures Appl. 63 (1984) 187-213), sigma(n) < e^gamma n log log n +
0.6483 n/log log n for n >= 3, over n is convex in log log n, so on
[4, 10**12] it is at most its value at an end, 2.57 at n = 4 and 6.11
at n = 10**12; and sigma(n)/n <= 3/2 for n <= 3.  The hits are int64
on both lanes: a base prime is at most 10**6 (callers keep smooth_bound
there), so (c mod p) * inv < p^2 <= 10**12 in a first hit, and a lift
adds t p^j < p^(j+1) <= last, the window's last integer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import DomainError, ResourceError, check_allocation

INPUT_CAP = 10**12

DEFAULT_SEGMENT_SIZE = 1 << 18

TINY_PRIME_THRESHOLD = 23  # base primes up to it, and up to step's largest factor, slice every power

SLICE_HITS = 512  # a lifted power p^j <= size // SLICE_HITS is sliced, a larger one paired

SPF_PRIME_SENTINEL = 0  # spf entry meaning "no base prime divides; n is prime"


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array.

    Parameters
    ----------
    limit : int
        Upper bound (inclusive).  limit < 2 yields an empty array.
        The sieve's mask and the primes are charged in one request.
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > INPUT_CAP:
        raise ResourceError(f"prime sieve to {limit} exceeds the 10^12 input cap")
    check_allocation(limit + 1 + 8 * prime_count_bound(limit), f"prime sieve to {limit}")
    prime = composite_mask(limit)
    np.logical_not(prime, out=prime)
    return np.flatnonzero(prime).astype(np.int64, copy=False)


def prime_count_bound(x: int) -> int:
    """An upper bound on pi(x): pi(x) < 1.25506 x / log x for x > 1
    (Rosser and Schoenfeld, Illinois J. Math. 6 (1962), (3.6))."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


def composite_mask(limit: int) -> np.ndarray:
    """Boolean mask over [0, limit], True at 0, 1 and every composite.

    The caller charges its limit + 1 bytes, with what it holds beside it.
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return composite


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.pairs:
            if p <= last or e < 1:
                raise DomainError(f"invalid factorization pairs {self.pairs}")
            last = p

    @property
    def n(self) -> int:
        """The factored integer (empty product is 1)."""
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def big_omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.pairs)

    def primes_descending(self) -> list[int]:
        """Prime factors repeated by multiplicity, largest first."""
        out: list[int] = []
        for p, e in reversed(self.pairs):
            out.extend([p] * e)
        return out


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for the window [window_lo, window_hi).

    spf holds one uint32 per integer in the window; the sentinel 0 means
    the integer has no prime factor <= sqrt(window_hi - 1), i.e. it is
    prime.  Immutable after construction; safe for concurrent reads.
    """

    window_lo: int
    window_hi: int
    spf: np.ndarray = field(repr=False)

    def covers(self, n: int) -> bool:
        return self.window_lo <= n < self.window_hi


def build_factor_sieve(lo: int, hi: int) -> FactorSieve:
    """Build the smallest-prime-factor table for [lo, hi).

    Parameters
    ----------
    lo, hi : int
        Window bounds, 2 <= lo < hi <= 10**12 + 1.
    """
    if not 2 <= lo < hi:
        raise DomainError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > INPUT_CAP:
        raise ResourceError(f"window end {hi} exceeds the 10^12 input cap")
    size = hi - lo
    root = math.isqrt(hi)
    # the table, and each base prime as int64 and as a listed Python int
    check_allocation(4 * size + 44 * prime_count_bound(root), f"spf window [{lo}, {hi})")
    spf = np.zeros(size, dtype=np.uint32)
    for p in reversed(primes_up_to(root).tolist()):  # each smaller p overwrites
        start = (-lo) % p
        if start < size:  # the windows near 10^12 miss most base primes
            spf[start::p] = p
    return FactorSieve(window_lo=lo, window_hi=hi, spf=spf)


def odd_factor_table(x: int) -> np.ndarray:
    """build_factor_sieve(3, x + 1).spf[::2], x >= 1, as int32: over the
    odd n = 2i + 3 <= x, the smallest prime factor of a composite n, n
    for a prime n <= isqrt(x + 1) and 0 for a larger one.

    Filled in place: each odd prime p <= isqrt(x + 1), from the largest
    down so that smaller ones overwrite, marks its odd multiples from p
    on, so no table over the even n exists.  The caller charges its 2
    bytes per integer.
    """
    tab = np.zeros((x - 1) // 2, dtype=np.int32)
    for p in reversed(primes_up_to(math.isqrt(x + 1))[1:].tolist()):
        tab[(p - 3) // 2 :: p] = p
    return tab


SUM_SHIFT = 1126  # 2^-1074 = 2^52 2^-1126: times 2^1126, every finite double is an integer


def fixed_sum(values: np.ndarray) -> int:
    """The exact sum of at most 2^26 finite float64 values, times
    2^SUM_SHIFT, as an int; fixed_to_float rounds such sums.

    np.frexp writes a value as frac 2^ex with frac in [0.5, 1) in
    magnitude (or 0), subnormals included, so it is m 2^(ex - 53) with
    m = frac 2^53 an integer, |m| < 2^53, and ex - 53 + SUM_SHIFT >= 0.
    m splits into a 27-bit half hi = floor(frac 2^27) and a 26-bit half
    lo = m - hi 2^26, 0 <= lo < 2^26, both exact in float64.
    np.bincount sums each half per binade: at most 2^26 halves of at
    most 2^27 in magnitude keep every partial sum an integer of at most
    2^53, so it is exact in whatever order they are added, and the
    buckets are shifted into one int.
    """
    ex = np.empty(len(values), dtype=np.intp)
    frac = np.frexp(values, out=(None, ex))[0]
    frac *= 2.0**27  # hi + lo 2^-26
    hi = np.floor(frac)
    frac -= hi
    frac *= 2.0**26  # lo
    ex += SUM_SHIFT - 53
    his, los = np.bincount(ex, weights=hi), np.bincount(ex, weights=frac)
    return sum(((int(his[b]) << 26) + int(los[b])) << b
               for b in np.flatnonzero(np.logical_or(his, los)).tolist())


def fixed_to_float(total: int) -> float:
    """total 2^-SUM_SHIFT, correctly rounded, ties to even.

    CPython's int / int rounds correctly, as math.fsum does (Shewchuk,
    Discrete Comput. Geom. 18 (1997) 305-363), so the float of a
    fixed_sum is math.fsum's of the same values, bit for bit.
    """
    return total / (1 << SUM_SHIFT)


def factorize(n: int, sieve: FactorSieve | None = None) -> Factorization:
    """Factor n >= 1, primes ascending.

    The power of 2 is read off the lowest set bit of n.  Each odd prime
    is read from the sieve's spf table while the cofactor lies in its
    window; otherwise it is found by trial division by odd d, starting
    after the last prime found.  With no sieve this is plain trial
    division.  Any n >= 1 is accepted, in the window or not.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    e = (n & -n).bit_length() - 1
    pairs = [(2, e)] if e else []
    m, d = n >> e, 3  # m is odd, and no prime below d divides it
    while m > 1:
        if sieve is not None and sieve.covers(m):
            p = int(sieve.spf[m - sieve.window_lo])
            if p == SPF_PRIME_SENTINEL:
                p = m
        else:
            while d * d <= m and m % d:
                d += 2
            p = d if d * d <= m else m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
        d = p + 2
    return Factorization(tuple(pairs))


def phi_of(fact: Factorization) -> int:
    """Euler totient from a factorization, exact."""
    out = 1
    for p, e in fact.pairs:
        out *= p ** (e - 1) * (p - 1)
    return out


def sigma_of(fact: Factorization) -> int:
    """Sum of divisors from a factorization, exact."""
    out = 1
    for p, e in fact.pairs:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def _multiples(lo: int, step: int, q: int) -> tuple[int, int] | None:
    """(first index, stride) of the k with q | lo + k*step; None if no k.

    With g = gcd(step, q), q | lo + k*step needs g | lo and then
    k = -(lo/g) * (step/g)^-1 (mod q/g).
    """
    g = math.gcd(step, q)
    if lo % g:
        return None
    m = q // g
    return (-(lo // g)) * pow(step // g, -1, m) % m, m


PAIR_BYTES = 8  # a pair's index; its prime and factor are in the lane

PRIME_BYTES = 120  # a window's first and lifted hit, p, p^j, inverse, counts and temporaries

INVERSE_BYTES = 8  # a prime's entry in the inverse table

SCAN_OVERHEAD = 1 << 16  # numpy's casting buffers (8192 elements) and the window's objects


def scan_bytes(size: int, rows: int, primes: int, lane, *, want_phi: bool = False,
               want_sigma: bool = False, want_omega: bool = False) -> int:
    """Bytes a scan workspace of `size` elements and `rows` pair rows in
    the `lane` dtype, its inverse table and one segment_scan window on
    it hold at their peak, with `primes` base primes above the tiny band,
    the ones with an entry in the inverse table.

    The workspace's buffers (_Workspace), per element: the remainder and
    each wanted array, in the lane but Omega, and the fold's mask.  Per
    row, one (index, p) pair of a round (_apply_pairs) at PAIR_BYTES plus
    the prime's and the factor's lane.  Per prime above the tiny band its
    inverse at INVERSE_BYTES and a window's hit, p^j and Hensel arrays at
    PRIME_BYTES, int64 for (c mod p) * inv < p^2 and t p^j < p^(j+1) (see
    the module).  And SCAN_OVERHEAD once.
    """
    b = np.dtype(lane).itemsize
    per_entry = b + b * want_phi + b * want_sigma + 2 * want_omega + 1
    per_prime = PRIME_BYTES + INVERSE_BYTES
    return per_entry * size + (PAIR_BYTES + 2 * b) * rows + per_prime * primes + SCAN_OVERHEAD


class _Workspace:
    """One worker's buffers for segment_scan's windows of up to `size`
    elements, and the deal they scan: `deal` is (base, n_tiny, inv,
    step), shared by every worker and only read, the base primes, the
    index of the first above the tiny band, (-step)^-1 mod p for every
    base prime from n_tiny on, and the step.

    The buffers: the remainder, the wanted phi and sigma, all in the
    deal's `lane` dtype, and omega (each updated in place, with no buffer
    beside it), the fold's rem > 1 mask, and the index and factor of
    `rows` pairs, as many as any round of _apply_pairs expands.

    deal_windows builds one per worker on the calling thread, after
    charging its scan_bytes and before any thread starts, so its windows
    allocate no array per element and fault no fresh pages.
    """

    def __init__(self, size: int, rows: int, lane, deal, *, want_phi: bool, want_sigma: bool,
                 want_omega: bool):
        self.base, self.n_tiny, self.inv, self.step = deal
        self.rem = np.empty(size, dtype=lane)
        self.phi = np.empty(size, dtype=lane) if want_phi else None
        self.sigma = np.empty(size, dtype=lane) if want_sigma else None
        self.omega = np.empty(size, dtype=np.int16) if want_omega else None
        self.big = np.empty(size, dtype=bool) if want_phi or want_sigma or want_omega else None
        self.index = np.empty(rows, dtype=np.int64)
        self.factor = np.empty(rows, dtype=lane)


def segment_scan(ws: _Workspace, lo: int, hi: int, *, want_phi: bool, want_sigma: bool,
                 want_omega: bool, smooth_bound: int | None):
    """Vectorized factor scan of the progression lo, lo+step, ... < hi,
    one window of a deal (deal_windows), which has checked its bounds,
    on the worker's workspace ws, which carries the deal's step and base
    primes and holds buffers for the wanted arrays.  deal_windows passes
    the keywords that built ws; they also name the window's scan to a
    wrapper, as bench/child.py reads them with hi - lo.

    Divides every scanned integer by the base primes, those up to the
    sqrt of the window's last element, all that exact phi/sigma/Omega
    need, or up to smooth_bound when it is set, for smoothness tests,
    where only the divided remainder matters.

    The base primes fall into the module's two bands.  A tiny prime is
    sliced at every power p^j up to the last element, on the strided
    slice of indices k with p^j | lo + k*step (_multiples).  The powers
    of the other primes are found and divided out by _slice_or_pair,
    each on a slice when it hits the window at least SLICE_HITS times,
    in one pair pass per exponent otherwise.

    The slice for p^j divides the remainder by p and adds 1 to Omega.
    phi and sigma are built in place as products over the prime powers
    p^e || n: phi multiplies by p - 1 on the p-slice and by p on each
    p^j-slice (j >= 2), giving p^(e-1) (p - 1); sigma, on each
    p^j-slice, divides out 1 + p + ... + p^(j-1), exactly (nothing for
    j = 1), and multiplies in 1 + p + ... + p^j, giving
    1 + p + ... + p^e.

    Whatever remains above 1 after the base primes is a single prime
    factor (for exact modes) and is folded in last.

    Every array is filled in place in ws, so the arrays returned are
    overwritten by its next window.

    Returns a dict with any of:
      'phi', 'sigma' : arrays of exact values, in the workspace's lane
                       dtype (np.uint32 or np.int64, see the module),
      'omega'        : int16 array of Omega(n) (with multiplicity),
      'rem'          : lane array of remainders after dividing out the
                       base primes (only when smooth_bound is set).
    Element k of each array belongs to lo + k*step.
    """
    step, base, n_tiny = ws.step, ws.base, ws.n_tiny
    size = (hi - lo + step - 1) // step
    last = lo + (size - 1) * step
    top = smooth_bound if smooth_bound is not None else math.isqrt(last)
    n_top = int(np.searchsorted(base, top, "right"))

    rem, phi, sigma, omega = (None if a is None else a[:size] for a in
                              (ws.rem, ws.phi, ws.sigma, ws.omega))
    rem[0] = lo  # lo, lo + step, ... by doubling: no ramp array, no slow cumsum
    k = 1
    while k < size:
        np.add(rem[: min(k, size - k)], k * step, out=rem[k : 2 * k])
        k *= 2
    if want_phi:
        phi.fill(1)
    if want_sigma:
        sigma.fill(1)
    if want_omega:
        omega.fill(0)

    def divide(sl, p, q, s):
        """Divide p out of the slice of p^j = q, with s = 1 + ... + p^(j-1)."""
        r = rem[sl]
        r //= p
        if want_omega:
            o = omega[sl]
            o += 1
        if want_phi:
            ph = phi[sl]
            ph *= p - 1 if q == p else p
        if want_sigma:
            sg = sigma[sl]
            if q > p:
                sg //= s
            sg *= s * p + 1

    for p in base[: min(n_tiny, n_top)].tolist():
        q, s = p, 1  # q = p^j, s = 1 + p + ... + p^(j-1)
        while q <= last:
            hit = _multiples(lo, step, q)
            if hit is None or hit[0] >= size:
                break
            divide(slice(hit[0], size, hit[1]), p, q, s)
            s = s * p + 1
            q *= p

    if n_top > n_tiny:
        _slice_or_pair(lo, base[n_tiny:n_top], ws.inv[: n_top - n_tiny], divide,
                       rem, phi, sigma, omega, ws)

    # branch-free: rem + big and rem - big are p + 1 and p - 1 where a
    # prime p is left and 1 where rem = 1, sigma's and phi's factors with
    # no masked multiply; rem is restored after each use
    if want_phi or want_sigma or want_omega:
        big = np.greater(rem, 1, out=ws.big[:size])
    if want_omega:
        omega += big
    if want_sigma:
        rem += big
        sigma *= rem
        rem -= big
    if want_phi:
        rem -= big
        phi *= rem
        rem += big

    out = dict(phi=phi, sigma=sigma, omega=omega, rem=None if smooth_bound is None else rem)
    return {key: arr for key, arr in out.items() if arr is not None}


def _slice_or_pair(lo, primes, inv, divide, rem, phi, sigma, omega, ws) -> None:
    """Divide every power of the primes, ascending and prime to step =
    ws.step, out of the window lo, lo+step, ... that rem covers, updating
    phi, sigma and omega (those not None).  inv[i] is (-step)^-1 mod
    primes[i].

    One round per exponent j, over the indices k_j, k_j + p^j, ... <
    size with p^j | lo + k*step.  The first hit is k_1 = (lo mod p) *
    inv mod p, and Hensel gives k_(j+1) = k_j + p^j t, t = c * inv mod p
    for c = (lo + k_j*step)/p^j, as c + t*step = 0 mod p.  A prime
    leaves once k_j >= size (k_j only grows) or p^(j+1) > last, the last
    element.  In int64, lo + k_j*step <= last, (c mod p) * inv < p^2 <=
    10**12 and t p^j < p^(j+1) <= last.

    A power q = p^j <= size // SLICE_HITS, a prefix of the round's
    powers, hits the window at least SLICE_HITS times and is sliced by
    segment_scan's divide.  The rarer ones hit it too seldom to pay for
    numpy calls of their own, so they share one vectorized pass
    (_apply_pairs), as in the bucket sieve of T. Oliveira e Silva,
    S. Herzog and S. Pardi (Math. Comp. 83 (2014) 2033-2060).
    """
    size, step = len(rem), ws.step
    last = lo + (size - 1) * step
    k = lo % primes * inv % primes
    hit = k < size  # a prime that misses the window misses it at every power
    p, k, inv = primes[hit], k[hit], inv[hit]
    q, j = p, 1  # q = p^j
    while len(p):
        cut = int(np.searchsorted(q, size // SLICE_HITS, "right"))  # the sliced prefix
        for pi, qi, ki in zip(p[:cut].tolist(), q[:cut].tolist(), k[:cut].tolist()):
            divide(slice(ki, size, qi), pi, qi, (qi - 1) // (pi - 1))
        if cut < len(p):
            _apply_pairs(j, k[cut:], q[cut:], p[cut:], rem, phi, sigma, omega, ws)
        n = int(np.count_nonzero(q <= last // p))  # p^(j+1) <= last: a prefix of the primes
        p, k, q, inv = p[:n], k[:n], q[:n], inv[:n]
        k += (lo + k * step) // q % p * inv % p * q
        q, j = q * p, j + 1
        hit = k < size
        p, k, q, inv = p[hit], k[hit], q[hit], inv[hit]


def _apply_pairs(j, first, stride, primes, rem, phi, sigma, omega, ws) -> None:
    """Divide primes[i] out of rem at first[i], first[i] + stride[i], ...
    < size, stride[i] = primes[i]^j, and update phi, sigma and omega
    (those not None) as segment_scan's slices for p^j do.

    Every first[i] is below size.  The round is expanded at once into
    (index, p) pairs on the workspace's rows, the index by one cumsum
    over the strides, and applied by ufunc.at, which applies every pair
    even where two primes share an index.

    The rows hold every round of every window of the deal.  In round j
    a power q = p^j is paired only when q > w // SLICE_HITS, w the
    window's length, and it then hits the window at most ceil(w/q)
    times.  As w/q < SLICE_HITS, that is at most min(ceil(size/p),
    SLICE_HITS), size the deal's longest window, and a round holds each
    prime once, so rows = sum min(ceil(size/p), SLICE_HITS) over the
    base primes above the tiny band (deal_windows) bounds it.  A round
    with more pairs would make np.power below raise on the shape: it is
    never truncated.
    """
    count = (len(rem) - 1 - first) // stride + 1  # hits
    p = np.repeat(primes.astype(rem.dtype, copy=False), count)
    idx, fac = ws.index[: len(p)], ws.factor[: len(p)]
    # idx by one cumsum: the stride inside a group, the jump to first at its start
    np.power(p, j, out=idx)
    starts = np.cumsum(count) - count
    idx[starts[0]] = first[0]
    idx[starts[1:]] = first[1:] - (first[:-1] + (count[:-1] - 1) * stride[:-1])
    np.cumsum(idx, out=idx)
    if omega is not None:
        np.add.at(omega, idx, np.int16(1))
    np.floor_divide.at(rem, idx, p)
    if phi is not None:
        np.multiply.at(phi, idx, np.subtract(p, 1, out=fac) if j == 1 else p)
    if sigma is not None:
        fac.fill(1)
        for _ in range(j - 1):  # 1 + p + ... + p^(j-1)
            fac *= p
            fac += 1
        if j > 1:
            np.floor_divide.at(sigma, idx, fac)
        fac *= p
        fac += 1
        np.multiply.at(sigma, idx, fac)


def cut_windows(progressions) -> list[tuple[int, int, int]]:
    """The (lo, step, last) of every window of DEFAULT_SEGMENT_SIZE
    elements (read at each call) of the progressions (start, step, top),
    start, start+step, ... <= top, in order; an empty progression has
    none.  A window is itself such a progression, cut into one window."""
    size = DEFAULT_SEGMENT_SIZE
    return [(lo, step, min(lo + step * (size - 1), top))
            for start, step, top in progressions
            for lo in range(start, top + 1, step * size)]


def power_of_2_prefixes(lo: int, step: int, size: int, x: int):
    """(a, k_a) for a = 0, 1, ... while k_a > 0: the m <= x >> a, 2^a m <= x, of the
    window lo, lo+step, ... of `size` elements are its first k_a elements."""
    a = 0
    while x >> a >= lo:
        yield a, min(size, ((x >> a) - lo) // step + 1)
        a += 1


def deal_windows(progressions, threads: int, *, worker_bytes: int = 0, shared_bytes: int = 0,
                 what: str, want_phi: bool = False, want_sigma: bool = False,
                 want_omega: bool = False, smooth_bound: int | None = None):
    """Deal the windows (cut_windows) of the progressions, which must
    start at 2 or above, end at 10**12 or below and share one step >= 1,
    longest first, round robin to min(threads, windows, CPUs) workers
    (workers.worker_count).

    First sieve the base primes, those <= sqrt of the last integer
    scanned or <= smooth_bound when it is set, under primes_up_to's own
    charge.  Then charge, before anything else is allocated or any
    thread starts, in one check_allocation: per worker a scan workspace
    for the longest window (scan_bytes), with the rows of _apply_pairs's
    bound and an inverse per base prime above the tiny band, in the lane
    dtype that the last integer scanned and the wants decide (see the
    module), and worker_bytes, and shared_bytes once.  Then build the
    step's inverse table, once for all workers.

    Returns run(consume).  It builds every worker's workspace
    (_Workspace) on the calling thread, then runs the workers
    (workers.run_workers): worker w fills its workspace with a
    segment_scan of each of windows[w::workers], with the want_* and
    smooth_bound keywords, and calls consume(first, step, scan) on it,
    where first is the window's first integer, so element k of each of
    scan's arrays belongs to first + k*step.  The arrays are overwritten
    by the worker's next window: consume or copy them first.  run
    returns what consume returned for every window, grouped by worker,
    so how the caller combines them must not depend on their order.
    Worker loads differ by at most one window in count and by at most
    the longest window in elements: in each round of the deal a worker's
    window is no shorter than any later worker's, nor than any of the
    next round's.
    """
    if threads < 1:
        raise DomainError(f"need threads >= 1, got {threads}")
    if any(start < 2 or step < 1 for start, step, _ in progressions):
        raise DomainError(f"need starts >= 2 and steps >= 1, got {progressions}")
    # the last integer scanned, checked before a window is cut: past the
    # cap, the list of windows alone could exhaust memory
    top = max((start + (last - start) // step * step
               for start, step, last in progressions if last >= start), default=0)
    if top > INPUT_CAP:
        raise ResourceError(f"window end {top} exceeds the 10^12 input cap")
    windows = cut_windows(progressions)
    steps = {step for _, step, _ in windows} or {1}  # no window: any step will do
    if len(steps) > 1:
        raise DomainError(f"need progressions of one step, got steps {sorted(steps)}")
    (step,) = steps
    windows.sort(key=lambda w: (w[2] - w[0]) // w[1], reverse=True)  # longest first
    n_workers = workers.worker_count(threads, len(windows), os.cpu_count())
    size = max(((last - lo) // step + 1 for lo, _, last in windows), default=0)
    base = primes_up_to(math.isqrt(top) if smooth_bound is None else smooth_bound)
    # a base prime above the tiny band, p > max(23, step's primes), has an inverse
    tiny = max([TINY_PRIME_THRESHOLD, *(p for p, _ in factorize(step).pairs)])
    n_tiny = int(np.searchsorted(base, tiny, "right"))
    rows = int(np.minimum(-(-size // base[n_tiny:]), SLICE_HITS).sum())  # see _apply_pairs
    wants = dict(want_phi=want_phi, want_sigma=want_sigma, want_omega=want_omega)
    # the lane: every value it holds is below top + 1, or 7 top with sigma (see the module)
    lane = np.uint32 if max(top + 1, 7 * top * want_sigma) < 1 << 32 else np.int64
    check_allocation(n_workers * (scan_bytes(size, rows, len(base) - n_tiny, lane, **wants)
                                  + worker_bytes) + shared_bytes, f"{what} on {n_workers} workers")
    inv = np.array([pow(-step, -1, p) for p in base[n_tiny:].tolist()], dtype=np.int64)
    deal = (base, n_tiny, inv, step)

    def run(consume) -> list:
        spaces = [_Workspace(size, rows, lane, deal, **wants) for _ in range(n_workers)]
        results = [[] for _ in range(n_workers)]

        def scan(w: int):
            for lo, _, last in windows[w::n_workers]:
                got = segment_scan(spaces[w], lo, last + 1, smooth_bound=smooth_bound, **wants)
                results[w].append(consume(lo, step, got))
                yield

        workers.run_workers(n_workers, scan)
        return [r for part in results for r in part]

    return run


def segment_map(lo: int, hi: int, which: str = "both"):
    """Exact phi and/or sigma over [lo, hi).

    Parameters
    ----------
    lo, hi : int
        Range bounds, 2 <= lo < hi.
    which : {'phi', 'sigma', 'both'}
        Which arrays to produce.

    Returns
    -------
    np.ndarray or (np.ndarray, np.ndarray)
        Element k holds f(lo + k).  For 'both', the pair (phi, sigma).
        The caller owns them: one worker's deal (deal_windows), which
        charges them too, copies each window into place.
    """
    if which not in ("phi", "sigma", "both"):
        raise DomainError(f"which must be phi|sigma|both, got {which!r}")
    if not 2 <= lo < hi:
        raise DomainError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    keys = ("phi", "sigma") if which == "both" else (which,)
    scan = deal_windows([(lo, 1, hi - 1)], 1, shared_bytes=8 * len(keys) * (hi - lo),
                        what=f"segment map [{lo}, {hi})", **{f"want_{k}": True for k in keys})
    out = [np.empty(hi - lo, dtype=np.int64) for _ in keys]

    def place(first, step, got):
        for key, arr in zip(keys, out):
            arr[first - lo : first - lo + len(got[key])] = got[key]

    scan(place)
    return tuple(out) if which == "both" else out[0]
