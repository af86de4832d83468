"""Segmented sieving primitives.

Prime generation, smallest-prime-factor windows, per-integer
factorization, and bulk evaluation of the multiplicative functions
phi (Euler totient) and sigma (sum of divisors) over ranges.

factorize is the one scalar factorizer: it reads each prime from a
FactorSieve's spf table while the cofactor lies in the window, and
finds it by trial division otherwise, or when no sieve is given.

The bulk scan (segment_scan) covers an arithmetic progression
lo, lo+step, ... < hi, its base primes in three bands.  A tiny prime,
p <= TINY_PRIME_THRESHOLD or p <= the largest prime factor of step, is
sliced at every power p^j, and a mid one, up to
max(LARGE_PRIME_THRESHOLD, step), at its first power only: each slice
touches only integers it changes.  The other prime powers share one
pair pass per window (_large_prime_pass).  No prime above the tiny band
divides step: one inverse table gives its first hit, and that of
p^(j+1) is lifted from that of p^j (Hensel).
deal_windows is the one window loop and segment_scan's one caller: it
cuts a list of progressions into windows of DEFAULT_SEGMENT_SIZE
elements (cut_windows), charges them once, sieves the base primes and
builds the inverse table once, and deals the windows round robin to
worker threads.  Each worker fills one workspace (_Workspace) in place
at every window, as the bucket sieve reuses its fixed window buffers:
freed and allocated afresh, arrays of this size would fault their
pages back in at every window.  phi and sigma are updated in place, by
the factor each prime power adds (sigma trades 1 + ... + p^(j-1) for
1 + ... + p^j by exact division), so neither needs a buffer beside its
own array.

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

LARGE_PRIME_THRESHOLD = 512  # base primes above it, and above step, go through _large_prime_pass

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


def factorize(n: int, sieve: FactorSieve | None = None) -> Factorization:
    """Factor n >= 1, primes ascending.

    Each prime is read from the sieve's spf table while the cofactor
    lies in its window; otherwise the next prime is found by trial
    division, starting after the last prime found, since no smaller
    prime divides the cofactor.  With no sieve this is plain trial
    division.  Any n >= 1 is accepted, in the window or not.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    pairs = []
    m = n
    d = 2  # no prime below d divides m; d is 2 or odd
    while m > 1:
        if sieve is not None and sieve.covers(m):
            p = int(sieve.spf[m - sieve.window_lo])
            if p == SPF_PRIME_SENTINEL:
                p = m
        else:
            while d * d <= m and m % d:
                d += 1 if d == 2 else 2
            p = d if d * d <= m else m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
        d = p + 1 if p == 2 else p + 2
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


def scan_bytes(size: int, primes: int, lane, *, want_phi: bool = False,
               want_sigma: bool = False, want_omega: bool = False) -> int:
    """Bytes a scan workspace of `size` elements in the `lane` dtype, its
    inverse table and one segment_scan window on it hold at their peak,
    with `primes` base primes (an upper bound will do) above the tiny
    band, the ones with an entry in the inverse table.

    The workspace's buffers (_Workspace), per element: the remainder and
    each wanted array, in the lane but Omega, and the fold's mask.  When
    any prime is above the tiny band, one batch of (index, p) pairs
    (_pair_batch) at PAIR_BYTES plus the prime's and the factor's lane,
    and per such prime its inverse at INVERSE_BYTES and a window's hit,
    p^j and Hensel arrays at PRIME_BYTES, int64 for (c mod p) * inv <
    p^2 and t p^j < p^(j+1) (see the module).  And SCAN_OVERHEAD once.
    """
    b = np.dtype(lane).itemsize
    per_entry = b + b * want_phi + b * want_sigma + 2 * want_omega + 1
    pairs = _pair_batch(size) if primes else 0
    per_prime = PRIME_BYTES + INVERSE_BYTES
    return per_entry * size + (PAIR_BYTES + 2 * b) * pairs + per_prime * primes + SCAN_OVERHEAD


def _pair_batch(size: int) -> int:
    """Most (index, p) pairs expanded at once in a window of `size`.

    A prime p > 4 hits the window at most ceil(size/p) <= size//4 + 1
    times at any power, so every batch holds at least one prime.  The
    large primes make 0.2 to 0.5 pairs per element at x = 1e7..1e8, one
    or two batches, the higher powers under 0.01.
    """
    return size // 4 + 1


class _Workspace:
    """The buffers segment_scan fills for windows of up to `size`
    elements of one step: the remainder, the wanted phi and sigma, all
    in the deal's `lane` dtype, and omega (each updated in place, with
    no buffer beside it), the fold's rem > 1 mask and the index and
    factor rows of one batch of _large_prime_pass's pairs, beside the
    step's table (n_tiny, n_mid, inv), which it only reads: the index
    of the first base prime above the tiny and above the mid band, and
    (-step)^-1 mod p for every base prime from n_tiny on.

    deal_windows builds one per worker, after charging its scan_bytes,
    so its windows allocate no array per element and fault no fresh
    pages.
    """

    def __init__(self, size: int, table: tuple[int, int, np.ndarray], lane, *,
                 want_phi: bool, want_sigma: bool, want_omega: bool):
        self.table = table
        self.rem = np.empty(size, dtype=lane)
        self.phi = np.empty(size, dtype=lane) if want_phi else None
        self.sigma = np.empty(size, dtype=lane) if want_sigma else None
        self.omega = np.empty(size, dtype=np.int16) if want_omega else None
        self.big = np.empty(size, dtype=bool) if want_phi or want_sigma or want_omega else None
        batch = _pair_batch(size) if len(table[2]) else 0
        self.index = np.empty(batch, dtype=np.int64)
        self.factor = np.empty(batch, dtype=lane)


def segment_scan(
    lo: int,
    hi: int,
    base_primes: np.ndarray,
    *,
    want_phi: bool = False,
    want_sigma: bool = False,
    want_omega: bool = False,
    smooth_bound: int | None = None,
    step: int = 1,
    workspace: _Workspace,
):
    """Vectorized factor scan of the progression lo, lo+step, ... < hi,
    one window of a deal (deal_windows), which has checked its bounds.

    Divides every scanned integer by the supplied base primes (all
    primes <= sqrt of the last element must be present for exact
    phi/sigma/Omega; a smaller prime set is allowed when only the
    divided remainder matters, e.g. smoothness tests with smooth_bound
    set).

    The base primes fall into the module's three bands.  A tiny prime
    is sliced at every power p^j up to the last element, on the strided
    slice of indices k with p^j | lo + k*step (_multiples).  A mid prime
    is sliced at its first power only, from its first hit
    k = (lo mod p) * inv mod p, inv = (-step)^-1 mod p, one int64
    expression for every prime above the tiny band (products < p^2).
    The other prime powers above the tiny band share one pair pass
    (_large_prime_pass), which Hensel-lifts the first hits.

    The slice for p^j divides the remainder by p and adds 1 to Omega.
    phi and sigma are built in place as products over the prime powers
    p^e || n: phi multiplies by p - 1 on the p-slice and by p on each
    p^j-slice (j >= 2), giving p^(e-1) (p - 1); sigma, on each
    p^j-slice, divides out 1 + p + ... + p^(j-1), exactly (nothing for
    j = 1), and multiplies in 1 + p + ... + p^j, giving
    1 + p + ... + p^e.

    Whatever remains above 1 after the base primes is a single prime
    factor (for exact modes) and is folded in last.

    Every array is filled in place in the worker's workspace
    (_Workspace), so the arrays returned are overwritten by its next
    window.

    Returns a dict with any of:
      'phi', 'sigma' : arrays of exact values, in the workspace's lane
                       dtype (np.uint32 or np.int64, see the module),
      'omega'        : int16 array of Omega(n) (with multiplicity),
      'rem'          : lane array of remainders after dividing out the
                       base primes (only when smooth_bound is set).
    Element k of each array belongs to lo + k*step.
    """
    size = (hi - lo + step - 1) // step
    last = lo + (size - 1) * step
    top = smooth_bound if smooth_bound is not None else math.isqrt(last)
    n_tiny, n_mid, inv = workspace.table
    n_top = int(np.searchsorted(base_primes, top, "right"))

    rem, phi, sigma, omega = (None if a is None else a[:size] for a in
                              (workspace.rem, workspace.phi, workspace.sigma, workspace.omega))
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
        r = rem[sl]  # a shift takes a third of a division's time
        np.right_shift(r, 1, out=r) if p == 2 else np.floor_divide(r, p, out=r)
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

    for p in base_primes[: min(n_tiny, n_top)].tolist():
        q, s = p, 1  # q = p^j, s = 1 + p + ... + p^(j-1)
        while q <= last:
            hit = _multiples(lo, step, q)
            if hit is None or hit[0] >= size:
                break
            divide(slice(hit[0], size, hit[1]), p, q, s)
            s = s * p + 1
            q *= p

    if n_top > n_tiny:
        primes, inv = base_primes[n_tiny:n_top], inv[: n_top - n_tiny]
        first = lo % primes * inv % primes
        n_sliced = min(n_mid, n_top) - n_tiny
        for p, k in zip(primes[:n_sliced].tolist(), first[:n_sliced].tolist()):
            if k < size:
                divide(slice(k, size, p), p, p, 1)
        _large_prime_pass(lo, step, primes, first, inv, n_sliced, rem, phi, sigma, omega,
                          workspace)

    # branch-free: rem + big and rem - big are p + 1 and p - 1 where a
    # prime p is left and 1 where rem = 1, sigma's and phi's factors with
    # no masked multiply; rem is restored after each use
    if want_phi or want_sigma or want_omega:
        big = np.greater(rem, 1, out=workspace.big[:size])
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


def _large_prime_pass(lo, step, primes, first, inv, n_sliced, rem, phi, sigma, omega,
                      ws) -> None:
    """Divide the first power of primes[n_sliced:], the large band, and
    every higher power of all the primes out of the window lo, lo+step,
    ... that rem covers, updating phi, sigma and omega (those not None).
    first[i] is the least k with primes[i] | lo + k*step, and inv[i]
    (-step)^-1 mod primes[i].

    Such a prime power q hits a window of `size` elements only size/q
    times, too few to pay for its own numpy calls, so all of them share
    one vectorized pass per window, as in the bucket sieve of T. Oliveira
    e Silva, S. Herzog and S. Pardi (Math. Comp. 83 (2014) 2033-2060):
    one round (_apply_pairs) per exponent j, over k_j, k_j + p^j, ...
    < size.  Hensel: k_(j+1) = k_j + p^j t, t = c * inv mod p for
    c = (lo + k_j*step)/p^j, as c + t*step = 0 mod p.  A prime leaves
    once k_j >= size (k_j only grows) or p^(j+1) > last, the last
    element.  In int64, lo + k_j*step <= last,
    (c mod p) * inv < p^2 <= 10**12 and t p^j < p^(j+1) <= last.
    """
    size = len(rem)
    last = lo + (size - 1) * step
    hit = first < size  # a prime that misses the window misses it at every power
    p, k, inv = primes[hit], first[hit], inv[hit]
    q, j, mid = p, 1, int(np.count_nonzero(hit[:n_sliced]))  # q = p^j; mid: sliced at j = 1
    while len(p):
        _apply_pairs(j, k[mid:], q[mid:], p[mid:], rem, phi, sigma, omega, ws)
        n = int(np.count_nonzero(q <= last // p))  # p^(j+1) <= last: a prefix of the primes
        p, k, q, inv = p[:n], k[:n], q[:n], inv[:n]
        k += (lo + k * step) // q % p * inv % p * q
        q, j, mid = q * p, j + 1, 0
        hit = k < size
        p, k, q, inv = p[hit], k[hit], q[hit], inv[hit]


def _apply_pairs(j, first, stride, primes, rem, phi, sigma, omega, ws) -> None:
    """Divide primes[i] out of rem at first[i], first[i] + stride[i], ...
    < size, stride[i] = primes[i]^j, and update phi, sigma and omega
    (those not None) as segment_scan's slices for p^j do.

    Every first[i] is below size.  Batches of whole primes, with at most
    _pair_batch pairs each, are expanded into (index, p) pairs, the index
    by one cumsum over the strides, and applied by ufunc.at, which
    applies every pair even where two primes share an index.
    """
    size = len(rem)
    primes = primes.astype(rem.dtype, copy=False)
    count = (size - 1 - first) // stride + 1  # hits
    ends = np.cumsum(count)
    batch = len(ws.index)
    a = 0
    while a < len(primes):
        done = int(ends[a - 1]) if a else 0
        b = int(np.searchsorted(ends, done + batch, "right"))
        first_k, c, q = first[a:b], count[a:b], stride[a:b]
        p = np.repeat(primes[a:b], c)
        idx, fac = ws.index[: len(p)], ws.factor[: len(p)]
        # idx by one cumsum: the stride inside a group, the jump to first_k at its start
        np.power(p, j, out=idx)
        starts = ends[a:b] - c - done
        idx[starts[0]] = first_k[0]
        idx[starts[1:]] = first_k[1:] - (first_k[:-1] + (c[:-1] - 1) * q[:-1])
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
        del p  # before the next batch's repeat, so one batch of primes is alive at a time
        a = b


def cut_windows(progressions) -> list[tuple[int, int, int]]:
    """The (lo, step, last) of every window of DEFAULT_SEGMENT_SIZE
    elements (read at each call) of the progressions (start, step, top),
    start, start+step, ... <= top, in order; an empty progression has
    none.  A window is itself such a progression, cut into one window."""
    size = DEFAULT_SEGMENT_SIZE
    return [(lo, step, min(lo + step * (size - 1), top))
            for start, step, top in progressions
            for lo in range(start, top + 1, step * size)]


def deal_windows(progressions, threads: int, *, worker_bytes: int = 0, shared_bytes: int = 0,
                 what: str, want_phi: bool = False, want_sigma: bool = False,
                 want_omega: bool = False, smooth_bound: int | None = None):
    """Deal the windows (cut_windows) of the progressions, which must
    start at 2 or above, end at 10**12 or below and share one step >= 1,
    longest first, round robin to min(threads, windows, CPUs) workers
    (workers.worker_count), and charge them, before anything is
    allocated or any thread starts, in one check_allocation: per worker
    a scan workspace for the longest window (scan_bytes), in the lane
    dtype that the last integer scanned and the wants decide (see the
    module), and worker_bytes, and shared_bytes once.  Then sieve the
    base primes, those <= sqrt of the last integer scanned or
    <= smooth_bound when it is set, and build the step's inverse table
    (see _Workspace), once for all workers.

    Returns run(consume).  It runs the workers (workers.run_workers):
    worker w fills one workspace (_Workspace) with a segment_scan of
    each of windows[w::workers], with the want_* and smooth_bound
    keywords, and calls consume(first, step, scan) on it, where first
    is the window's first integer, so element k of each of scan's
    arrays belongs to first + k*step.  The arrays are overwritten by
    the worker's next window: consume or copy them first.  run returns
    what consume returned for every window, grouped by worker, so how
    the caller combines them must not depend on their order.  Worker
    loads differ by at most one window in count and by at most the
    longest window in elements: in each round of the deal a worker's
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
    # the base primes above the tiny band lie above `tiny` and below this bound
    bound = math.isqrt(top) if smooth_bound is None else smooth_bound
    tiny = max([TINY_PRIME_THRESHOLD, *(p for p, _ in factorize(step).pairs)])
    inverses = min(max(0, bound - tiny), prime_count_bound(bound))
    wants = dict(want_phi=want_phi, want_sigma=want_sigma, want_omega=want_omega)
    # the lane: every value it holds is below top + 1, or 7 top with sigma (see the module)
    lane = np.uint32 if max(top + 1, 7 * top * want_sigma) < 1 << 32 else np.int64
    check_allocation(n_workers * (scan_bytes(size, inverses, lane, **wants) + worker_bytes)
                     + shared_bytes, f"{what} on {n_workers} workers")
    base = primes_up_to(bound)
    n_tiny, n_mid = np.searchsorted(base, [tiny, max(LARGE_PRIME_THRESHOLD, step)], "right")
    # no prime above the tiny band divides step, so every inverse exists
    table = (int(n_tiny), int(n_mid),
             np.array([pow(-step, -1, p) for p in base[n_tiny:].tolist()], dtype=np.int64))

    def run(consume) -> list:
        results = [[] for _ in range(n_workers)]

        def scan(w: int):
            ws = _Workspace(size, table, lane, **wants)
            for lo, _, last in windows[w::n_workers]:
                got = segment_scan(lo, last + 1, base, step=step, smooth_bound=smooth_bound,
                                   workspace=ws, **wants)
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
