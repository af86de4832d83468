"""Segmented sieving primitives.

Prime generation, smallest-prime-factor windows, per-integer
factorization, and bulk evaluation of the multiplicative functions
phi (Euler totient) and sigma (sum of divisors) over ranges.

factorize is the one scalar factorizer: it reads each prime from a
FactorSieve's spf table while the cofactor lies in the window, and
finds it by trial division otherwise, or when no sieve is given.

The bulk scan (segment_scan) covers an arithmetic progression
lo, lo+step, ... < hi.  A base prime p <= LARGE_PRIME_THRESHOLD is
sliced by its powers: for each p^j, the scanned integers divisible by
p^j form one strided slice, located by a modular inverse, so every
array operation touches only integers it changes.  A larger p hits a
window only size/p times, too few to pay for its own numpy calls, so
those primes share one vectorized pass per window, as in the bucket
sieve of T. Oliveira e Silva, S. Herzog and S. Pardi (Math. Comp. 83
(2014) 2033-2060): their first hits come from one table of modular
inverses, are expanded into (index, p) pairs and applied by ufunc.at.
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

All bulk arithmetic is carried in int64 arrays.  Inputs are capped at
10**12 so that sigma(n) cannot overflow (sigma(n) < 7n in that range).
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

LARGE_PRIME_THRESHOLD = 512  # base primes above it go through _large_prime_pass

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


def _step_inverses(primes: np.ndarray, step: int) -> np.ndarray:
    """step^-1 mod p for each p in primes (no p may divide step).

    Fermat, step^(p-2) mod p, by square-and-multiply over the whole
    array; every product is below p^2, far inside int64 for any base
    prime.
    """
    inv = np.ones_like(primes)
    b = step % primes
    e = primes - 2
    t = np.empty_like(primes)
    while e.any():
        np.multiply(inv, b, out=t)
        t %= primes
        np.copyto(inv, t, where=(e & 1).astype(bool))
        b *= b
        b %= primes
        e >>= 1
    return inv


PAIR_BYTES = 33  # index, prime, p^(j+1), n mod p^(j+1) and its zero mask

PRIME_BYTES = 120  # a window's first hit, hit count and their batch copies

INVERSE_BYTES = 8  # a prime's entry in the inverse table

SCAN_OVERHEAD = 1 << 16  # numpy's casting buffers (8192 elements) and the window's objects


def scan_bytes(size: int, large_primes: int, *, want_phi: bool = False,
               want_sigma: bool = False, want_omega: bool = False) -> int:
    """Bytes a scan workspace of `size` elements, its inverse table and
    one segment_scan window on it hold at their peak, with `large_primes`
    base primes (an upper bound will do) in the large-prime pass.

    The workspace's buffers (_Workspace), per element: the remainder,
    each wanted array and the fold's mask.  When any prime is large, its
    batch of (index, p) pairs (_pair_batch) at PAIR_BYTES, and per large
    prime a window's first-hit arrays at PRIME_BYTES and its inverse at
    INVERSE_BYTES.  And SCAN_OVERHEAD once.
    """
    per_entry = 8 + 8 * want_phi + 8 * want_sigma + 2 * want_omega + 1
    pairs = _pair_batch(size) if large_primes else 0
    per_prime = PRIME_BYTES + INVERSE_BYTES
    return per_entry * size + PAIR_BYTES * pairs + per_prime * large_primes + SCAN_OVERHEAD


def _pair_batch(size: int) -> int:
    """Most (index, p) pairs expanded at once in a window of `size`.

    A prime p > 4 hits the window at most ceil(size/p) <= size//4 + 1
    times, so every batch holds at least one prime.  The large primes
    make 0.2 to 0.5 pairs per element at x = 1e7..1e8, one or two
    batches.
    """
    return size // 4 + 1


class _Workspace:
    """The buffers segment_scan fills for windows of up to `size`
    elements of one step: the remainder, the wanted phi, sigma and omega
    (each updated in place, with no buffer beside it), the fold's
    rem > 1 mask and one batch of the large-prime pass's (index, p)
    pairs, beside the step's table (n_small, inv), which it only reads:
    the index of the first base prime above max(LARGE_PRIME_THRESHOLD,
    step), where the large-prime pass starts, and step^-1 mod p for it
    and every later one.

    deal_windows builds one per worker, after charging its scan_bytes,
    so its windows allocate no array per element or per pair and fault
    no fresh pages.
    """

    def __init__(self, size: int, table: tuple[int, np.ndarray], *, want_phi: bool,
                 want_sigma: bool, want_omega: bool):
        self.table = table
        self.rem = np.empty(size, dtype=np.int64)
        self.phi = np.empty(size, dtype=np.int64) if want_phi else None
        self.sigma = np.empty(size, dtype=np.int64) if want_sigma else None
        self.omega = np.empty(size, dtype=np.int16) if want_omega else None
        self.big = np.empty(size, dtype=bool) if want_phi or want_sigma or want_omega else None
        # one batch of (index, p) pairs: index, p^(j+1) and n mod p^(j+1),
        # and n's zero mask
        batch = _pair_batch(size) if len(table[1]) else 0
        self.pairs = np.empty((3, batch), dtype=np.int64)
        self.zero = np.empty(batch, dtype=bool)


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

    A base prime p <= max(LARGE_PRIME_THRESHOLD, step) is sliced: each
    prime power p^j up to the last element is visited once, on the
    strided slice of indices k with p^j | lo + k*step (found by one
    modular inverse, see _multiples).  The slice for p^j divides the
    remainder by p and adds 1 to Omega.  phi and sigma are built in
    place as products over the prime powers p^e || n: phi multiplies by
    p - 1 on the p-slice and by p on each p^j-slice (j >= 2), giving
    p^(e-1) (p - 1); sigma, on each p^j-slice, divides out
    1 + p + ... + p^(j-1), exactly (nothing for j = 1), and multiplies
    in 1 + p + ... + p^j, giving 1 + p + ... + p^e.

    The base primes above the threshold hit a window a few times each,
    so they share one vectorized pass (_large_prime_pass) in place of a
    slice loop per prime: their first hits (-lo) * step^-1 mod p come
    from one inverse table (_step_inverses), the hits are expanded into
    (index, p) pairs, and the pairs are applied by ufunc.at, which is
    exact when two primes hit one index; the pairs with p^2 | n get one
    more round per power.

    Whatever remains above 1 after the base primes is a single prime
    factor (for exact modes) and is folded in last.

    Every array is filled in place in the worker's workspace
    (_Workspace), so the arrays returned are overwritten by its next
    window.

    Returns a dict with any of:
      'phi', 'sigma' : int64 arrays of exact values,
      'omega'        : int16 array of Omega(n) (with multiplicity),
      'rem'          : int64 array of remainders after dividing out the
                       base primes (only when smooth_bound is set).
    Element k of each array belongs to lo + k*step.
    """
    size = (hi - lo + step - 1) // step
    last = lo + (size - 1) * step
    top = smooth_bound if smooth_bound is not None else math.isqrt(last)
    n_small, inv = workspace.table
    n_large = max(0, int(np.searchsorted(base_primes, top, "right")) - n_small)

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

    for p in base_primes[:n_small].tolist():
        if p > top:
            break
        q, s = p, 1  # q = p^j, s = 1 + p + ... + p^(j-1)
        while q <= last:
            hit = _multiples(lo, step, q)
            if hit is None or hit[0] >= size:
                break
            sl = slice(hit[0], size, hit[1])
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
                s = s * p + 1
                sg *= s
            q *= p

    if n_large:
        _large_prime_pass(lo, step, base_primes[n_small : n_small + n_large], inv,
                          rem, phi, sigma, omega, workspace)

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


def _large_prime_pass(lo, step, primes, inv, rem, phi, sigma, omega, ws) -> None:
    """Divide the primes (each > step) out of the window lo, lo+step, ...
    that rem covers, updating phi, sigma and omega (those not None).

    The k with p | lo + k*step are k0, k0 + p, ... for
    k0 = (-lo) * inv mod p, inv = step^-1 mod p from the workspace's
    table, which starts at primes[0].  The hit counts are cut into
    batches of whole primes with at most _pair_batch pairs each; a batch
    is expanded into the workspace ws and applied by _apply_pairs.
    """
    size = len(rem)
    batch = _pair_batch(size)
    k0 = (-lo) % primes
    k0 *= inv[: len(primes)]
    k0 %= primes
    count = size - 1 - k0  # hits: (size - 1 - k0) // p + 1, which is 0 for k0 >= size
    count //= primes
    count += 1
    ends = np.cumsum(count)
    a = 0
    while a < len(primes):
        done = int(ends[a - 1]) if a else 0
        b = int(np.searchsorted(ends, done + batch, "right"))
        _apply_pairs(lo, step, primes[a:b], k0[a:b], count[a:b], rem, phi, sigma, omega, ws)
        a = b


def _apply_pairs(lo, step, primes, k0, count, rem, phi, sigma, omega, ws) -> None:
    """Apply the hits k0 + i*p, i < count, of each prime p.

    Round j covers the pairs (k, p) with p^j | n = lo + k*step: rem is
    divided by p, Omega gains 1, phi gains p - 1 (j = 1) or p, and sigma
    gains p + 1 (j = 1) or trades 1 + p + ... + p^(j-1) for
    1 + p + ... + p^j by exact division, as in the slices.  ufunc.at
    applies every pair even where two primes share an index, and each
    round keeps only the pairs whose n/p^j is still divisible by p.  The
    first round's pair arrays other than p are rows of ws.pairs.
    """
    live = count > 0
    primes, k0, count = primes[live], k0[live], count[live]
    if not len(primes):
        return
    p = np.repeat(primes, count)
    idx, power, n = (row[: len(p)] for row in ws.pairs)
    # idx by one cumsum: step p inside a group, the jump to k0 at its start
    np.copyto(idx, p)
    first = np.cumsum(count) - count
    idx[first[0]] = k0[0]
    idx[first[1:]] = k0[1:] - (k0[:-1] + (count[:-1] - 1) * primes[:-1])
    np.cumsum(idx, out=idx)
    np.multiply(p, p, out=power)  # p^(j+1) for the pairs of round j
    k, j = idx, 1
    while True:
        if omega is not None:
            np.add.at(omega, k, np.int16(1))
        np.floor_divide.at(rem, k, p)
        if phi is not None:
            np.multiply.at(phi, k, np.subtract(p, 1, out=n) if j == 1 else p)
        if sigma is not None:
            if j == 1:
                np.multiply.at(sigma, k, np.add(p, 1, out=n))
            else:
                s = (power // p - 1) // (p - 1)  # 1 + p + ... + p^(j-1)
                np.floor_divide.at(sigma, k, s)
                np.multiply.at(sigma, k, s * p + 1)
        n = np.multiply(k, step, out=ws.pairs[2, : len(k)])
        n += lo
        n %= power
        deeper = np.flatnonzero(np.equal(n, 0, out=ws.zero[: len(k)]))
        if not len(deeper):
            break
        k, p, power = k[deeper], p[deeper], power[deeper]
        power *= p
        j += 1


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
    a scan workspace for the longest window (scan_bytes) and
    worker_bytes, and shared_bytes once.  Then sieve the base primes,
    those <= sqrt of the last integer scanned or <= smooth_bound when
    it is set, and build the step's inverse table (see _Workspace),
    once for all workers.

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
    windows = cut_windows(progressions)
    steps = {step for _, step, _ in windows} or {1}  # no window: any step will do
    if len(steps) > 1:
        raise DomainError(f"need progressions of one step, got steps {sorted(steps)}")
    (step,) = steps
    top = max((last for *_, last in windows), default=0)
    if top > INPUT_CAP:
        raise ResourceError(f"window end {top} exceeds the 10^12 input cap")
    windows.sort(key=lambda w: (w[2] - w[0]) // w[1], reverse=True)  # longest first
    n_workers = workers.worker_count(threads, len(windows), os.cpu_count())
    size = max(((last - lo) // step + 1 for lo, _, last in windows), default=0)
    # the large base primes lie above the threshold and below this bound
    bound = math.isqrt(top) if smooth_bound is None else smooth_bound
    large = min(max(0, bound - LARGE_PRIME_THRESHOLD), prime_count_bound(bound))
    wants = dict(want_phi=want_phi, want_sigma=want_sigma, want_omega=want_omega)
    check_allocation(n_workers * (scan_bytes(size, large, **wants) + worker_bytes) + shared_bytes,
                     f"{what} on {n_workers} workers")
    base = primes_up_to(bound)
    n_small = int(np.searchsorted(base, max(LARGE_PRIME_THRESHOLD, step), "right"))
    table = n_small, _step_inverses(base[n_small:], step)

    def run(consume) -> list:
        results = [[] for _ in range(n_workers)]

        def scan(w: int):
            ws = _Workspace(size, table, **wants)
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
