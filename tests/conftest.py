"""Shared oracles: small, slow, obviously-correct reference code.

Everything here but dealt_windows and joined_scan, test helpers, is
deliberately independent of the library internals; these
implementations are the ground truth the fast paths are tested against.
"""

import math

import numpy as np
import pytest

from phisigma import is_s_normal, series_coefficient


def phi_naive(n: int) -> int:
    """Totient by gcd counting."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def sigma_naive(n: int) -> int:
    """Divisor sum by divisor enumeration."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def factor_pairs_naive(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, ascending primes."""
    pairs = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if m > 1:
        pairs.append((m, 1))
    return pairs


def phi_trial(n: int) -> int:
    """Totient from trial-division factorization (fast enough to 10^6)."""
    out = 1
    for p, e in factor_pairs_naive(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def phi_oracle_top(x: int) -> int:
    """7x: every n with phi(n) <= x is at most this, for x <= 8e7.

    Independent of phi_preimage_bound.  An n below 43# ~ 1.31e16 (the
    product of the primes to 43) has at most 13 distinct primes, so
    n/phi(n) <= prod p/(p-1) over the first 13 primes, 6.89 < 7; and
    every n >= 43# has phi(n) >= sqrt(n/2) >= 8.08e7.
    """
    assert 1 <= x <= 8 * 10**7, x
    return 7 * x


def sigma_trial(n: int) -> int:
    out = 1
    for p, e in factor_pairs_naive(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def big_omega_trial(n: int) -> int:
    return sum(e for _, e in factor_pairs_naive(n))


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


@pytest.fixture(scope="session")
def small_sieve():
    from phisigma import build_factor_sieve

    return build_factor_sieve(2, 10**6 + 2)


def classify_oracle(n, f_tag, params):
    """Independent naive reimplementation of the nine membership
    conditions (all but the S-normality primitive, which has its own
    grid-scan oracle).  Returns None when f(n) > x."""
    x = params.x
    llx = math.log(math.log(x))
    pairs = factor_pairs_naive(n)
    fn = phi_trial(n) if f_tag == "phi" else sigma_trial(n)
    if fn > x:
        return None
    c0 = n >= x / math.log(x)

    def max_squarefull(ps):
        out = 1
        for p, e in ps:
            if e >= 2:
                out *= p**e
        return out

    cap = math.log(x) ** 2
    c1 = max_squarefull(pairs) <= cap and max_squarefull(factor_pairs_naive(fn)) <= cap
    c2 = all(is_s_normal(p, params.s_effective).is_normal for p, _ in pairs)
    omega_n = sum(e for _, e in pairs)
    omega_fn = sum(e for _, e in factor_pairs_naive(fn))
    c3 = omega_fn <= 10 * llx and omega_n <= 10 * llx

    threshold = math.exp(math.sqrt(llx))
    c4 = True
    divisors = [1]
    for p, e in pairs:
        divisors += [d * p**e for d in divisors]
    for d in divisors:
        if d < threshold or d == 1:
            continue
        fd = phi_trial(d) if f_tag == "phi" else sigma_trial(d)
        if fd <= 1 or math.log(fd) <= 0:
            c4 = False
            break
        if sum(e for _, e in factor_pairs_naive(fd)) > 10 * math.log(math.log(fd)):
            c4 = False
            break

    desc = []
    for p, e in reversed(pairs):
        desc.extend([p] * e)
    L = params.L
    vec = []
    for i in range(1, L + 1):
        if i >= len(desc) or desc[i] == 2:
            vec.append(0.0)
        else:
            vec.append(math.log(math.log(desc[i])) / llx)
    a = [series_coefficient(i) for i in range(1, L + 1)]
    c5 = vec[0] <= 1.0 and all(y <= z for z, y in zip(vec, vec[1:])) and vec[-1] >= 0
    if c5:
        for k in range(L - 1):
            lhs = sum(a[j - 1] * vec[k + j - 1] for j in range(1, L - k + 1))
            rhs = params.xi[k] * (vec[k - 1] if k >= 1 else 1.0)
            if lhs > rhs:
                c5 = False
                break

    c6 = sum(e for p, e in pairs if p != 2) >= L + 1

    if len(desc) < 2:
        c7 = False
    else:
        p0, p1 = desc[0], desc[1]
        shifted = p0 - 1 if f_tag == "phi" else p0 + 1
        if shifted <= 1:
            pplus = 1
        else:
            pplus = max(p for p, _ in factor_pairs_naive(shifted))
        c7 = pplus >= x ** (1.0 / llx) and p1 < x ** (1.0 / (100.0 * llx))

    c8 = sum(ai * v for ai, v in zip(a, vec)) <= 1.0 - params.omega
    return (c0, c1, c2, c3, c4, c5, c6, c7, c8)


def dealt_windows(progressions, **want):
    """(first, step, scan) for every window of sieve.deal_windows on one
    thread, with want the segment_scan keywords, in cut_windows order
    (the deal runs the longest first).  A window's arrays are overwritten
    by the next window, so each scan is a copy."""
    from phisigma import sieve

    run = sieve.deal_windows(progressions, 1, what="test scan", **want)
    got = run(lambda first, step, scan: (first, step, {k: a.copy() for k, a in scan.items()}))
    order = {window[:2]: i for i, window in enumerate(sieve.cut_windows(progressions))}
    return sorted(got, key=lambda window: order[window[:2]])


def joined_scan(lo, hi, step=1, **want):
    """The scan of the progression lo, lo+step, ... < hi: its windows
    (dealt_windows) joined in order, key by key.  A progression of at
    most DEFAULT_SEGMENT_SIZE elements is one window, on a fresh
    workspace."""
    windows = dealt_windows([(lo, step, hi - 1)], **want)
    return {key: np.concatenate([scan[key] for *_, scan in windows]) for key in windows[0][2]}
