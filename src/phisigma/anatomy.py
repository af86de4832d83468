"""Prime-factor anatomy.

Omega over ranges, largest prime factors, the S-normality test for
shifted primes p-1 and p+1, exact smooth-number counts with their
asymptotic comparator, and empirical censuses for the classical tail
bounds (Omega tails, Poisson tails, sieve counts for linear forms).

Throughout, log_2 t in the commentary means loglog t (the doubly
iterated natural logarithm), never the binary logarithm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import E_TO_E, q_function
from .errors import ARRAY_BYTES, DomainError, ResourceError, check_allocation
from .sieve import (
    FactorSieve,
    Factorization,
    composite_mask,
    deal_windows,
    factorize,
    power_of_2_prefixes,
)

SIEVE_CENSUS_CAP = 10**8

MAX_LINEAR_FORMS = 4


def _loglog(t: float) -> float:
    if t <= 1.0:
        raise DomainError(f"loglog undefined for t={t}")
    return math.log(math.log(t))


def big_omega_range(fact: Factorization, U: float, T: float) -> int:
    """Prime factors p of the factored integer with U < p <= T, with
    multiplicity.  Empty ranges (U >= T) count zero."""
    if U >= T:
        return 0
    return sum(e for p, e in fact.pairs if U < p <= T)


def largest_prime_factor(fact: Factorization) -> int:
    """Largest prime factor; 1 for the empty factorization."""
    if not fact.pairs:
        return 1
    return fact.pairs[-1][0]


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of the S-normality test at prime p.

    passed_1S_* is the small-prime mass condition
    Omega(f(p), 1, S) <= 2 loglog S; passed_window_* is the uniform
    window condition |Omega(f(p),U,T) - (loglog T - loglog U)| <
    sqrt(loglog S * loglog T) over S <= U < T <= f(p).  worst_window
    records (U, T, observed, expected) at the maximal violation margin
    seen across both shifted values, and worst_margin that margin,
    |observed - expected| - sqrt(loglog S * loglog T), positive exactly
    when the window condition fails; both are None when every window
    test was vacuous.
    """

    p: int
    S: float
    passed_1S_phi: bool
    passed_1S_sigma: bool
    passed_window_phi: bool
    passed_window_sigma: bool
    worst_window: tuple[float, float, int, float] | None
    worst_margin: float | None

    @property
    def is_normal(self) -> bool:
        return (
            self.passed_1S_phi
            and self.passed_1S_sigma
            and self.passed_window_phi
            and self.passed_window_sigma
        )


def _window_scan(fact: Factorization, value: int, S: float):
    """Max margin of the window condition over its critical windows.

    Omega(value, U, T) is a step function jumping only at prime
    locations of value, while loglog and the sqrt comparator are
    continuous and monotone, so the supremum of the margin over
    S <= U < T <= value is attained in the limit at windows whose
    endpoints sit at prime locations (approached from either side) or
    at the interval ends S and value.  Only those O(Omega^2) windows
    are evaluated, each counted as upto[b] - upto[a]: the prime factors
    among the first b locations less those among the first a.

    Returns (passed, worst) where worst = (U, T, observed, expected,
    margin) for the largest margin.
    """
    lls = _loglog(S)
    if value < S:
        return True, None  # vacuous: no admissible (U, T)

    locs = [(float(p), e) for p, e in fact.pairs if S < p <= value]
    upto = list(itertools.accumulate((e for _, e in locs), initial=0))
    # the i-th location p ends a window at p, index i + 1 (U = p leaves p
    # out, T = p takes it in), or at p-, index i (the reverse), reported
    # as the float just below p to keep U < T strict in the stored tuple
    ends = []
    for i, (p, _) in enumerate(locs):
        llp = _loglog(p)
        ends += [(p, llp, p, i + 1), (p, llp, math.nextafter(p, 0.0), i)]
    lowers = [(float(S), lls, float(S), 0), *ends]
    uppers = [(float(value), _loglog(value), float(value), len(locs)), *ends]

    worst = None
    for u, llu, u_rep, a in lowers:
        for t, llt, t_rep, b in uppers:
            if t < u or (t == u and b <= a):
                continue
            observed = upto[b] - upto[a]
            expected = llt - llu
            margin = abs(observed - expected) - math.sqrt(lls * llt)
            if worst is None or margin > worst[4]:
                worst = (u_rep, t_rep, observed, expected, margin)
    return worst is None or worst[4] <= 0.0, worst


def is_s_normal(p: int, S: float, sieve: FactorSieve | None = None) -> NormalityReport:
    """Test the prime p for S-normality of both shifted values p-1, p+1.

    Requires a finite S >= e^e, so that 1 <= loglog S < inf.  A
    FactorSieve covering p+1 speeds up the factorizations; otherwise
    trial division is used.
    """
    if not E_TO_E <= S < math.inf:
        raise DomainError(f"need finite S >= e^e = {E_TO_E:.4f}, got {S}")
    if p < 2:
        raise DomainError(f"p must be a prime >= 2, got {p}")
    lls = _loglog(S)
    results = {}
    worst = None
    for tag, value in (("phi", p - 1), ("sigma", p + 1)):
        if value == 1:  # p = 2 leaves phi(p) = 1 with no factors
            results[tag] = (True, True)
            continue
        fact = factorize(value, sieve)
        small_mass = big_omega_range(fact, 1, S)
        ok_1s = small_mass <= 2.0 * lls
        ok_win, w = _window_scan(fact, value, S)
        if w is not None and (worst is None or w[4] > worst[4]):
            worst = w
        results[tag] = (ok_1s, ok_win)
    return NormalityReport(
        p=p,
        S=float(S),
        passed_1S_phi=results["phi"][0],
        passed_1S_sigma=results["sigma"][0],
        passed_window_phi=results["phi"][1],
        passed_window_sigma=results["sigma"][1],
        worst_window=None if worst is None else worst[:4],
        worst_margin=None if worst is None else worst[4],
    )


def check_pplus_lower(
    p: int, S: float, x: float, sieve: FactorSieve | None = None
) -> bool:
    """Largest-prime-factor floor for S-normal shifted primes.

    Verifies, for both f(p) = p-1 and p+1,
      loglog P+(f(p)) / loglog x
        >= loglog p / loglog x - (logloglog x + log 4) / loglog x.
    Preconditions: p is S-normal, p - 1 >= S, and 5 <= p <= x.
    """
    if not 5 <= p <= x:
        raise DomainError(f"need 5 <= p <= x, got p={p}, x={x}")
    if p - 1 < S:
        raise DomainError(f"need f(p) >= S for both shifts; p-1={p - 1} < S={S}")
    report = is_s_normal(p, S, sieve)
    if not report.is_normal:
        raise DomainError(f"p={p} is not S-normal at S={S}")
    llx = _loglog(x)
    slack = (math.log(llx) + math.log(4.0)) / llx
    for value in (p - 1, p + 1):
        pplus = largest_prime_factor(factorize(value, sieve))
        if _loglog(pplus) / llx < _loglog(p) / llx - slack:
            return False
    return True


@dataclass(frozen=True)
class SmoothCount:
    """Exact Psi(x, y) next to the x/u^u comparator, u = log x/log y."""

    x: int
    y: int
    psi_exact: int
    u: float
    cep_estimate: float


def psi_smooth_count(x: int, y: int, *, threads: int = 1) -> SmoothCount:
    """Count the y-smooth integers up to x exactly.

    The odd m of [3, x] are scanned in windows of DEFAULT_SEGMENT_SIZE, each
    divided by all primes <= min(y, sqrt(x)); m is y-smooth exactly when the
    remainder is <= y, and, as y >= 2, exactly when 2^a m is: each window adds
    its smooth m <= x >> a for every a (power_of_2_prefixes), the n = 2^a add
    x.bit_length().  The windows are dealt round robin to min(threads, windows,
    CPUs) workers (deal_windows), and integer counts sum the same on any.
    """
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    if x > SIEVE_CENSUS_CAP:
        raise ResourceError(f"x={x} beyond the {SIEVE_CENSUS_CAP} scan budget")
    scan = deal_windows([(3, 2, x)], threads, smooth_bound=min(y, math.isqrt(x)),
                        what=f"smooth count to {x}")

    def smooth(lo, step, got):
        ok = got["rem"] <= y
        return sum(int(np.count_nonzero(ok[:k])) for _, k in power_of_2_prefixes(lo, step, len(ok), x))

    count = x.bit_length() + sum(scan(smooth))
    u = math.log(x) / math.log(y)
    cep = float(x) if u == 0.0 else x * u**-u
    return SmoothCount(x=x, y=y, psi_exact=count, u=u, cep_estimate=cep)


def omega_tail_census(x: int, alpha: float, *, threads: int = 1) -> tuple[int, float]:
    """Count n <= x with Omega(n) >= alpha*loglog x; report the bound shape.

    The odd m of [3, x] are scanned as in psi_smooth_count.  With
    T = ceil(alpha*loglog x) >= 2 and Omega(2^a m) = a + Omega(m), each
    window adds its m <= x >> a with Omega(m) >= T - a for every a (all of
    them once a >= T), and m = 1 the a >= T with 2^a <= x.  T is clamped
    at x.bit_length(), which no n <= x reaches (Omega(n) <= log2 x), so
    every larger T counts the same 0 and an alpha*loglog x past the
    largest double counts too.

    The comparator is x (log x)^(-Q(alpha)) for alpha < 2 and
    x (log x)^(1 - alpha log 2) loglog x for alpha >= 2 (constant
    factors unknown; callers compare ratios).  For large alpha it
    underflows to 0.0 (at x = 1000, alpha = 600), where observed is 0
    and no ratio exists: the CLI prints its ratio as null.
    """
    if not 1.0 < alpha < math.inf:
        raise DomainError(f"need finite alpha > 1, got {alpha}")
    if x < E_TO_E:
        raise DomainError(f"need x >= e^e, got {x}")
    if x > SIEVE_CENSUS_CAP:
        raise ResourceError(f"x={x} beyond the {SIEVE_CENSUS_CAP} scan budget")
    T = math.ceil(min(alpha * _loglog(x), x.bit_length()))
    scan = deal_windows([(3, 2, x)], threads, want_omega=True, what=f"Omega census to {x}")
    observed = max(0, x.bit_length() - T) + sum(scan(lambda lo, step, got: sum(
        k if a >= T else int(np.count_nonzero(got["omega"][:k] >= T - a))
        for a, k in power_of_2_prefixes(lo, step, len(got["omega"]), x))))
    if alpha < 2.0:
        shape = x * math.log(x) ** -q_function(alpha)
    else:
        shape = x * math.log(x) ** (1.0 - alpha * math.log(2.0)) * _loglog(x)
    return observed, shape


def _poisson_exponent(z: float, alpha: float) -> float:
    """(1 - Q(alpha)) z, the log of the left Poisson tail bound."""
    if not 0.0 < z < math.inf:
        raise DomainError(f"need finite z > 0, got {z}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"need 0 < alpha < 1, got {alpha}")
    return (1.0 - q_function(alpha)) * z


def poisson_tail_bound(z: float, alpha: float) -> float:
    """The bound e^((1 - Q(alpha)) z) on the left Poisson tail; DomainError
    where it is past the largest double."""
    try:
        return math.exp(_poisson_exponent(z, alpha))
    except OverflowError:
        raise DomainError(f"e^((1 - Q(alpha)) z) overflows at z={z}, alpha={alpha}") from None


def check_poisson_tail(z: float, alpha: float) -> bool:
    """Verify sum_{k <= alpha z} z^k/k! < e^((1-Q(alpha)) z) in logs.

    With k0 = floor(alpha z), the sum is z^k0/k0! times the terms taken
    relative to the last one, 1 + k0/z + k0 (k0-1)/z^2 + ...; each falls
    by k/z <= alpha, so once one leaves the sum as it is, all later ones do.
    The logs of the two sides differ by about log(2 pi k0)/2, a margin the
    rounding of k0 log z and log k0! swamps near z = 10^16, so k0 log z
    past 2^50 is a DomainError.
    """
    exponent = _poisson_exponent(z, alpha)
    k = k0 = math.floor(alpha * z)
    if k0 * math.log(z) > 2.0**50:
        raise DomainError(f"z={z} is past what a double resolves in k0 log z")
    rel, term = 0.0, 1.0
    while k >= 0 and rel + term != rel:
        rel += term
        term *= k / z
        k -= 1
    return math.log(rel) + k0 * math.log(z) - math.lgamma(k0 + 1) < exponent


def sieve_bound_census(
    forms: list[tuple[int, int]], x: int
) -> tuple[int, float]:
    """Count n <= x making every a_i n + b_i prime; report the shape.

    forms is a list of (a_i, b_i) with a_i >= 1 and nondegenerate
    discriminant E = prod a_i * prod_{i<j} (a_i b_j - a_j b_i) != 0.
    The shape is x (loglog(|E|+2))^h / (log x)^h, constant unknown.
    """
    h = len(forms)
    if not 1 <= h <= MAX_LINEAR_FORMS:
        raise DomainError(f"need 1..{MAX_LINEAR_FORMS} forms, got {h}")
    if any(a < 1 for a, _ in forms):
        raise DomainError(f"multipliers must be positive integers: {forms}")
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    if x > SIEVE_CENSUS_CAP:
        raise ResourceError(f"x={x} beyond the {SIEVE_CENSUS_CAP} scan budget")

    E = 1
    for a, _ in forms:
        E *= a
    for i in range(h):
        for j in range(i + 1, h):
            ai, bi = forms[i]
            aj, bj = forms[j]
            E *= ai * bj - aj * bi
    if E == 0:
        raise DomainError(f"degenerate forms (E = 0): {forms}")

    top = max(0, *(a * x + b for a, b in forms))
    # the mask, the survivors and the views of one form, all live at once
    check_allocation(top + 1 + x + 5 * ARRAY_BYTES, f"prime mask to {top} and survivors to {x}")
    comp = composite_mask(top)
    # ok[n - 1] is True while every form seen so far is prime at n
    ok = np.ones(x, dtype=bool)
    for a, b in forms:
        # n0 is the least n >= 1 with a n + b >= 0; comp is True at 0 and 1
        n0 = max(1, -(b // a))
        ok[: n0 - 1] = False
        tail = ok[n0 - 1 :]
        view = comp[a * n0 + b :: a][: len(tail)]
        np.greater(tail, view, out=tail)  # ok and not composite
    observed = int(np.count_nonzero(ok))
    shape = x * _loglog(abs(E) + 2) ** h / math.log(x) ** h
    return observed, shape
