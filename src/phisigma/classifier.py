"""Membership classification for the preimage sets A_phi and A_sigma.

A level x and a quality parameter epsilon fix the auxiliary quantities

    S = exp((loglog x)^36),  delta = sqrt(loglog S / loglog x),
    omega = (loglog x)^(-1/2 + epsilon/2),

the simplex dimension L, and the weights xi.  Membership of n (for
f = phi or sigma) is the conjunction of nine conditions, evaluated
exactly and individually reported:

    (0) n >= x/log x
    (1) every squarefull divisor of n and of f(n) is <= (log x)^2
    (2) every prime dividing n is S-normal
    (3) Omega(f(n)) <= 10 loglog x and Omega(n) <= 10 loglog x
    (4) every unitary divisor d >= exp(sqrt(loglog x)) has
        Omega(f(d)) <= 10 loglog f(d)
    (5) (x_1, ..., x_L) lies in S_L(xi)
    (6) n has at least L+1 odd prime factors with multiplicity
    (7) P+(f(p_0)) >= x^(1/loglog x) and p_1 < x^(1/(100 loglog x))
    (8) a_1 x_1 + ... + a_L x_L <= 1 - omega

Desk-scale honesty: the formula value of S overflows a double for any
x above ~28, and at any reachable x it exceeds x astronomically, which
would make condition (2) degenerate.  The classifier therefore carries
an effective S (default min(S_formula, x^(1/10)), floored at e^e so
the normality test stays in its domain) alongside the formula value;
both are always reported.  Condition (7) needs p_1 < x^(1/(100 loglog x)),
and that bound is below 2 for every x up to the 10^12 input cap (1.06 at
10^7, 1.09 at 10^12; it grows with x), so no n is a member there.
classify still evaluates all nine conditions as stated; capture_census
decides by this lemma (proved in its docstring) and counts the value set
instead of classifying preimages, so it reports fraction 1.0 at every
reachable x, whatever S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import anatomy, value_sets
from .constants import E_TO_E, iterated_log, series_coefficient
from .errors import DomainError, ResourceError
from .sieve import INPUT_CAP, FactorSieve, Factorization, factorize, phi_of, sigma_of
from .structure import SimplexSpec, _renormalize_fact, default_xi, simplex_contains

DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class AfParams:
    """Classifier parameters at level x.

    s_formula is exp((loglog x)^36), carried as +inf when it overflows
    (its natural log s_formula_log never does); s_effective is the
    value actually used by the normality test, with s_overridden
    telling whether it differs from the formula.  l_formula is the
    unclamped floor(L_0 - 2 sqrt(log3 x)).
    """

    x: float
    epsilon: float
    s_formula: float
    s_formula_log: float
    s_effective: float
    s_overridden: bool
    delta: float
    omega: float
    L: int
    l0: int
    l_formula: int
    xi: tuple[float, ...]

    def spec(self) -> SimplexSpec:
        return SimplexSpec(L=self.L, xi=self.xi, l0=self.l0, l_formula=self.l_formula)


def af_params(
    x: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    s_override: float | None = None,
) -> AfParams:
    """Compute the classifier parameters at level x.

    Requires x > e^e and epsilon in (0, 1).  s_override, finite and
    >= e^e, replaces the default effective S = min(S_formula, x^(1/10));
    either way the effective value is floored at e^e, the domain edge
    of the normality test.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"need epsilon in (0,1), got {epsilon}")
    llx = iterated_log(x, 2) if x > 1.0 else 0.0
    if not E_TO_E < x < math.inf or llx <= 1.0:
        raise DomainError(f"need finite x > e^e = {E_TO_E:.4f}, got x={x}")
    l3 = math.log(llx)

    s_log = llx**36
    try:
        s_formula = math.exp(s_log)
    except OverflowError:
        s_formula = math.inf
    if s_override is not None and not E_TO_E <= s_override < math.inf:
        raise DomainError(f"s_override must be finite and >= e^e, got {s_override}")
    if s_override is None:
        s_eff = min(s_formula, x ** (1.0 / 10.0))
    else:
        s_eff = float(s_override)
    s_eff = max(s_eff, E_TO_E)

    # identity: loglog S = 36 log3 x, exact whenever log3 x > 0
    delta = math.sqrt(36.0 * l3 / llx)
    omega = llx ** (-0.5 + epsilon / 2.0)

    spec = default_xi(x)
    return AfParams(
        x=float(x),
        epsilon=float(epsilon),
        s_formula=s_formula,
        s_formula_log=s_log,
        s_effective=s_eff,
        s_overridden=(s_eff != s_formula),
        delta=delta,
        omega=omega,
        L=spec.L,
        l0=spec.l0,
        l_formula=spec.l_formula,
        xi=spec.xi,
    )


@dataclass(frozen=True)
class AfConditionsReport:
    """Per-condition outcome of classifying n at a fixed level.

    applicable is False when f(n) > x; in that case every condition is
    reported False and member is False.  member is the AND of the nine
    condition booleans.
    """

    n: int
    f_tag: str
    cond: tuple[bool, bool, bool, bool, bool, bool, bool, bool, bool]
    member: bool
    applicable: bool
    detail: dict = field(default_factory=dict, compare=False)


@lru_cache(maxsize=200_000)
def _normality_cached(p: int, s_eff: float) -> bool:
    return anatomy.is_s_normal(p, s_eff).is_normal


def _max_squarefull_divisor(fact: Factorization) -> int:
    out = 1
    for p, e in fact.pairs:
        if e >= 2:
            out *= p**e
    return out


def _unitary_divisor_condition(
    fact: Factorization, f_tag: str, threshold: float, sieve: FactorSieve | None
) -> tuple[bool, str | None]:
    """Condition (4): unitary divisors d >= threshold need
    Omega(f(d)) <= 10 loglog f(d).

    f is multiplicative and unitary divisors are subset products of the
    prime powers p^e || n, so Omega(f(d)) and log f(d) are subset sums
    of the per-prime-power contributions.  classify passes only n <= 10^12,
    which has at most 11 distinct primes (2*3*...*37 > 10^12), so at most
    2^11 subsets.
    """
    parts = []
    for p, e in fact.pairs:
        pf = Factorization(((p, e),))
        val = phi_of(pf) if f_tag == "phi" else sigma_of(pf)
        omega_val = factorize(val, sieve).big_omega()
        parts.append((math.log(p) * e, omega_val, math.log(val) if val > 1 else 0.0))
    log_threshold = math.log(threshold)
    # subsets[(log d, Omega(f(d)), log f(d))]
    subsets = [(0.0, 0, 0.0)]
    for log_pe, om, log_f in parts:
        subsets += [(ld + log_pe, o + om, lf + log_f) for ld, o, lf in subsets]
    for log_d, om, log_f in subsets:
        if log_d < log_threshold or log_d == 0.0:
            continue
        if log_f <= 0.0:
            return False, f"unitary divisor ~e^{log_d:.3f} has f(d) = 1"
        if om > 10.0 * math.log(log_f):
            return False, f"unitary divisor ~e^{log_d:.3f}: Omega={om} > 10 loglog f(d)"
    return True, None


def classify(
    n: int,
    f_tag: str,
    params: AfParams,
    sieve: FactorSieve | None = None,
) -> AfConditionsReport:
    """Evaluate all nine membership conditions for n.

    A FactorSieve covering n (and ideally f(n)) avoids trial division.
    Where n alone shows f(n) > x, n is reported not applicable without
    being factored; otherwise n past INPUT_CAP raises ResourceError.
    """
    if f_tag not in ("phi", "sigma"):
        raise DomainError(f"f_tag must be 'phi' or 'sigma', got {f_tag!r}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    x = params.x
    detail: dict = {}

    def not_applicable(why: str) -> AfConditionsReport:
        return AfConditionsReport(n=n, f_tag=f_tag, cond=(False,) * 9, member=False,
                                  applicable=False, detail={"not_applicable": why})

    # f(n) > X = floor(x), hence f(n) > x, can follow from n alone:
    # phi(n) >= sqrt(n/2) for every n, and sigma(n) >= n + 1 for n >= 2
    # (x > e^e, so n >= X means n >= 15)
    X = math.floor(x)
    if f_tag == "phi" and n > 2 * X * X:
        return not_applicable(f"phi(n) >= sqrt(n/2) > x = {x:g}")
    if f_tag == "sigma" and n >= X:
        return not_applicable(f"sigma(n) >= n + 1 > x = {x:g}")
    if n > INPUT_CAP:
        raise ResourceError(f"n = {n} exceeds the 10^12 input cap of trial division")

    fact_n = factorize(n, sieve)
    fn = phi_of(fact_n) if f_tag == "phi" else sigma_of(fact_n)
    if fn > x:
        return not_applicable(f"f(n) = {fn} > x = {x:g}")

    llx = math.log(math.log(x))
    logx = math.log(x)

    c0 = n >= x / logx
    if not c0:
        detail["0"] = f"n = {n} < x/log x = {x / logx:.6g}"

    fact_fn = factorize(fn, sieve)
    sq_n = _max_squarefull_divisor(fact_n)
    sq_fn = _max_squarefull_divisor(fact_fn)
    sq_cap = logx**2
    c1 = sq_n <= sq_cap and sq_fn <= sq_cap
    if not c1:
        detail["1"] = f"squarefull divisor {max(sq_n, sq_fn)} > (log x)^2 = {sq_cap:.6g}"

    bad = [p for p, _ in fact_n.pairs if not _normality_cached(p, params.s_effective)]
    c2 = not bad
    if bad:
        detail["2"] = f"non-S-normal primes {bad} at S = {params.s_effective:.6g}"

    c3 = fact_fn.big_omega() <= 10.0 * llx and fact_n.big_omega() <= 10.0 * llx
    if not c3:
        detail["3"] = (
            f"Omega(f(n)) = {fact_fn.big_omega()}, Omega(n) = {fact_n.big_omega()} "
            f"vs 10 loglog x = {10.0 * llx:.4f}"
        )

    c4, why4 = _unitary_divisor_condition(
        fact_n, f_tag, math.exp(math.sqrt(llx)), sieve
    )
    if why4:
        detail["4"] = why4

    vec = _renormalize_fact(fact_n, n, x, params.L, "from_p1")
    spec = params.spec()
    c5 = simplex_contains(vec, spec)
    if not c5:
        detail["5"] = f"renormalized vector {tuple(round(v, 4) for v in vec.entries)}"

    odd_omega = sum(e for p, e in fact_n.pairs if p != 2)
    c6 = odd_omega >= params.L + 1
    if not c6:
        detail["6"] = f"{odd_omega} odd prime factors < L+1 = {params.L + 1}"

    primes_desc = fact_n.primes_descending()
    if len(primes_desc) < 2:
        c7 = False
        detail["7"] = "p_0 and p_1 undefined (Omega(n) < 2)"
    else:
        p0, p1 = primes_desc[0], primes_desc[1]
        shifted = p0 - 1 if f_tag == "phi" else p0 + 1
        pplus = anatomy.largest_prime_factor(factorize(shifted, sieve))
        lower = x ** (1.0 / llx)
        upper = x ** (1.0 / (100.0 * llx))
        c7 = pplus >= lower and p1 < upper
        if not c7:
            detail["7"] = (
                f"P+(f(p_0)) = {pplus} vs x^(1/loglog x) = {lower:.6g}; "
                f"p_1 = {p1} vs x^(1/(100 loglog x)) = {upper:.6g}"
            )

    weighted = sum(
        series_coefficient(i + 1) * v for i, v in enumerate(vec.entries)
    )
    c8 = weighted <= 1.0 - params.omega
    if not c8:
        detail["8"] = f"weighted sum {weighted:.6f} > 1 - omega = {1.0 - params.omega:.6f}"

    cond = (c0, c1, c2, c3, c4, c5, c6, c7, c8)
    return AfConditionsReport(
        n=n,
        f_tag=f_tag,
        cond=cond,
        member=all(cond),
        applicable=True,
        detail=detail,
    )


@dataclass(frozen=True)
class CaptureCensus:
    """Exact census of values whose preimages escape the membership set."""

    f_tag: str
    x: int
    epsilon: float
    total_values: int
    values_with_outside_preimage: int
    fraction: float


def capture_census(
    f_tag: str,
    x: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    threads: int = 1,
) -> CaptureCensus:
    """Count the values v <= x of f, and those of them having at least
    one preimage outside the membership set.

    Both counts are V_f(x), the number of values of f up to x, read from
    the value bitmap (build_value_bitmap, count_values), because no n is
    a member at any accepted x.  Membership needs condition (7), hence
    p_1 < x^(1/(100 loglog x)).  Write t = loglog x; af_params requires
    t > 1.  The exponent log x / (100 loglog x) = e^t / (100 t) increases
    for t > 1, so the bound rises with x: 1.028 near e^e, 1.060 at 10^7,
    1.087 at the 10^12 input cap, and it first reaches 2 near
    x = 10^181.7.  p_1, when defined, is a prime, so at least 2; when it
    is not (Omega(n) < 2), (7) is False.  So (7) fails for every n,
    whatever epsilon and S, and every attained value has an outside
    preimage.  x past the input cap raises ResourceError; epsilon is still
    validated by af_params.  The bitmap is built on up to `threads`
    worker threads.
    """
    if f_tag not in ("phi", "sigma"):
        raise DomainError(f"f_tag must be 'phi' or 'sigma', got {f_tag!r}")
    if x > INPUT_CAP:
        raise ResourceError(f"x = {x} exceeds the 10^12 input cap")
    af_params(x, epsilon)
    bitmap = value_sets.build_value_bitmap(f_tag, x, threads=threads)
    total = out = value_sets.count_values(bitmap, x)
    return CaptureCensus(
        f_tag=f_tag,
        x=x,
        epsilon=epsilon,
        total_values=total,
        values_with_outside_preimage=out,
        fraction=out / total,
    )
