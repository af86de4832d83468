"""Structure constants of the totient value-counting problem.

The generating series F(z) = sum a_n z^n with
a_n = (n+1)log(n+1) - n log(n) - 1 has a unique root rho of F(rho) = 1
on (0, 1).  From rho and F'(rho) the constants C and D follow in closed
form, and with them the predictor Y(x) and the level function L_0(x).

All evaluation is double precision.  Series tails are certified by an
explicit geometric majorant with a 4x safety factor; the floor on
achievable accuracy is a few ulp, so tolerances below 1e-15 are
rejected.

log_k here always means the k-th iterate of the natural logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

ROOT_BRACKET = (0.5, 0.6)

TOL_FLOOR = 1e-15

E_TO_E = math.exp(math.e)  # loglog t >= 1 from here on

_MAX_TERMS = 200_000


def series_coefficient(n: int) -> float:
    """a_n = (n+1)log(n+1) - n log(n) - 1, evaluated cancellation-free.

    Rewritten as n*log1p(1/n) + log(n+1) - 1 so the result keeps full
    relative precision even for large n (a_n ~ log n).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return n * math.log1p(1.0 / n) + math.log(n + 1) - 1.0


def _tail_start(z: float, n: int, term: float, derivative: bool) -> float:
    """Upper bound on the series tail beyond index n.

    Successive term ratios are at most q = z * ln(n+2)/ln(n) for the
    plain series (times (n+1)/n for the derivative series), and q
    decreases in n, so the tail is dominated by the geometric series
    term * q / (1 - q) once q < 1.
    """
    q = z * math.log(n + 2) / math.log(n)
    if derivative:
        q *= (n + 1) / n
    if q >= 1.0:
        return math.inf
    return term * q / (1.0 - q)


def _eval_series(z: float, tol: float, derivative: bool) -> float:
    if not 0.0 < z < 1.0:
        raise DomainError(f"series defined on (0,1), got z={z}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"need finite tol > 0, got {tol}")
    terms = []
    n = 1
    while True:
        a = series_coefficient(n)
        t = n * a * z ** (n - 1) if derivative else a * z**n
        terms.append(t)
        # 4x safety factor on the certified majorant
        if n >= 4 and _tail_start(z, n, t, derivative) < tol / 4.0:
            break
        if n >= _MAX_TERMS:
            raise DomainError(
                f"series truncation failed to certify tol={tol} at z={z}"
            )
        n += 1
    return math.fsum(terms)


def eval_F(z: float, tol: float = 1e-14) -> float:
    """F(z) with truncation error certified below tol."""
    return _eval_series(z, tol, derivative=False)


def eval_F_prime(z: float, tol: float = 1e-14) -> float:
    """F'(z) with truncation error certified below tol."""
    return _eval_series(z, tol, derivative=True)


def solve_rho(tol: float = 1e-14) -> float:
    """The root of F(rho) = 1, by bisection on [0.5, 0.6].

    F is strictly increasing on (0,1), so the root is unique; the
    bracket is validated before iterating.  The bisection always runs
    to the ulp floor (53 steps are cheap), so the result is limited
    only by the accuracy of the series evaluation, a few ulp.  tol
    below the double precision floor 1e-15 is rejected; values above
    it are honored trivially.
    """
    if tol < TOL_FLOOR:
        raise DomainError(f"tol below double-precision floor {TOL_FLOOR}")
    lo, hi = ROOT_BRACKET
    eval_tol = min(tol, 1e-14) / 4.0
    if not (eval_F(lo, eval_tol) < 1.0 < eval_F(hi, eval_tol)):
        raise DomainError("root bracket [0.5, 0.6] failed its sign check")
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if eval_F(mid, eval_tol) < 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class StructureConstants:
    """The tuple (rho, F'(rho), C, D) with a certified error bound.

    C = 1 / (2|log rho|) and D = 2C(1 + log F'(rho) - log 2C) - 3/2;
    tol bounds the absolute error of each field.
    """

    rho: float
    f_prime_at_rho: float
    c_const: float
    d_const: float
    tol: float


@lru_cache(maxsize=8)
def structure_constants(tol: float = 1e-13) -> StructureConstants:
    """Compute rho, F'(rho), C, D with absolute errors below tol.

    The root is solved to tol/16 so that the error amplification
    through F' (|F'(rho)| < 6) and the closed forms for C and D stays
    inside the requested bound.
    """
    if tol < 10 * TOL_FLOOR:
        raise DomainError(f"tol below achievable floor {10 * TOL_FLOOR}")
    rho = solve_rho(max(tol / 16.0, TOL_FLOOR))
    fprime = eval_F_prime(rho, max(tol / 16.0, TOL_FLOOR))
    c = 1.0 / (2.0 * abs(math.log(rho)))
    d = 2.0 * c * (1.0 + math.log(fprime) - math.log(2.0 * c)) - 1.5
    return StructureConstants(
        rho=rho, f_prime_at_rho=fprime, c_const=c, d_const=d, tol=tol
    )


def q_function(lam: float) -> float:
    """Q(lambda) = lambda*log(lambda) - lambda + 1 for lambda > 0."""
    if lam <= 0.0:
        raise DomainError(f"need lambda > 0, got {lam}")
    return lam * math.log(lam) - lam + 1.0


def iterated_log(x: float, k: int) -> float:
    """k-th iterate of the natural logarithm; DomainError if undefined."""
    v = float(x)
    for i in range(k):
        if v <= 0.0:
            raise DomainError(f"log_{k}({x}) undefined (log_{i} is {v} <= 0)")
        v = math.log(v)
    return v


def y_predictor(x: float, k: StructureConstants | None = None) -> float:
    """Y(x) = exp(C(log3 x - log4 x)^2 + D log3 x - (D + 1/2 - 2C) log4 x).

    Defined for log3 x > 0 (x > e^e); log4 x goes negative below
    x = e^(e^e) but the expression stays well-defined, and the power
    scaling law of Y needs exactly that range.
    """
    if k is None:
        k = structure_constants()
    l3 = iterated_log(x, 3)
    if l3 <= 0.0:
        raise DomainError(f"y_predictor needs log3 x > 0 (x > e^e); got x={x}")
    l4 = math.log(l3)
    c, d = k.c_const, k.d_const
    return math.exp(c * (l3 - l4) ** 2 + d * l3 - (d + 0.5 - 2.0 * c) * l4)


def l0_of(x: float, k: StructureConstants | None = None) -> int:
    """L_0(x) = floor(2C(log3 x - log4 x)).

    Defined for log3 x > 0 (x > e^e); log4 x may be negative there.
    Note t - log t >= 1 for t > 0, so L_0 >= floor(2C) = 1 always.
    """
    if k is None:
        k = structure_constants()
    l3 = iterated_log(x, 3)
    if not 0.0 < l3 < math.inf:
        raise DomainError(f"l0_of needs finite log3 x > 0 (finite x > e^e); got x={x}")
    l4 = math.log(l3)
    return math.floor(2.0 * k.c_const * (l3 - l4))
