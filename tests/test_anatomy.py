import math
import random

import numpy as np
import pytest

from phisigma import (
    DomainError,
    big_omega_range,
    check_poisson_tail,
    check_pplus_lower,
    factorize,
    is_s_normal,
    largest_prime_factor,
    omega_tail_census,
    poisson_tail_bound,
    primes_up_to,
    psi_smooth_count,
    sieve_bound_census,
)

from conftest import big_omega_trial, factor_pairs_naive

E_TO_E = math.exp(math.e)


def test_big_omega_range_hand_counts():
    f12 = factorize(12)
    assert big_omega_range(f12, 1, 12) == 3
    assert big_omega_range(f12, 2, 3) == 1  # lower end strict: the 2s drop out
    assert big_omega_range(f12, 5, 5) == 0


def test_big_omega_additivity():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        fact = factorize(n)
        U, T, W = sorted(rng.uniform(1, n) for _ in range(3))
        assert big_omega_range(fact, U, T) + big_omega_range(fact, T, W) == \
            big_omega_range(fact, U, W)


def test_big_omega_full_range_equals_total():
    for n in range(2, 10**5 + 1):
        fact = factorize(n)
        assert big_omega_range(fact, 1, n) == fact.big_omega()
    # spot-check the library factorization against the naive oracle too
    for n in (2, 97, 1024, 99991, 2 * 3 * 5 * 7 * 11):
        assert factorize(n).big_omega() == big_omega_trial(n)


def test_largest_prime_factor_examples():
    assert largest_prime_factor(factorize(1)) == 1
    assert largest_prime_factor(factorize(12)) == 3
    assert largest_prime_factor(factorize(97)) == 97


def test_s_normal_vacuous_small_prime():
    rep = is_s_normal(3, 100.0)
    assert rep.is_normal
    assert rep.worst_window is None  # both shifted values sit below S
    assert rep.worst_margin is None


def test_s_normal_worst_margin_decides_the_window_test(small_sieve):
    S = 16.0
    lls = math.log(math.log(S))
    for p in primes_up_to(20000).tolist()[6:]:  # p >= 17: p - 1 >= S
        rep = is_s_normal(p, S, small_sieve)
        _, t, observed, expected = rep.worst_window
        windows_pass = rep.passed_window_phi and rep.passed_window_sigma
        assert windows_pass == (rep.worst_margin <= 0.0), p
        # t may be the float just below a prime: same margin to 1e-9
        again = abs(observed - expected) - math.sqrt(lls * math.log(math.log(t)))
        assert rep.worst_margin == pytest.approx(again, abs=1e-9), p


def test_s_normal_mersenne_shift_fails_small_prime_mass():
    # p + 1 = 2^13 has thirteen prime factors below S = 16; the budget
    # 2 loglog 16 is about 2.04
    rep = is_s_normal(8191, 16.0)
    assert not rep.passed_1S_sigma
    assert not rep.is_normal
    f = factorize(2**13)
    assert big_omega_range(f, 1, 16) == 13
    assert 2 * math.log(math.log(16)) < 13


def test_s_normal_rejects_small_S():
    with pytest.raises(DomainError):
        is_s_normal(11, 10.0)


def _window_pass_grid(value: int, S: float) -> bool:
    # brute force over every integer window (U, T), S <= U < T <= value
    if value < S:
        return True
    pairs = factor_pairs_naive(value)
    lls = math.log(math.log(S))
    for U in range(math.ceil(S), value):
        llu = math.log(math.log(U))
        for T in range(U + 1, value + 1):
            om = sum(e for p, e in pairs if U < p <= T)
            expected = math.log(math.log(T)) - llu
            if abs(om - expected) >= math.sqrt(lls * math.log(math.log(T))):
                return False
    return True


@pytest.mark.parametrize("S", [16.0, 20.0, 40.0])
def test_s_normal_window_flags_match_grid_scan(S):
    for p in primes_up_to(300).tolist():
        if p == 2:
            continue
        rep = is_s_normal(p, S)
        assert rep.passed_window_phi == _window_pass_grid(p - 1, S), (p, S)
        assert rep.passed_window_sigma == _window_pass_grid(p + 1, S), (p, S)


def test_pplus_lower_census(small_sieve):
    S, x = 16.0, 10**7
    checked = 0
    for p in primes_up_to(10**4).tolist():
        if p - 1 < S:
            continue
        if not is_s_normal(p, S, small_sieve).is_normal:
            continue
        assert check_pplus_lower(p, S, x, small_sieve)
        checked += 1
    assert checked >= 25  # 27 normal primes below 1e4 at this S


def test_pplus_lower_rejects_precondition_violation():
    with pytest.raises(DomainError):
        check_pplus_lower(5, 16.0, 10**7)  # p - 1 = 4 < S


def test_normal_primes_satisfy_omega_growth_cap(small_sieve):
    # S-normal p with f(p) >= S has Omega(f(p)) <= 3 loglog f(p), the
    # chain behind the largest-prime-factor floor
    S = 16.0
    sampled = 0
    for p in primes_up_to(10**4).tolist():
        if p - 1 < S or not is_s_normal(p, S, small_sieve).is_normal:
            continue
        for value in (p - 1, p + 1):
            fact = factorize(value)
            assert fact.big_omega() <= 3 * math.log(math.log(value))
        sampled += 1
        if sampled >= 100:
            break
    assert sampled >= 20


def test_s_normal_density_census_on_sample(small_sieve):
    # At desk scale the clamped S is e^e and the normality conditions
    # are extremely strict; the honest measured failure fraction on a
    # fixed sample at x = 1e6 is pinned here as a regression value.
    primes = primes_up_to(10**6)
    rng = np.random.Generator(np.random.Philox(key=1))
    idx = np.sort(rng.choice(len(primes), size=500, replace=False))
    fails = sum(
        0 if is_s_normal(int(p), E_TO_E, small_sieve).is_normal else 1
        for p in primes[idx]
    )
    assert fails == 488


def test_psi_hand_enumerations():
    assert psi_smooth_count(10, 2).psi_exact == 4  # {1, 2, 4, 8}
    assert psi_smooth_count(100, 3).psi_exact == 20
    assert psi_smooth_count(100, 100).psi_exact == 100
    assert psi_smooth_count(1, 5).psi_exact == 1


def test_psi_all_pairs_small_rectangle():
    # exhaustive oracle: largest prime factor table once, prefix counts
    N = 300
    lpf = [0, 1] + [max(p for p, _ in factor_pairs_naive(n)) for n in range(2, N + 1)]
    for y in range(2, 21):
        smooth = [1 if lpf[n] <= y else 0 for n in range(N + 1)]
        prefix = 0
        counts = []
        for n in range(1, N + 1):
            prefix += smooth[n]
            counts.append(prefix)
        for x in range(1, N + 1, 7):
            assert psi_smooth_count(x, y).psi_exact == counts[x - 1], (x, y)


@pytest.fixture(scope="module")
def lpf_to_1e4():
    """The largest prime factor of each n <= 10^4 (1 at n = 1)."""
    lpf = np.zeros(10**4 + 1, dtype=np.int64)
    lpf[1] = 1
    for p in primes_up_to(10**4):
        lpf[p::p] = p
    return lpf


def test_psi_full_y_sweep_at_1e4(lpf_to_1e4):
    lpf = lpf_to_1e4
    xs = [1, 2, 3, 5, 10, 31, 100, 316, 1000, 3162, 9999, 10**4]
    sorted_prefix = {x: np.sort(lpf[1 : x + 1]) for x in xs}
    for y in range(2, 101):
        for x in xs:
            want = int(np.searchsorted(sorted_prefix[x], y, side="right"))
            assert psi_smooth_count(x, y).psi_exact == want, (x, y)


def test_psi_estimate_fields():
    sc = psi_smooth_count(10**4, 10)
    assert sc.u == pytest.approx(math.log(10**4) / math.log(10))
    assert sc.cep_estimate == pytest.approx(10**4 * sc.u**-sc.u)
    assert 1 <= sc.psi_exact <= 10**4


def test_omega_tail_census_brute_force():
    x, alpha = 1000, 3.0
    threshold = alpha * math.log(math.log(x))
    want = sum(1 for n in range(2, x + 1) if big_omega_trial(n) >= threshold)
    observed, shape = omega_tail_census(x, alpha)
    assert observed == want == 60
    assert shape > 0


def test_omega_tail_census_monotone_in_alpha():
    counts = [omega_tail_census(10**4, a)[0] for a in (1.2, 1.5, 2.0, 2.5, 3.0)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_omega_tail_census_near_one():
    observed, shape = omega_tail_census(10**6, 1.05)
    assert 0 < observed <= 10**6
    assert observed / shape > 0  # ratio recorded, constant unknown


# pinned from a scan of every n of [2, x], before the lift by powers of 2
@pytest.mark.parametrize("threads", [1, 2])
def test_censuses_pinned_1e8(threads):
    assert omega_tail_census(10**8, 1.5, threads=threads)[0] == 32_124_659
    assert psi_smooth_count(10**8, 100, threads=threads).psi_exact == 924_573
    assert psi_smooth_count(10**8, 10**4, threads=threads).psi_exact == 33_268_090


def test_omega_tail_census_domain():
    with pytest.raises(DomainError):
        omega_tail_census(10**4, 1.0)
    with pytest.raises(DomainError):
        omega_tail_census(10, 2.0)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_censuses_same_for_every_thread_count(monkeypatch, threads):
    # 2^10-integer windows make 49 of the odd n to 1e5, so every thread is a worker
    import os

    from phisigma import sieve, workers

    def censuses():
        return ([psi_smooth_count(10**5, y, threads=threads).psi_exact for y in (2, 30, 316)],
                [omega_tail_census(10**5, a, threads=threads)[0] for a in (1.2, 2.0)])

    want = censuses()
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 10)
    ran = []
    real = workers.run_workers
    monkeypatch.setattr(workers, "run_workers", lambda n, task: (ran.append(n), real(n, task)))
    assert censuses() == want
    assert ran == [threads] * 5


# x around every power of 2 up to 2^16, where x >> a crosses from one
# odd m to the next; with 16-integer windows x >> a also falls inside a
# window and on both its edges
_EDGES = sorted({2**k + d for k in range(4, 17) for d in (-1, 0, 1)})


@pytest.fixture(scope="module")
def omega_to_edges():
    return np.array([0, 0] + [big_omega_trial(n) for n in range(2, _EDGES[-1] + 1)])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_omega_census_lift_matches_trial_division(monkeypatch, omega_to_edges, threads):
    # every x in 16..1100 and around each 2^k, each on one of the three
    # thread counts, against Omega by trial division
    import os

    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    xs = [x for x in sorted({*range(16, 1101), *_EDGES}) if x >= 16 and x % 3 == threads - 1]
    for alpha in (1.05, 1.5, 2.0, 2.9):
        for x in xs:
            threshold = alpha * math.log(math.log(x))
            want = int(np.count_nonzero(omega_to_edges[2 : x + 1] >= threshold))
            assert omega_tail_census(x, alpha, threads=threads)[0] == want, (x, alpha)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_psi_lift_matches_prefix_oracle(monkeypatch, lpf_to_1e4, threads):
    # y = 2 counts the powers of 2 alone, y = x every n
    import os

    from phisigma import sieve

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 16)
    xs = sorted({1, 2, 3, *range(1, 301, 7), 5, 10, 31, 100, 316, 1000, 3162, 9999, 10**4,
                 *(x for x in _EDGES if x <= 10**4)})
    for x in xs:
        lpf_x = np.sort(lpf_to_1e4[1 : x + 1])
        for y in sorted({2, 3, 5, 7, 100, max(x, 2)}):
            want = int(np.searchsorted(lpf_x, y, side="right"))
            assert psi_smooth_count(x, y, threads=threads).psi_exact == want, (x, y)


def test_poisson_tail_examples():
    z, alpha = 10.0, 0.5
    lhs = sum(z**k / math.factorial(k) for k in range(0, int(alpha * z) + 1))
    assert lhs < poisson_tail_bound(z, alpha)
    assert check_poisson_tail(10.0, 0.5)
    assert check_poisson_tail(1.0, 0.5)


def test_poisson_tail_grid():
    zs = [0.3, 0.7, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0, 100.0]
    alphas = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    for z in zs:
        for a in alphas:
            assert check_poisson_tail(z, a), (z, a)


def test_poisson_bound_approaches_full_series():
    # alpha -> 1-: the bound tends to e^z, which dominates the partial sum
    z = 5.0
    for a in (0.9, 0.99, 0.999):
        assert poisson_tail_bound(z, a) <= math.exp(z) * 1.001
        assert check_poisson_tail(z, a)


def test_poisson_tail_domain():
    with pytest.raises(DomainError):
        poisson_tail_bound(-1.0, 0.5)
    with pytest.raises(DomainError):
        poisson_tail_bound(1.0, 1.0)


def test_sieve_census_prime_count():
    observed, shape = sieve_bound_census([(1, 0)], 100)
    assert observed == 25
    assert shape > 0


def test_sieve_census_twin_primes():
    observed, _ = sieve_bound_census([(1, 0), (1, 2)], 10**4)
    assert observed == 205


def test_sieve_census_charges_its_prime_mask(monkeypatch):
    from phisigma import ResourceError
    from phisigma.errors import MEMORY_BUDGET_ENV

    # the mask, the survivors and 1280 bytes for the arrays' objects
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "5000")
    assert sieve_bound_census([(1, 0)], 1859)[0] == 283  # 1860 + 1859 + 1280 fit
    with pytest.raises(ResourceError):
        sieve_bound_census([(1, 0), (1, 2)], 1859)  # a 1862-byte mask: 5001 bytes


def _census_oracle(forms, x):
    def prime(v):
        return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))

    return sum(all(prime(a * n + b) for a, b in forms) for n in range(1, x + 1))


def test_sieve_census_negative_b_matches_oracle():
    fixed = [
        ([(1, -5)], 200),
        ([(2, -7), (1, 0)], 300),
        ([(1, -1), (2, -1)], 250),
        ([(1, -150), (3, 1)], 100),  # the first form is negative at every n
        ([(1, -500)], 100),  # every form is negative at every n
        ([(6, -1), (6, 1)], 400),
    ]
    rng = random.Random(3000)
    randomized = []
    while len(randomized) < 60:
        forms = [(rng.randint(1, 6), rng.randint(-60, 60))
                 for _ in range(rng.randint(1, 3))]
        if len(set(forms)) < len(forms) or any(
            a1 * b2 == a2 * b1 for i, (a1, b1) in enumerate(forms)
            for a2, b2 in forms[i + 1 :]
        ):
            continue
        randomized.append((forms, rng.randint(100, 400)))
    for forms, x in fixed + randomized:
        assert sieve_bound_census(forms, x)[0] == _census_oracle(forms, x), forms


def test_sieve_census_charges_its_survivor_array(monkeypatch):
    from phisigma import ResourceError
    from phisigma.errors import MEMORY_BUDGET_ENV

    # both arrays are live at once, so one request charges both
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "5000")
    assert sieve_bound_census([(1, -10)], 1864)[0] == 283  # 1855 + 1864 + 1280 fit
    for x in (1865, 5000):  # 5001 bytes; at 5000 the two arrays alone are 9991
        with pytest.raises(ResourceError):
            sieve_bound_census([(1, -10)], x)


def test_sieve_census_degenerate_forms():
    with pytest.raises(DomainError):
        sieve_bound_census([(1, 1), (2, 2)], 100)


def test_sieve_census_three_forms():
    # n, n+2, n+6 all prime: 5,11,17,29,41,59,71 -> hand count below 100
    observed, _ = sieve_bound_census([(1, 0), (1, 2), (1, 6)], 100)
    want = sum(
        1
        for n in range(1, 101)
        if all(
            all(v % q for q in range(2, int(v**0.5) + 1)) and v >= 2
            for v in (n, n + 2, n + 6)
        )
    )
    assert observed == want
