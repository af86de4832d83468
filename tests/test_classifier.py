import math
import random

import numpy as np
import pytest

from phisigma import (
    DomainError,
    ResourceError,
    af_params,
    capture_census,
    classify,
    factorize,
    phi_of,
    primes_up_to,
    sigma_of,
    structure_constants,
)
from phisigma.sieve import INPUT_CAP, build_factor_sieve, segment_map

from conftest import classify_oracle, phi_oracle_top
from reference_loops import capture_census_loop


def test_af_params_delta_identity():
    for x in (1e2, 1e6, 1e12, 1e100):
        p = af_params(x, 0.3)
        llx = math.log(math.log(x))
        assert p.delta**2 * llx == pytest.approx(36 * math.log(llx), rel=1e-12)


def test_af_params_omega_exponent_collapse():
    # the exponent -1/2 + eps/2 hits zero at eps = 1
    llx = math.log(math.log(1e9))
    assert llx ** (-0.5 + 1.0 / 2.0) == 1.0
    p = af_params(1e9, 0.999999)
    assert p.omega == pytest.approx(1.0, rel=1e-5)


def test_af_params_regression_1e100():
    p = af_params(1e100, 0.1)
    assert p.s_formula_log == pytest.approx(3.0148699098019086e26, rel=1e-12)
    assert p.s_formula == math.inf
    assert p.s_effective == pytest.approx(1e10, rel=1e-12)
    assert p.s_overridden
    assert p.delta == pytest.approx(3.348059886199351, rel=1e-12)
    assert p.omega == pytest.approx(0.46666920454876376, rel=1e-12)
    assert (p.L, p.l0, p.l_formula) == (2, 1, -2)
    assert p.xi == (1.1,)


def test_af_params_domain_guards():
    with pytest.raises(DomainError):
        af_params(10.0, 0.1)
    with pytest.raises(DomainError):
        af_params(1e6, 0.0)
    with pytest.raises(DomainError):
        af_params(1e6, 1.0)
    with pytest.raises(DomainError):
        af_params(1e6, 0.1, s_override=2.0)


def test_af_params_s_override_respected():
    p = af_params(1e6, 0.1, s_override=100.0)
    assert p.s_effective == 100.0
    assert p.s_overridden


def test_classify_not_applicable_when_value_exceeds_x():
    params = af_params(1e3, 0.1)
    rep = classify(10**6 + 3, "sigma", params)
    assert not rep.applicable
    assert not rep.member
    assert rep.cond == (False,) * 9


@pytest.mark.parametrize("x", [100.5, 1e4])
def test_classify_bound_from_n_alone_agrees_with_f_of_n(x):
    # phi(n) > x for n > 2 floor(x)^2 and sigma(n) > x for n >= floor(x),
    # read from n alone, say what factoring n says on both sides of each edge
    params = af_params(x)
    X = math.floor(x)
    for f_tag, edge, f in (("phi", 2 * X * X, phi_of), ("sigma", X, sigma_of)):
        for n in range(max(1, edge - 200), edge + 200):
            assert classify(n, f_tag, params).applicable == (f(factorize(n)) <= x), (f_tag, n)


def test_classify_bound_from_n_alone_keeps_n_of_small_phi():
    # phi(n)/n is smallest on multiples of 2*3*5*7, where phi(n) <= x holds
    # for n far above x (phi(210) = 48 at x = 100.5): a bound tighter than
    # n > 2 floor(x)^2 would report such n not applicable
    x = 100.5
    params = af_params(x)
    kept = 0
    for n in range(210, 2 * 100 * 100 + 1, 210):
        small = phi_of(factorize(n)) <= x
        assert classify(n, "phi", params).applicable == small, n
        kept += small
    assert kept > 0


def test_classify_refuses_trial_division_past_the_input_cap():
    # phi(n) <= x is not ruled out by n alone at x = 1e30, and n = 10^12 + 39
    # is prime: it would take some 5 * 10^5 odd trial divisors
    params = af_params(1e30)
    with pytest.raises(ResourceError):
        classify(10**12 + 39, "phi", params)
    assert classify(10**12, "phi", params).applicable  # at the cap itself: factored
    rep = classify(10**12 + 39, "sigma", af_params(1e4))
    assert not rep.applicable and "n + 1" in rep.detail["not_applicable"]


def test_classify_prime_fails_odd_factor_count():
    params = af_params(1e6, 0.1)
    rep = classify(999983, "phi", params)
    assert rep.applicable
    assert not rep.cond[6]
    assert not rep.member


def test_classify_power_of_two_zero_vector():
    params = af_params(1e6, 0.1)
    rep = classify(2**10, "phi", params)
    assert rep.cond[5]  # zero vector is in every simplex
    assert rep.cond[8]  # weighted sum 0 <= 1 - omega
    assert not rep.cond[6]
    assert not rep.member


def test_classify_single_prime_factor_reports_seven_failed():
    params = af_params(1e6, 0.1)
    rep = classify(999983, "phi", params)
    assert not rep.cond[7]
    assert "7" in rep.detail


def test_classify_is_deterministic():
    params = af_params(1e5, 0.2)
    a = classify(4620, "phi", params)
    b = classify(4620, "phi", params)
    assert a == b


def test_classify_matches_independent_oracle():
    rng = random.Random(20260809)
    cases = 0
    for params in (af_params(1e5, 0.1), af_params(1e6, 0.3)):
        while cases < 500 * (1 if params.x < 1e6 else 2):
            n = rng.randrange(1, 50000)
            f_tag = rng.choice(("phi", "sigma"))
            rep = classify(n, f_tag, params)
            want = classify_oracle(n, f_tag, params)
            if want is None:
                assert not rep.applicable
            else:
                assert rep.applicable
                assert rep.cond == want, (n, f_tag, rep.cond, want)
                assert rep.member == all(want)
            cases += 1


def test_condition5_implies_comparison_inequalities():
    # members of the simplex produced by classification satisfy the
    # geometric comparison bounds
    params = af_params(1e6, 0.1)
    rho = structure_constants().rho
    from phisigma import renormalize

    hits = 0
    for n in range(3, 20000, 7):
        rep = classify(n, "phi", params)
        if not (rep.applicable and rep.cond[5]):
            continue
        e = renormalize(n, params.x, params.L, "from_p1").entries
        for j in range(1, params.L + 1):
            assert e[j - 1] < 3 * rho**j
            for i in range(1, j):
                assert e[j - 1] <= 3 * rho ** (j - i) * e[i - 1] + 1e-12
        hits += 1
    assert hits > 100


def test_condition_removal_never_shrinks_membership():
    params = af_params(1e5, 0.1)
    reports = [
        classify(n, "phi", params)
        for n in range(2, 4000)
    ]
    applicable = [r for r in reports if r.applicable]
    full = sum(r.member for r in applicable)
    for drop in range(9):
        relaxed = sum(
            all(c for i, c in enumerate(r.cond) if i != drop) for r in applicable
        )
        assert relaxed >= full


def test_input_cap_below_the_product_of_12_primes():
    # classify factors only n <= INPUT_CAP, so condition (4) meets at most
    # 11 distinct primes, 2^11 unitary divisors
    primes = primes_up_to(37).tolist()
    assert len(primes) == 12
    assert math.prod(primes[:11]) <= INPUT_CAP < math.prod(primes)


def test_condition3_never_fails_at_desk_scale():
    # Omega(n) <= 19 for n <= 1e6 while the budget is 10 loglog 1e6 ~ 26
    from conftest import joined_scan

    x = 10**6
    om = joined_scan(2, x + 1, want_omega=True)["omega"]
    threshold = 10 * math.log(math.log(x))
    assert int((om >= threshold).sum()) == 0


def test_capture_census_small_scale():
    c = capture_census("phi", 2000)
    assert 0.0 <= c.fraction <= 1.0
    assert c.values_with_outside_preimage <= c.total_values


def test_capture_census_pinned_1e4():
    # regression values: at desk scale condition (7) is unsatisfiable,
    # so every attained value has an outside preimage
    for f_tag, total in (("phi", 2374), ("sigma", 2503)):
        c = capture_census(f_tag, 10**4)
        assert c.total_values == total  # consistent with the value counts
        assert c.values_with_outside_preimage == total
        assert c.fraction == 1.0


def test_capture_census_rejects_oversized():
    # refused at once by the input cap, before af_params, which cannot
    # take 10^400 as a float
    for x in (INPUT_CAP + 1, 10**400):
        with pytest.raises(ResourceError, match="input cap"):
            capture_census("phi", x)


_CENSUS_SETTINGS = [
    {},
    {"epsilon": 0.5},
    {"s_override": 50.0},
]


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
@pytest.mark.parametrize("x", [2000, 10**4])
@pytest.mark.parametrize("kw", _CENSUS_SETTINGS, ids=["default", "eps0.5", "S50"])
def test_capture_census_equals_reference_loop(f_tag, x, kw):
    # S is set on the oracle's side alone: the census takes no S, and
    # counts the same for every S
    c = capture_census(f_tag, x, kw.get("epsilon", 0.1))
    assert (c.total_values, c.values_with_outside_preimage) == capture_census_loop(
        f_tag, x, **kw
    )


def test_capture_census_independent_of_window(monkeypatch):
    from phisigma import sieve

    for f_tag in ("phi", "sigma"):
        want = capture_census(f_tag, 3000)
        for size in (97, 1000, 3001):
            monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
            assert capture_census(f_tag, 3000) == want


def test_census_cap_below_condition7_lemma():
    # capture_census relies on x^(1/(100 loglog x)) < 2 up to its cap,
    # the input cap
    llx = math.log(math.log(INPUT_CAP))
    assert INPUT_CAP ** (1.0 / (100.0 * llx)) < 2.0


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
@pytest.mark.parametrize("x", [16, 17, 100, 3000, 10**4])
def test_condition7_fails_for_every_preimage(f_tag, x):
    # the lemma behind capture_census, checked exhaustively: no n with
    # f(n) <= x passes (7), so no n is a member
    params = af_params(x)
    top = phi_oracle_top(x) if f_tag == "phi" else x
    sieve = build_factor_sieve(2, top + 2)
    fn = segment_map(2, top + 1, f_tag)
    for n in [1] + (np.flatnonzero(fn <= x) + 2).tolist():
        report = classify(n, f_tag, params, sieve)
        assert report.applicable and not report.cond[7], n


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
@pytest.mark.parametrize("x,kw", [(10**4, {}), (3000, {"epsilon": 0.5}),
                                  (3000, {"s_override": 50.0})])
def test_scan_conditions_equal_classify(f_tag, x, kw):
    # all nine conditions against the naive oracle for every n with
    # f(n) <= x, the preimages the census decides by the lemma
    params = af_params(x, **kw)
    top = phi_oracle_top(x) if f_tag == "phi" else x
    sieve = build_factor_sieve(2, top + 2)
    fn = segment_map(2, top + 1, f_tag)
    conds = []
    for n in (np.flatnonzero(fn <= x) + 2).tolist():
        report = classify(n, f_tag, params, sieve)
        assert report.cond == classify_oracle(n, f_tag, params), n
        conds.append(report.cond)
    assert not all(c[0] for c in conds) and not all(c[6] for c in conds)
