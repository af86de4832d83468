import math
import random

import numpy as np
import pytest

from phisigma import (
    BudgetExceededError,
    DomainError,
    Factorization,
    af_params,
    capture_census,
    classify,
    primes_up_to,
    structure_constants,
)
from phisigma.classifier import _omega_table, _scan_conditions, _unitary_divisor_condition
from phisigma.sieve import segment_map
from phisigma.value_sets import phi_preimage_bound

from conftest import big_omega_trial, classify_oracle
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


def test_unitary_divisor_budget_guard():
    fact = Factorization(tuple((int(p), 1) for p in primes_up_to(80)))  # 22 primes
    with pytest.raises(BudgetExceededError):
        _unitary_divisor_condition(fact, "phi", 10.0, None)


def test_condition3_never_fails_at_desk_scale():
    # Omega(n) <= 19 for n <= 1e6 while the budget is 10 loglog 1e6 ~ 26
    from phisigma.sieve import primes_up_to as put, segment_scan

    x = 10**6
    om = segment_scan(2, x + 1, put(1000), want_omega=True)["omega"]
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
    from phisigma import ResourceError

    with pytest.raises(ResourceError):
        capture_census("phi", 10**8)


_CENSUS_SETTINGS = [
    {},
    {"epsilon": 0.5},
    {"s_override": 50.0},
]


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
@pytest.mark.parametrize("x", [2000, 10**4])
@pytest.mark.parametrize("kw", _CENSUS_SETTINGS, ids=["default", "eps0.5", "S50"])
def test_capture_census_equals_reference_loop(f_tag, x, kw):
    c = capture_census(f_tag, x, **kw)
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


def test_omega_table_matches_trial_division(monkeypatch):
    from phisigma import sieve

    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 777)
    table = _omega_table(5000)
    assert table.dtype == np.int8
    assert table[:2].tolist() == [0, 0]
    assert table[2:].tolist() == [big_omega_trial(v) for v in range(2, 5001)]


@pytest.mark.parametrize("f_tag", ["phi", "sigma"])
@pytest.mark.parametrize("x,kw", [(10**4, {}), (3000, {"epsilon": 0.5}),
                                  (3000, {"s_override": 50.0})])
def test_scan_conditions_equal_classify(f_tag, x, kw):
    # columns (0), (3), (6) against classify().cond for every n with f(n) <= x
    params = af_params(x, **kw)
    bound = phi_preimage_bound(x) if f_tag == "phi" else x
    fn = segment_map(2, bound + 1, f_tag)
    n = np.arange(2, bound + 1, dtype=np.int64)
    keep = fn <= x
    n, fn = n[keep], fn[keep]
    omega_n = _omega_table(bound)[n]
    cols = _scan_conditions(n, fn, omega_n, _omega_table(x), params)
    got = np.stack(cols, axis=1).tolist()
    want = [[classify(k, f_tag, params).cond[i] for i in (0, 3, 6)]
            for k in n.tolist()]
    assert got == want
    assert not all(c[0] for c in want) and not all(c[2] for c in want)
