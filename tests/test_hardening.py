"""Boundary and robustness checks that cut across modules."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from phisigma import (
    DomainError,
    SimplexSpec,
    af_params,
    build_factor_sieve,
    build_value_bitmap,
    count_values,
    eval_F,
    intersect_count,
    is_s_normal,
    l0_of,
    omega_tail_census,
    primes_up_to,
    psi_smooth_count,
    segment_map,
    simplex_volume_mc,
    unit_spec,
)

from conftest import phi_trial

CLI = [sys.executable, "-m", "phisigma.cli"]


@pytest.mark.parametrize("x", [7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256])
def test_count_values_at_byte_boundaries(x):
    bm = build_value_bitmap("phi", x)
    want = len({v for n in range(1, 6 * x + 100) if (v := phi_trial(n)) <= x})
    assert count_values(bm, x) == want
    # partial prefixes agree with a direct bit read
    for t in range(0, x + 1, max(1, x // 7)):
        assert count_values(bm, t) == sum(bm.test(v) for v in range(1, t + 1))


def test_intersect_count_partial_byte_prefixes():
    bp = build_value_bitmap("phi", 100)
    bs = build_value_bitmap("sigma", 100)
    for t in range(0, 101, 9):
        want = sum(bp.test(v) and bs.test(v) for v in range(1, t + 1))
        assert intersect_count(bp, bs, t) == want


def test_bitmap_test_bounds():
    bm = build_value_bitmap("phi", 10)
    with pytest.raises(DomainError):
        bm.test(11)
    with pytest.raises(DomainError):
        bm.test(-1)


def test_count_values_range_errors():
    bm = build_value_bitmap("sigma", 10)
    with pytest.raises(DomainError):
        count_values(bm, 11)
    with pytest.raises(DomainError):
        count_values(bm, -1)


def test_psi_spans_segment_boundaries(monkeypatch):
    from phisigma import sieve

    whole = psi_smooth_count(5000, 13).psi_exact
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 97)
    chunked = psi_smooth_count(5000, 13).psi_exact
    assert whole == chunked


def test_segment_map_single_element_windows():
    for n in (2, 3, 4, 97, 1024):
        phi, sigma = segment_map(n, n + 1, "both")
        assert len(phi) == 1 == len(sigma)
        assert phi[0] == phi_trial(n)


def test_s_normal_worst_window_well_formed(small_sieve):
    for p in primes_up_to(2000).tolist():
        rep = is_s_normal(p, 16.0, small_sieve)
        if rep.worst_window is None:
            assert max(p - 1, p + 1) < 16.0 or p == 2
            continue
        u, t, observed, expected = rep.worst_window
        assert 16.0 <= u < t  # strict even for single-prime limit windows
        assert t <= p + 1
        assert observed >= 0
        assert expected == pytest.approx(
            math.log(math.log(t)) - math.log(math.log(u))
        )


def test_cli_domain_error_leaves_no_output_file(tmp_path):
    out = tmp_path / "x.json"
    r = subprocess.run(
        CLI + ["omega-census", "--x", "1000", "--alpha", "0.5",
               "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 1
    assert not out.exists()


def test_cli_values_table_streaming_exits_64():
    r = subprocess.run(
        CLI + ["values-table", "--limits", "2000", "--streaming"],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 64
    assert r.stdout == ""
    assert "--streaming" in r.stderr


def test_cli_capture_census_override_round_trip():
    r = subprocess.run(
        CLI + ["capture-census", "--f", "phi", "--x", "500",
               "--S-override", "50"],
        capture_output=True, text=True, timeout=300,
    )
    payload = json.loads(r.stdout)
    assert payload["x"] == 500
    assert 0.0 <= payload["fraction"] <= 1.0


def test_factor_sieve_spf_array_is_uint32():
    sv = build_factor_sieve(2, 10**4)
    assert sv.spf.dtype == np.uint32


def test_console_script_entry_point():
    import shutil

    exe = shutil.which("phisigma")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    r = subprocess.run(
        [exe, "constants"], capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["rho"] == pytest.approx(0.542598586098471)


def test_memory_budget_unparseable(monkeypatch):
    from phisigma.errors import MEMORY_BUDGET_ENV, memory_budget
    from phisigma import ResourceError

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "lots")
    with pytest.raises(ResourceError):
        memory_budget()
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "-3")
    with pytest.raises(ResourceError):
        memory_budget()


def test_iterated_log_domain():
    from phisigma.constants import iterated_log

    assert iterated_log(math.e, 1) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        iterated_log(1.0, 2)
    with pytest.raises(DomainError):
        iterated_log(-5.0, 1)


NOT_IN_DOMAIN = {
    "xi-nan": lambda: SimplexSpec(L=2, xi=(math.nan,)),
    "xi-inf": lambda: SimplexSpec(L=3, xi=(1.0, math.inf)),
    "alpha-nan": lambda: omega_tail_census(10**4, math.nan),
    "alpha-inf": lambda: omega_tail_census(10**4, math.inf),
    "S-nan": lambda: is_s_normal(11, math.nan),
    "x-inf": lambda: af_params(math.inf),
    "S-override-nan": lambda: af_params(1e6, s_override=math.nan),
    "S-inf": lambda: is_s_normal(11, math.inf),
    "S-override-inf": lambda: af_params(1e6, s_override=math.inf),
    "tol-inf": lambda: eval_F(0.5, math.inf),
    "l0-inf": lambda: l0_of(math.inf),
    "l0-nan": lambda: l0_of(math.nan),
    "map-hi-0": lambda: segment_map(2, 0),
    "seed-negative": lambda: simplex_volume_mc(unit_spec(2), 1000, -1),
}


@pytest.mark.parametrize("case", sorted(NOT_IN_DOMAIN))
def test_nan_inf_and_empty_ranges_raise_domain_error(case):
    with pytest.raises(DomainError):
        NOT_IN_DOMAIN[case]()


def test_cli_normal_primes_sample_exceeding_prime_count():
    r = subprocess.run(
        CLI + ["normal-primes", "--x", "30", "--S", "16", "--sample", "100"],
        capture_output=True, text=True, timeout=120,
    )
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 1 + 10  # header plus every prime below 30


@pytest.mark.slow
def test_s_normal_density_census_1e7():
    # the clamped desk-scale S keeps normality rare; fixed-sample census
    # pinned as a regression (the asymptotic density decay needs S far
    # beyond floating-point range)
    primes = primes_up_to(10**7)
    rng = np.random.Generator(np.random.Philox(key=1))
    idx = np.sort(rng.choice(len(primes), size=2000, replace=False))
    sieve = build_factor_sieve(2, 10**7 + 2)
    fails = sum(
        0 if is_s_normal(int(p), math.exp(math.e), sieve).is_normal else 1
        for p in primes[idx]
    )
    assert fails == 1977
