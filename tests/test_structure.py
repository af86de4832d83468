import math

import numpy as np
import pytest

from phisigma import (
    DomainError,
    SimplexSpec,
    check_comparison_lemma,
    default_xi,
    r_l_sum,
    renormalize,
    sample_simplex,
    series_coefficient,
    simplex_contains,
    simplex_volume_exact,
    simplex_volume_mc,
    structure_constants,
    unit_spec,
)

from phisigma.structure import simplex_mask, xi_weights

from conftest import factor_pairs_naive, phi_trial, sigma_trial
from reference_loops import r_l_sum_loop, simplex_contains_loop

A = [series_coefficient(i) for i in range(1, 9)]


def test_renormalize_trivial_cases():
    x = math.exp(math.exp(2.0))
    assert renormalize(1, x, 3).entries == (0.0, 0.0, 0.0)
    assert renormalize(2**10, x, 3).entries == (0.0, 0.0, 0.0)


def test_renormalize_15_by_hand():
    x = math.exp(math.exp(2.0))  # loglog x = 2
    v = renormalize(15, x, 2, "from_p0")
    assert v.entries[0] == pytest.approx(math.log(math.log(5)) / 2)
    assert v.entries[1] == pytest.approx(math.log(math.log(3)) / 2)
    shifted = renormalize(15, x, 2, "from_p1")
    assert shifted.entries[0] == v.entries[1]
    assert shifted.entries[1] == 0.0


def test_renormalize_entries_ordered_in_unit_interval():
    x = 10**6
    for n in range(2, 3000, 17):
        e = renormalize(n, float(x), 5, "from_p0").entries
        assert all(0.0 <= t <= 1.0 for t in e)
        assert all(a >= b for a, b in zip(e, e[1:]))


def test_renormalize_domain():
    with pytest.raises(DomainError):
        renormalize(10, 2.0, 3)
    with pytest.raises(DomainError):
        renormalize(10, 10**6, 3, "sideways")


def test_spec_validation():
    with pytest.raises(DomainError):
        SimplexSpec(L=1, xi=())
    with pytest.raises(DomainError):
        SimplexSpec(L=3, xi=(1.0,))
    with pytest.raises(DomainError):
        SimplexSpec(L=2, xi=(0.9,))


def test_default_xi_weights_in_range():
    spec = default_xi(1e9)
    assert spec.L >= 2
    assert all(1.0 < w <= 1.1 for w in spec.xi)
    # the weight at index L0-1 would be exactly 1.1
    assert 1.0 + 1.0 / (10.0 * 1**3) == 1.1


def test_default_xi_formula_is_negative_at_any_double_scale():
    # the unclamped level is below 2 for every representable x; the
    # artifact clamps and keeps the formula value for inspection
    for e in (7, 100, 300):
        spec = default_xi(float(10**e))
        assert spec.l_formula < 2
        assert spec.L == 2
        assert spec.l0 >= 1


def test_default_xi_level_uses_l0(monkeypatch):
    spec = default_xi(1e12)
    want = tuple(1.0 + 1.0 / (10.0 * (spec.l0 - i) ** 3) for i in range(spec.L - 1))
    assert spec.xi == want


def test_xi_weights_shared_by_default_xi_and_cli():
    spec = default_xi(1e9)
    assert spec.xi == xi_weights(spec.L, spec.l0)
    for L in range(2, 9):  # the CLI's --xi default takes L_0 := L
        assert xi_weights(L, L) == tuple(1.0 + 1.0 / (10.0 * (L - i) ** 3)
                                         for i in range(L - 1))


def test_default_xi_levels_stay_below_l0():
    spec = default_xi(1e6)
    assert spec.l0 == 1 and spec.L == 2
    l0 = default_xi(1e300).l0
    edge = xi_weights(l0 + 1, l0)  # i runs to L - 2 = l0 - 1
    assert len(edge) == l0 and all(1.0 < w <= 1.1 for w in edge)


def test_contains_zero_vector():
    for L in (2, 3, 5):
        assert simplex_contains((0.0,) * L, unit_spec(L))


def test_contains_rejects_ones():
    for L in (2, 3, 5):
        assert not simplex_contains((1.0,) * L, unit_spec(L))
    assert A[0] + A[1] > 1.1  # the first two weights already overshoot


def test_contains_requires_ordering():
    assert not simplex_contains((0.2, 0.3), unit_spec(2))
    assert simplex_contains((0.3, 0.2), unit_spec(2))


def test_contains_geometric_profile_point():
    rho = structure_constants().rho
    for L in (3, 5):
        point = tuple(2 * rho**j for j in range(1, L + 1))
        got = simplex_contains(point, unit_spec(L))
        # verify against a direct inequality evaluation
        want = all(
            sum(A[j - 1] * point[k + j - 1] for j in range(1, L - k + 1))
            <= (1.0 if k == 0 else point[k - 1])
            for k in range(L - 1)
        )
        assert got == want


def test_contains_length_mismatch():
    with pytest.raises(DomainError):
        simplex_contains((0.1, 0.1, 0.1), unit_spec(2))


def _kernel_rows(L: int) -> np.ndarray:
    """Random ordered and unordered rows, edge rows, and the renormalized
    vectors of n < 5000, for dimension L."""
    rng = np.random.default_rng(20 + L)
    ordered = np.sort(rng.random((400, L)), axis=1)[:, ::-1]
    scaled = ordered * rng.choice([0.5, 1.0, 1.5], size=(400, 1))
    loose = rng.random((200, L)) * 1.2 - 0.1
    edge = [
        [0.0] * L,
        [-0.0] * L,
        [1.0] * L,
        [1.0] + [0.0] * (L - 1),
        [1.0 + 2**-52] + [0.0] * (L - 1),
        [0.5] * L,
        [0.3] * (L - 1) + [-1e-300],
        [math.nan] * L,
        [0.4, math.nan] + [0.0] * (L - 2),
        [math.inf] + [0.0] * (L - 1),
        [0.2] + [-math.inf] * (L - 1),
    ]
    x = 1e6
    vecs = [renormalize(n, x, L, offset).entries
            for n in range(1, 5000) for offset in ("from_p0", "from_p1")]
    return np.vstack([ordered, scaled, loose, np.array(edge), np.array(vecs),
                      _boundary_rows(L, rng)])


def _boundary_rows(L: int, rng) -> np.ndarray:
    """Ordered rows within a few ulps of equality in (I_0) or (I_1) of the
    unit simplex, where the order of summation decides membership."""
    rows = []
    while len(rows) < 600:
        v = sorted(rng.random(L) * 0.8, reverse=True)
        k = len(rows) % min(2, L - 1)
        rhs = 1.0 if k == 0 else v[k - 1]
        head = sum(A[j] * v[k + j] for j in range(L - k - 1))
        last = (rhs - head) / A[L - k - 1]
        if not 0.0 <= last <= v[-2]:
            continue
        for step in range(-3, 4):
            rows.append(v[:-1] + [last + step * math.ulp(last)])
    return np.array(rows)


@pytest.mark.parametrize("L", [2, 3, 4, 6])
def test_simplex_kernel_equals_scalar_loop(L):
    profile = tuple(1.0 + 1.0 / (10.0 * (L - i) ** 3) for i in range(L - 1))
    for spec in (unit_spec(L), SimplexSpec(L=L, xi=profile),
                 SimplexSpec(L=L, xi=tuple(1.0 + 0.05 * i for i in range(L - 1)))):
        rows = _kernel_rows(L)
        got = simplex_mask(list(rows.T), spec)
        want = [simplex_contains_loop(tuple(row.tolist()), spec) for row in rows]
        assert got.tolist() == want
        assert [simplex_contains(row, spec) for row in rows[::7]] == want[::7]
        assert 0 < sum(want) < len(want)


def test_simplex_kernel_column_count_checked():
    with pytest.raises(DomainError):
        simplex_mask([np.zeros(3)] * 3, unit_spec(2))


def test_contains_monotone_in_xi():
    rng = np.random.default_rng(3)
    loose = SimplexSpec(L=3, xi=(1.05, 1.1))
    tight = unit_spec(3)
    for _ in range(500):
        v = np.sort(rng.random(3))[::-1]
        if simplex_contains(v, tight):
            assert simplex_contains(v, loose)


# pinned after first computation; quad and grid count agree to 1e-9
V2_EXACT = 0.46287202527121724
V3_EXACT = 0.07892087143938899


def test_exact_volume_l2_pinned_and_cross_checked():
    got = simplex_volume_exact(unit_spec(2))
    assert got == pytest.approx(V2_EXACT, abs=1e-9)
    # closed form: below the crossover x1 the inner length is x1 itself
    a1, a2 = A[0], A[1]
    b = 1.0 / (a1 + a2)
    closed = b * b / 2 + ((1 - a1 / 2) - (b - a1 * b * b / 2)) / a2
    assert got == pytest.approx(closed, abs=1e-12)
    # grid count oracle
    N = 10**4
    x1 = (np.arange(N) + 0.5) / N
    inner = np.minimum(x1, np.maximum(0.0, (1.0 - a1 * x1) / a2))
    assert got == pytest.approx(float(inner.sum() / N), abs=1e-7)


def test_exact_volume_l2_large_xi_tends_to_half():
    spec = SimplexSpec(L=2, xi=(10.0,))
    assert simplex_volume_exact(spec) == pytest.approx(0.5, abs=1e-9)


def test_exact_volume_l3_pinned():
    assert simplex_volume_exact(unit_spec(3)) == pytest.approx(V3_EXACT, abs=1e-8)


def test_exact_volume_l3_grid_richardson():
    # midpoint grid counts converge first order; the Richardson
    # extrapolant must land on the pinned quadrature value
    a1, a2, a3 = A[0], A[1], A[2]

    def grid(N):
        g = (np.arange(N) + 0.5) / N
        total = 0.0
        for x1 in g:
            x2 = g[g <= x1]
            ub = np.minimum(
                np.minimum(x2, (1.0 - a1 * x1 - a2 * x2) / a3),
                (x1 - a1 * x2) / a2,
            )
            total += float(np.clip(ub, 0.0, None).sum()) / N**2
        return total

    coarse, fine = grid(400), grid(800)
    extrapolated = 2 * fine - coarse
    assert extrapolated == pytest.approx(V3_EXACT, abs=5e-6)


def test_exact_volume_unsupported_L():
    with pytest.raises(DomainError):
        simplex_volume_exact(unit_spec(4))


def test_mc_within_ci_of_exact():
    for L, exact in ((2, V2_EXACT), (3, V3_EXACT)):
        est = simplex_volume_mc(unit_spec(L), 10**6, seed=123)
        assert abs(est.mean - exact) <= 3 * est.std_error
        assert est.mean <= 1 / math.factorial(L) + 6 * est.std_error


def test_mc_reproducible_and_seed_sensitive():
    a = simplex_volume_mc(unit_spec(2), 10**5, seed=9)
    b = simplex_volume_mc(unit_spec(2), 10**5, seed=9)
    c = simplex_volume_mc(unit_spec(2), 10**5, seed=10)
    assert a == b
    assert a.mean != c.mean
    assert abs(a.mean - c.mean) <= 6 * (a.std_error + c.std_error)


def test_mc_monotone_under_xi_growth_same_seed():
    tight = simplex_volume_mc(unit_spec(3), 10**5, seed=4)
    loose = simplex_volume_mc(SimplexSpec(L=3, xi=(1.1, 1.1)), 10**5, seed=4)
    assert tight.mean <= loose.mean + 1e-12  # same stream: set inclusion


def test_mc_huge_xi_recovers_ordered_cell_volume():
    spec = SimplexSpec(L=3, xi=(100.0, 100.0))
    est = simplex_volume_mc(spec, 10**5, seed=5)
    assert est.mean == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert est.std_error == 0.0


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(DomainError):
        simplex_volume_mc(unit_spec(2), 10, seed=1)


def test_comparison_lemma_census_zero_violations():
    assert check_comparison_lemma(unit_spec(5), 10**4, seed=77)


def test_comparison_lemma_trivial_first_coordinate():
    rho = structure_constants().rho
    assert 3 * rho > 1.0  # x_1 <= 1 < 3 rho makes j=1 automatic


def test_comparison_lemma_hypothesis_guard():
    spec = SimplexSpec(L=5, xi=(1.1,) * 4)
    assert spec.xi_product() > 1.1
    with pytest.raises(DomainError):
        check_comparison_lemma(spec, 100, seed=1)


def test_sampled_points_are_members():
    spec = unit_spec(3)
    pts = sample_simplex(spec, 200, seed=13)
    assert len(pts) == 200
    for row in pts:
        assert simplex_contains(tuple(row), spec)


def test_r_l_sum_includes_one():
    assert r_l_sum("phi", unit_spec(3), 16) >= 1.0


def test_r_l_sum_sigma_below_phi():
    spec = unit_spec(3)
    assert r_l_sum("sigma", spec, 10**4) <= r_l_sum("phi", spec, 10**4)


def _r_l_sum_oracle(f: str, L: int, xi, x: int, offset: str) -> float:
    # independent reimplementation: trial division + direct inequalities
    llx = math.log(math.log(x))
    total = 0.0
    for n in range(1, x + 1):
        pairs = factor_pairs_naive(n)
        if sum(e for _, e in pairs) > L:
            continue
        desc = []
        for p, e in reversed(pairs):
            desc.extend([p] * e)
        start = 0 if offset == "from_p0" else 1
        vec = []
        for i in range(start, start + L):
            if i >= len(desc) or desc[i] == 2:
                vec.append(0.0)
            else:
                vec.append(math.log(math.log(desc[i])) / llx)
        if vec[0] > 1.0 or any(b > a for a, b in zip(vec, vec[1:])):
            continue
        ok = True
        for k in range(L - 1):
            lhs = sum(A[j - 1] * vec[k + j - 1] for j in range(1, L - k + 1))
            rhs = xi[k] * (vec[k - 1] if k >= 1 else 1.0)
            if lhs > rhs:
                ok = False
                break
        if not ok:
            continue
        total += 1.0 / (phi_trial(n) if f == "phi" else sigma_trial(n))
    return total


@pytest.mark.parametrize("f,offset", [("phi", "from_p0"), ("sigma", "from_p0"),
                                      ("phi", "from_p1")])
def test_r_l_sum_matches_independent_oracle(f, offset):
    spec = unit_spec(3)
    got = r_l_sum(f, spec, 10**4, offset)
    want = _r_l_sum_oracle(f, 3, spec.xi, 10**4, offset)
    assert got == pytest.approx(want, rel=1e-10)


_RL_GRID = [(f, L, offset) for f in ("phi", "sigma") for L in (2, 3, 4)
            for offset in ("from_p0", "from_p1")]


@pytest.mark.parametrize("f,L,offset", _RL_GRID)
def test_r_l_sum_equals_reference_loop(f, L, offset):
    spec = unit_spec(L)
    assert r_l_sum(f, spec, 10**5, offset) == r_l_sum_loop(f, spec, 10**5, offset)


@pytest.mark.slow
@pytest.mark.parametrize("f,L,offset", _RL_GRID)
def test_r_l_sum_equals_reference_loop_1e6(f, L, offset):
    spec = unit_spec(L)
    assert r_l_sum(f, spec, 10**6, offset) == r_l_sum_loop(f, spec, 10**6, offset)


# r_l_sum at L=3, xi=(1.05, 1.1), pinned from the one-window, unsliced scan
_RL_PINNED = {
    (3000, "phi", "from_p0"): 11.693933511905367,
    (3000, "sigma", "from_p1"): 5.4896127595467625,
    (30000, "phi", "from_p0"): 13.808792225107753,
    (30000, "sigma", "from_p1"): 6.613199902325126,
}


def test_r_l_sum_bits_independent_of_window(monkeypatch):
    from phisigma import sieve, structure

    spec = SimplexSpec(L=3, xi=(1.05, 1.1))
    for f, offset in (("phi", "from_p0"), ("sigma", "from_p1")):
        want = r_l_sum_loop(f, spec, 30000, offset)
        assert want == _RL_PINNED[30000, f, offset]
        for size in (97, 4096, 30000, 1 << 22):
            monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
            assert r_l_sum(f, spec, 30000, offset) == want
        # member slices that end anywhere in a window, down to one integer
        # (at a smaller x: a slice costs the same numpy calls at any size)
        for slice_size, x in ((1, 3000), (7, 3000), (97, 30000)):
            want = r_l_sum_loop(f, spec, x, offset)
            assert want == _RL_PINNED[x, f, offset]
            monkeypatch.setattr(structure, "RL_SLICE", slice_size)
            for size in (97, 1 << 14):
                monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
                assert r_l_sum(f, spec, x, offset) == want, (slice_size, size)
            monkeypatch.undo()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_r_l_sum_bits_independent_of_thread_count(monkeypatch, threads):
    # 2^10-integer windows make 49 of the odd n to 1e5, so every thread is a worker
    import os

    from phisigma import sieve, workers

    spec = SimplexSpec(L=3, xi=(1.05, 1.1))
    cases = [(f, offset) for f in ("phi", "sigma") for offset in ("from_p0", "from_p1")]
    want = [r_l_sum(f, spec, 10**5, offset) for f, offset in cases]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 10)
    ran = []
    real = workers.run_workers
    monkeypatch.setattr(workers, "run_workers", lambda n, task: (ran.append(n), real(n, task)))
    assert [r_l_sum(f, spec, 10**5, offset, threads=threads) for f, offset in cases] == want
    assert ran == [threads] * len(cases)


def test_r_l_sum_pinned_1e6():
    assert r_l_sum("phi", unit_spec(3), 10**6) == 16.489674913713863


# pinned from a scan of every n of [2, x], before the lift by powers of 2
_RL_PINS_1E7 = {
    "phi": (("phi", unit_spec(3), 10**7), 18.039930778547273),
    "sigma": (("sigma", unit_spec(6), 10**7, "from_p1"), 11.052602739273558),
}


@pytest.mark.parametrize("pin, threads", [
    ("phi", 1), ("phi", 2), ("sigma", 2), pytest.param("sigma", 1, marks=pytest.mark.slow)])
def test_r_l_sum_pinned_1e7(pin, threads):
    args, want = _RL_PINS_1E7[pin]
    assert r_l_sum(*args, threads=threads) == want


@pytest.mark.parametrize("f", ["phi", "sigma"])
@pytest.mark.parametrize("offset", ["from_p0", "from_p1"])
def test_r_l_sum_lift_cut_by_omega(monkeypatch, f, offset):
    # at L = 2 and weight 100 every n with Omega(n) <= 2 is a member: an odd
    # prime p lifts to 2p only, 4p, 8p, ... and every 2^a m with Omega(m) = 2
    # and a >= 1 are cut, and 1, 2, 4 are the powers of 2 that count; at
    # x = 2^14 - 1, 2^14 and 2^14 + 1, 97-integer windows put x >> a inside
    # windows and on their edges, and at x = 2 * 8209 - 1 the first odd m
    # past x >> 1 is the prime 8209, whose 2m is one past x
    from phisigma import sieve

    spec = SimplexSpec(L=2, xi=(100.0,))
    for x in (2**14 - 1, 2**14, 2**14 + 1, 2 * 8209 - 1):
        want = r_l_sum_loop(f, spec, x, offset)
        for size in (97, 1 << 18):
            monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)
            assert r_l_sum(f, spec, x, offset) == want, (x, size)


def test_r_l_bound_shape_census():
    # R_L / ((loglog x)^L T_L) stays bounded on the desk grid
    for L in (2, 3):
        tl = simplex_volume_exact(unit_spec(L))
        for x in (10**4, 10**5):
            val = r_l_sum("phi", unit_spec(L), x)
            ratio = val / (math.log(math.log(x)) ** L * tl)
            assert ratio < 60.0, (L, x, ratio)


@pytest.mark.slow
def test_r_l_bound_shape_census_1e6():
    for L in (2, 3):
        tl = simplex_volume_exact(unit_spec(L))
        val = r_l_sum("phi", unit_spec(L), 10**6)
        ratio = val / (math.log(math.log(10**6)) ** L * tl)
        assert ratio < 60.0


@pytest.mark.slow
def test_comparison_lemma_holds_on_sieved_integers_1e6():
    # every n <= 1e6 whose renormalized vector lands in the default
    # simplex satisfies the comparison inequalities
    from phisigma import build_factor_sieve

    x = 10**6
    spec = default_xi(float(x))
    rho = structure_constants().rho
    sieve = build_factor_sieve(2, x + 1)
    L = spec.L
    for n in range(2, x + 1):
        v = renormalize(n, float(x), L, "from_p1", sieve)
        if not simplex_contains(v, spec):
            continue
        e = v.entries
        for j in range(1, L + 1):
            assert e[j - 1] < 3 * rho**j
            for i in range(1, j):
                assert e[j - 1] <= 3 * rho ** (j - i) * e[i - 1] + 1e-12
