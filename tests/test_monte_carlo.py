"""The chunked Monte Carlo path against the whole-batch path it replaced.

simplex_volume_mc and sample_simplex draw each Philox batch in chunks of
MC_CHUNK rows, order the columns by a sorting network and count members
with simplex_mask.  The oracle (tests/reference_loops.py) draws whole
batches, sorts them with u.sort and accepts rows by @.  Hit counts,
estimates and sampled points must be equal, and so must the estimates
for every thread count.
"""

import itertools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from phisigma import (
    DomainError,
    ResourceError,
    SimplexSpec,
    sample_simplex,
    series_coefficient,
    simplex_volume_mc,
    unit_spec,
)
from phisigma import structure
from phisigma.errors import MEMORY_BUDGET_ENV
from phisigma.structure import (
    MC_BATCH,
    MC_CHUNK,
    _chunk_buffers,
    _ordered_chunks,
    _sorting_network,
    simplex_mask,
)

from reference_loops import (
    accept_mask_matmul,
    ordered_batch_sort,
    sample_simplex_loop,
    simplex_contains_loop,
    simplex_volume_mc_loop,
)

SEEDS = (4, 5, 7, 9, 10, 42, 123, 20260809)
SMALL_COUNTS = (1000, 10**5 + 7)
LARGE_COUNTS = (MC_BATCH + 1, 3 * MC_BATCH + 5)


def _profile(name: str, L: int) -> SimplexSpec:
    if name == "unit":
        return unit_spec(L)
    if name == "default":  # the CLI's --xi default
        return SimplexSpec(L=L, xi=tuple(1.0 + 1.0 / (10.0 * (L - i) ** 3)
                                         for i in range(L - 1)))
    return SimplexSpec(L=L, xi=(1.1,) * (L - 1))


PROFILES = ("unit", "default", "1.1")


@pytest.mark.parametrize("L", range(2, 11))
def test_sorting_network_sorts_every_01_input(L):
    # 0-1 principle: a comparator network sorting every 0/1 vector sorts
    # every vector
    network = _sorting_network(L)
    assert all(0 <= i < j < L for i, j in network)
    for bits in itertools.product((0, 1), repeat=L):
        v = list(bits)
        for i, j in network:
            v[i], v[j] = max(v[i], v[j]), min(v[i], v[j])
        assert v == sorted(bits, reverse=True)


def test_sorting_network_sizes():
    assert [len(_sorting_network(L)) for L in (2, 3, 6)] == [1, 3, 12]


@pytest.mark.parametrize("L", (2, 3, 6))
def test_chunked_draws_continue_one_stream(L):
    m = 3 * MC_CHUNK + 7
    one = np.random.Generator(np.random.Philox(key=11).jumped(2)).random((m, L))
    for sizes in ((m,), (MC_CHUNK,) * 3 + (7,), (1, MC_CHUNK - 1, 5, m - MC_CHUNK - 5)):
        rng = np.random.Generator(np.random.Philox(key=11).jumped(2))
        assert np.array_equal(np.concatenate([rng.random((c, L)) for c in sizes]), one)


@pytest.mark.parametrize("L", range(2, 9))
def test_ordered_chunks_equal_sorted_batch(L):
    [buffers] = _chunk_buffers(L, 1)
    for m in (1, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7):
        # each chunk is copied out before the next one overwrites it
        chunks = [np.column_stack(c) for c in _ordered_chunks(42, 3, m, buffers)]
        assert [len(c) for c in chunks] == [MC_CHUNK] * (m // MC_CHUNK) + [m % MC_CHUNK] * (m % MC_CHUNK > 0)
        assert np.array_equal(np.concatenate(chunks), ordered_batch_sort(42, 3, m, L))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("L", range(2, 9))
def test_simplex_mask_equals_matmul_acceptance_rowwise(L, profile):
    spec = _profile(profile, L)
    X = ordered_batch_sort(SEEDS[L % len(SEEDS)], 0, MC_BATCH, L)
    cols = [np.ascontiguousarray(X[:, j]) for j in range(L)]
    assert np.array_equal(simplex_mask(cols, spec), accept_mask_matmul(X, spec))


def _i0_lhs(X: np.ndarray) -> np.ndarray:
    """(I_0)'s left side of each row, left to right as simplex_mask builds it."""
    a = [series_coefficient(i) for i in range(1, X.shape[1] + 1)]
    lhs = a[0] * X[:, 0]
    for j in range(1, X.shape[1]):
        lhs += a[j] * X[:, j]
    return lhs


def _stage_rows(L: int, n: int, rng) -> np.ndarray:
    """n rows of which a quarter each are ordered rows in [0, 1), unsorted
    rows, ordered rows with a NaN (in every column position in turn) and
    ordered rows with one end pushed above 1 or below 0."""
    X = -np.sort(-rng.random((n, L)), axis=1)
    q = n // 4
    X[q : 2 * q] = rng.random((q, L))
    X[2 * q + np.arange(q), np.arange(q) % L] = np.nan
    above = rng.random(n - 3 * q) < 0.5
    X[3 * q :][above, 0] += 1e-9 + rng.random(above.sum())
    X[3 * q :][~above, -1] -= 1e-9 + rng.random((~above).sum())
    return X


def _assert_mask_equals_oracles(X: np.ndarray, spec: SimplexSpec) -> np.ndarray:
    got = simplex_mask([np.ascontiguousarray(c) for c in X.T], spec)
    want = [simplex_contains_loop(tuple(row.tolist()), spec) for row in X]
    assert got.dtype == bool and got.tolist() == want
    # the @ path tests (I_k) only, on ordered finite rows inside [0, 1]
    ordered = ~np.isnan(X).any(axis=1) & (X[:, 0] <= 1.0) & (X[:, -1] >= 0.0)
    ordered &= (np.diff(X, axis=1) <= 0.0).all(axis=1)
    assert np.array_equal(got[ordered], accept_mask_matmul(X[ordered], spec))
    return got


@pytest.mark.parametrize("L", (2, 3, 4, 6, 8, 12))
def test_simplex_mask_stages_equal_scalar_loop_and_matmul(L):
    # mixed rows under weights that keep few, some and every row in (I_0)
    rng = np.random.default_rng(L)
    X = _stage_rows(L, 4000, rng)
    lhs = _i0_lhs(X)
    finite = lhs[~np.isnan(lhs)]
    for xi0 in (1.0, max(1.0, float(np.quantile(finite, 0.1))),
                max(1.0, float(np.quantile(finite, 0.6))), 1e3):
        for rest in (1.0, 1.1, 100.0):
            _assert_mask_equals_oracles(X, SimplexSpec(L, (xi0,) + (rest,) * (L - 2)))


@pytest.mark.parametrize("L", (2, 12))
def test_simplex_mask_no_row_or_every_row_passes_i0(L):
    rng = np.random.default_rng(100 + L)
    X = _stage_rows(L, 2000, rng)
    # every coordinate 1 puts sum(a) > 1 on the left of (I_0): no row passes
    ones = np.ones((MC_CHUNK, L))
    assert not _assert_mask_equals_oracles(ones, unit_spec(L)).any()
    X[np.isnan(X)] = 1.0
    assert not _assert_mask_equals_oracles(np.maximum(X, 1.0), unit_spec(L)).any()
    # at xi_0 = 1e3 every row passes (I_0); the rest decide on their own
    spec = SimplexSpec(L, (1e3,) + (1.0,) * (L - 2))
    X = _stage_rows(L, 2000, rng)
    assert not (_i0_lhs(X) > 1e3).any()
    got = _assert_mask_equals_oracles(X, spec)
    assert 0 < got.sum() < len(got)


@pytest.mark.parametrize("L", (2, 3, 6, 12))
def test_simplex_mask_around_a_quarter_passing_i0(L):
    # the rows (I_0) keeps are taken out while they are fewer than a
    # quarter, else tested in place: both sides of the switch, one row apart
    rng = np.random.default_rng(200 + L)
    n = 4096
    for kept in (n // 4 - 1, n // 4, n // 4 + 1):
        K = _stage_rows(L, kept, rng)
        xi0 = max(1.0, float(np.nanmax(_i0_lhs(K))))
        # constant rows with (I_0)'s left side at 2 xi_0 fill the rest
        a_sum = sum(series_coefficient(i) for i in range(1, L + 1))
        Y = np.concatenate([K, np.full((n - kept, L), 2.0 * xi0 / a_sum)])
        Y = Y[rng.permutation(n)]
        spec = SimplexSpec(L, (xi0,) + (1.05,) * (L - 2))
        assert np.count_nonzero(~(_i0_lhs(Y) > xi0)) == kept
        assert 0 < _assert_mask_equals_oracles(Y, spec).sum() < kept


def test_simplex_mask_zero_length_columns():
    for L in (2, 6):
        got = simplex_mask([np.empty(0)] * L, unit_spec(L))
        assert got.dtype == bool and got.shape == (0,)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("L", range(2, 9))
def test_mc_hits_equal_whole_batch_path(L, profile):
    spec = _profile(profile, L)
    for seed in SEEDS:
        for samples in SMALL_COUNTS:
            assert simplex_volume_mc(spec, samples, seed) == \
                simplex_volume_mc_loop(spec, samples, seed), (seed, samples)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("L", (3, 6))
def test_mc_hits_equal_whole_batch_path_several_batches(L, profile):
    spec = _profile(profile, L)
    for samples in LARGE_COUNTS:
        assert simplex_volume_mc(spec, samples, 42, threads=2) == \
            simplex_volume_mc_loop(spec, samples, 42)


@pytest.mark.slow
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("L", range(2, 9))
def test_mc_hits_equal_whole_batch_path_all_seeds_several_batches(L, profile):
    spec = _profile(profile, L)
    for seed in SEEDS:
        for samples in LARGE_COUNTS:
            assert simplex_volume_mc(spec, samples, seed, threads=2) == \
                simplex_volume_mc_loop(spec, samples, seed), (seed, samples)


@pytest.mark.parametrize("spec,count,seed", [
    (unit_spec(2), 1, 3),
    (unit_spec(3), 200, 13),
    (unit_spec(5), 10**4, 77),
    (_profile("default", 4), 5000, 42),
    (_profile("1.1", 6), 300, 9),
])
def test_sample_simplex_equals_whole_batch_path(spec, count, seed):
    got = sample_simplex(spec, count, seed)
    assert got.shape == (count, spec.L)
    assert np.array_equal(got, sample_simplex_loop(spec, count, seed))


def test_sample_simplex_gives_up_as_the_whole_batch_path_does():
    spec = unit_spec(8)
    with pytest.raises(ResourceError):
        sample_simplex_loop(spec, 10**6, 1, max_draws=2 * MC_BATCH)
    with pytest.raises(ResourceError):
        sample_simplex(spec, 10**6, 1, max_draws=2 * MC_BATCH)


@pytest.mark.parametrize("L", (2, 3, 6))
def test_mc_same_estimate_for_every_thread_count(L):
    spec = unit_spec(L)
    samples = 3 * MC_BATCH + 5  # four batches: the workers really split
    one = simplex_volume_mc(spec, samples, 42, threads=1)
    for threads in (2, 3):
        assert simplex_volume_mc(spec, samples, 42, threads=threads) == one


def test_mc_workers_stress_more_workers_than_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = unit_spec(4)
    samples = 7 * MC_BATCH + 3
    want = simplex_volume_mc_loop(spec, samples, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simplex_volume_mc(spec, samples, 5, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_mc_worker_failure_reaches_the_caller(monkeypatch):
    from phisigma import structure

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    calls = []
    real = structure.simplex_mask

    def failing(cols, spec):
        calls.append(1)
        if len(calls) == 40:
            raise ResourceError("injected")
        return real(cols, spec)

    monkeypatch.setattr(structure, "simplex_mask", failing)
    before = threading.active_count()
    with pytest.raises(ResourceError, match="injected"):
        simplex_volume_mc(unit_spec(3), 8 * MC_BATCH, 1, threads=4)
    assert threading.active_count() == before
    assert len(calls) < 8 * MC_BATCH // MC_CHUNK  # the others stopped early


# the benchmark's two simplex-volume steps: seed 42, 1e7 samples
PINNED_1E7 = {3: 0.07892026666666666, 6: 1.957638888888889e-06}


@pytest.mark.parametrize("threads", (1, 2))
def test_mc_pinned_l3_1e7(threads):
    est = simplex_volume_mc(unit_spec(3), 10**7, 42, threads=threads)
    assert est.mean == PINNED_1E7[3]


@pytest.mark.parametrize("threads", (1, 2))
def test_mc_pinned_l6_1e7(threads):
    est = simplex_volume_mc(unit_spec(6), 10**7, 42, threads=threads)
    assert est.mean == PINNED_1E7[6]


def test_mc_rejects_thread_count_below_one():
    with pytest.raises(DomainError):
        simplex_volume_mc(unit_spec(2), 1000, 1, threads=0)


def test_mc_charges_workers_times_chunk_bytes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    L = 3
    # rows, columns, spare column, three kernel temporaries per row and a
    # quarter row of L + 1 taken words
    one_worker = MC_CHUNK * (8 * (2 * L + 4) + 2 * (L + 1))
    monkeypatch.setenv(MEMORY_BUDGET_ENV, str(one_worker))
    samples = 2 * MC_BATCH
    assert simplex_volume_mc(unit_spec(L), samples, 1, threads=1) == \
        simplex_volume_mc_loop(unit_spec(L), samples, 1)
    with pytest.raises(ResourceError):
        simplex_volume_mc(unit_spec(L), samples, 1, threads=2)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, str(one_worker - 1))
    with pytest.raises(ResourceError):
        simplex_volume_mc(unit_spec(L), samples, 1, threads=1)
    with pytest.raises(ResourceError):
        sample_simplex(unit_spec(L), 10, 1)


def test_mc_huge_request_refused_before_any_thread_starts(monkeypatch):
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1000")
    before = threading.active_count()
    with pytest.raises(ResourceError):
        simplex_volume_mc(unit_spec(3), 10**10, 1, threads=100000)
    assert threading.active_count() == before



def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quarter_spec(L: int) -> SimplexSpec:
    """Weights under which (I_0) keeps just under a quarter of a chunk
    (L >= 4): the most rows simplex_mask takes out."""
    [buffers] = _chunk_buffers(L, 1)
    X = np.column_stack(next(_ordered_chunks(1, 0, MC_CHUNK, buffers)))
    return SimplexSpec(L, (float(np.quantile(_i0_lhs(X), 0.24)),) + (100.0,) * (L - 2))


@pytest.mark.parametrize("L", (2, 3, 6, 12))
def test_mc_peak_within_charge(monkeypatch, L):
    # the charge, made first, covers every worker's chunk working set and
    # for sample_simplex the points; unit weights, xi = 100 (every row
    # passes (I_0), so the kernel tests whole columns) and, from L = 4,
    # weights that leave it the most rows to take
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    charges = []
    real = structure.check_allocation
    monkeypatch.setattr(structure, "check_allocation",
                        lambda nbytes, what: (charges.append(nbytes), real(nbytes, what)))
    simplex_volume_mc(unit_spec(3), 2 * MC_BATCH, 1, threads=2)  # warm-up
    specs = [unit_spec(L), SimplexSpec(L, (100.0,) * (L - 1))]
    if L >= 4:
        specs.append(_quarter_spec(L))
    for spec in specs:
        for threads in (1, 2):
            charges.clear()
            peak = _traced_peak(lambda: simplex_volume_mc(spec, 2 * MC_BATCH, 1, threads=threads))
            assert peak <= charges[0], (spec, threads)

        def sample():
            try:
                sample_simplex(spec, 3000, 1, max_draws=MC_BATCH)
            except ResourceError:  # unit L = 12: no point in one batch
                pass

        charges.clear()
        peak = _traced_peak(sample)
        assert len(charges) == 1 and peak <= charges[0], spec


def test_sample_simplex_stops_at_the_chunk_that_completes_it(monkeypatch):
    # 100 points of the L = 6 simplex at xi = 100 are in the first chunk
    calls = []
    real = structure.simplex_mask
    monkeypatch.setattr(structure, "simplex_mask",
                        lambda cols, spec: (calls.append(len(cols[0])), real(cols, spec))[1])
    spec = SimplexSpec(6, (100.0,) * 5)
    got = sample_simplex(spec, 100, 1)
    assert calls == [MC_CHUNK]
    assert np.array_equal(got, sample_simplex_loop(spec, 100, 1))
