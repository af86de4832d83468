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

import numpy as np
import pytest

from phisigma import (
    DomainError,
    ResourceError,
    SimplexSpec,
    sample_simplex,
    simplex_volume_mc,
    unit_spec,
)
from phisigma.errors import MEMORY_BUDGET_ENV
from phisigma.structure import (
    MC_BATCH,
    MC_CHUNK,
    _chunk_buffers,
    _mc_workers,
    _ordered_chunks,
    _sorting_network,
    simplex_mask,
)

from reference_loops import (
    accept_mask_matmul,
    ordered_batch_sort,
    sample_simplex_loop,
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


@pytest.mark.slow
@pytest.mark.parametrize("threads", (1, 2))
def test_mc_pinned_l6_1e7(threads):
    est = simplex_volume_mc(unit_spec(6), 10**7, 42, threads=threads)
    assert est.mean == PINNED_1E7[6]


def test_mc_workers_capped_by_threads_batches_and_cpus():
    cpus = os.cpu_count()
    batches = -(-10**10 // MC_BATCH)
    assert _mc_workers(100000, batches, cpus) == min(100000, batches, cpus or 1)
    assert _mc_workers(100000, batches, 2) == 2
    assert _mc_workers(100000, batches, None) == 1
    assert _mc_workers(3, 1, 64) == 1
    assert _mc_workers(1, batches, 64) == 1
    assert _mc_workers(5, 20, 64) == 5


def test_mc_rejects_thread_count_below_one():
    with pytest.raises(DomainError):
        simplex_volume_mc(unit_spec(2), 1000, 1, threads=0)


def test_mc_charges_workers_times_chunk_bytes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    L = 3
    one_worker = 8 * MC_CHUNK * (2 * L + 4)
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

