"""The fundamental simplex and its surroundings.

Renormalized prime-factor vectors on the doubly-logarithmic scale,
membership in the weighted simplex S_L(xi), Monte Carlo volumes and
exact ones as a convex polytope (L <= 9), the geometric comparison
inequalities, and the reciprocal sums R_L over integers whose
renormalized vector lands in the simplex.

Conventions: x_i = loglog(p_i)/loglog(x) where p_0 >= p_1 >= ... are
the prime factors with multiplicity, and x_i = 0 once i >= Omega(n) or
p_i = 2 (loglog 2 < 0 would break monotonicity).  S_L(xi) lives inside
the ordered cell 0 <= x_L <= ... <= x_1 <= 1 and is cut out by

    (I_0)    a_1 x_1 + a_2 x_2 + ... + a_L x_L <= xi_0
    (I_k)    a_1 x_{k+1} + ... + a_{L-k} x_L  <= xi_k x_k   (1 <= k <= L-2)

with the a_i from constants.series_coefficient.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constants import E_TO_E, iterated_log, l0_of, series_coefficient, structure_constants
from .errors import DomainError, ResourceError, check_allocation
from . import sieve, workers
from .sieve import (
    FactorSieve,
    Factorization,
    deal_windows,
    factorize,
    fixed_sum,
    fixed_to_float,
    power_of_2_prefixes,
    primes_up_to,
)

MC_BATCH = 1 << 19  # fixed batch size keeps the Philox stream worker-independent

MC_CHUNK = 1 << 14  # rows drawn at once: a chunk's L columns stay in cache

MIN_MC_SAMPLES = 1000

MC_SAMPLE_CAP = 10**9  # under a minute of draws at L <= 6 on one thread

# the estimate divides by L!, and 171! exceeds the largest double
MAX_L = 170

RL_SCAN_CAP = 10**8

RL_SLICE = 1 << 14  # integers of a window whose members r_l_sum finds at once

# per integer of a slice beside the rows of X and the 2L bytes of the columns
# simplex_mask may take: the survivors' indices, Omega, cofactors and primes,
# the other simplex_mask temporaries and, in X's place, the terms of one lift
# and their fixed_sum (traced at most 66 for L = 2..40 at x = 10^6)
RL_SLICE_BYTES = 80

XI_PRODUCT_CAP = 1.1

OFFSETS = ("from_p0", "from_p1")


@dataclass(frozen=True)
class RenormalizedVector:
    """Doubly-logarithmic prime exponents of source_n at level level_x."""

    entries: tuple[float, ...]
    source_n: int
    level_x: float


@dataclass(frozen=True)
class SimplexSpec:
    """Dimension L >= 2 plus the weights xi_0..xi_{L-2}, all >= 1.

    l0 and l_formula carry provenance when built by default_xi: the
    level L_0(x) and the unclamped floor(L_0 - 2 sqrt(log3 x)).
    """

    L: int
    xi: tuple[float, ...]
    l0: int | None = field(default=None, compare=False)
    l_formula: int | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_dimension(self.L)
        if len(self.xi) != self.L - 1:
            raise DomainError(
                f"need {self.L - 1} weights for L={self.L}, got {len(self.xi)}"
            )
        if not all(1.0 <= w < math.inf for w in self.xi):
            raise DomainError(f"weights must be finite and >= 1, got {self.xi}")

    def xi_product(self) -> float:
        """xi_0^L * xi_1^(L-1) * ... * xi_{L-2}^2."""
        return math.prod(w ** (self.L - i) for i, w in enumerate(self.xi))


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume with its binomial standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _check_seed(seed: int) -> None:
    """A Monte Carlo seed is a Philox key: 0 <= seed < 2^128."""
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"need 0 <= seed < 2^128 (a Philox key), got {seed}")


def _check_dimension(L: int) -> None:
    """2 <= L <= MAX_L, checked before L - 1 weights are built."""
    if not 2 <= L <= MAX_L:
        raise DomainError(f"need 2 <= L <= {MAX_L}, got {L}")


def unit_spec(L: int) -> SimplexSpec:
    """The fundamental simplex: every weight equal to 1."""
    _check_dimension(L)
    return SimplexSpec(L=L, xi=(1.0,) * (L - 1))


def renormalize(
    n: int,
    x: float,
    L: int,
    offset: str = "from_p1",
    sieve: FactorSieve | None = None,
) -> RenormalizedVector:
    """The L renormalized exponents of n starting at p_0 or p_1.

    offset 'from_p0' yields (x_0, ..., x_{L-1}); 'from_p1' yields
    (x_1, ..., x_L).  Requires finite x >= e^e so loglog x >= 1.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not E_TO_E <= x < math.inf:
        raise DomainError(f"need finite x >= e^e, got {x}")
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    if offset not in OFFSETS:
        raise DomainError(f"offset must be one of {OFFSETS}, got {offset!r}")
    return _renormalize_fact(factorize(n, sieve), n, x, L, offset)


def _renormalize_fact(
    fact: Factorization, n: int, x: float, L: int, offset: str
) -> RenormalizedVector:
    primes = fact.primes_descending()
    llx = math.log(math.log(x))
    start = 0 if offset == "from_p0" else 1
    entries = tuple(0.0 if i >= len(primes) or primes[i] == 2 else
                    math.log(math.log(primes[i])) / llx for i in range(start, start + L))
    return RenormalizedVector(entries=entries, source_n=n, level_x=float(x))


def default_xi(x: float) -> SimplexSpec:
    """Level and weights at x: L = floor(L_0 - 2 sqrt(log3 x)) and
    xi_i = 1 + 1/(10 (L_0 - i)^3).

    The formula value of L is negative for every x representable in
    double precision (the asymptotic regime starts far beyond), so the
    returned dimension is clamped below at 2; the unclamped value is
    kept on the spec as l_formula.
    """
    consts = structure_constants()
    l3 = iterated_log(x, 3)
    if l3 <= 0.0:
        raise DomainError(f"need log3 x > 0 (x > e^e), got x={x}")
    l0 = l0_of(x, consts)
    l_formula = math.floor(l0 - 2.0 * math.sqrt(l3))
    L = max(l_formula, 2)
    # l0 >= 1 (l0_of) and l_formula <= l0 - 1, so i <= L - 2 < l0 and
    # every l0 - i >= 1
    return SimplexSpec(L=L, xi=xi_weights(L, l0), l0=l0, l_formula=l_formula)


def xi_weights(L: int, l0: int) -> tuple[float, ...]:
    """The L - 1 weights xi_i = 1 + 1/(10 (l0 - i)^3), i = 0..L-2."""
    _check_dimension(L)
    return tuple(1.0 + 1.0 / (10.0 * (l0 - i) ** 3) for i in range(L - 1))


def simplex_mask(cols, spec: SimplexSpec) -> np.ndarray:
    """Row-wise membership in S_L(xi) of the points with coordinates
    x_1, ..., x_L given as L equal-length float64 columns.

    Two stages.  (I_0) is tested on every row.  Where it keeps fewer
    than a quarter of them (0.39% of the ordered cell at L = 6, 14% at
    L = 4), those rows are taken out of each column, and x_1 <= 1, the
    ordering x_1 >= ... >= x_L, x_L >= 0 and (I_1)..(I_{L-2}) are
    tested on them only; otherwise (48% at L = 3) on whole columns,
    where taking would cost more than it saves.  Each condition is a
    per-row predicate and the mask is their AND, which no order or
    subset of rows changes.  Each (I_k) left side is built left to
    right by separate elementwise * and +, the order of a scalar loop,
    on the same values for a taken row as in its column, so every row
    gets the bits a scalar evaluation gives (no @ or dot: BLAS reorders
    and fuses).  A row is rejected only by a comparison that holds, so
    a NaN coordinate rejects nothing.
    """
    L = spec.L
    if len(cols) != L:
        raise DomainError(f"{len(cols)} columns != L = {L}")
    a = [series_coefficient(i) for i in range(1, L + 1)]

    def lhs(x, k):
        # (I_k) sums a_1..a_{L-k} against x_{k+1}..x_L
        total = a[0] * x[k]
        for j in range(1, L - k):
            total += a[j] * x[k + j]
        return total

    ok = ~(lhs(cols, 0) > spec.xi[0])
    rows = np.flatnonzero(ok) if 4 * np.count_nonzero(ok) < len(ok) else slice(None)
    x = [c[rows] for c in cols]
    bad = x[0] > 1.0
    for upper, lower in zip(x, x[1:]):
        bad |= lower > upper
    bad |= x[-1] < 0.0
    for k in range(1, L - 1):
        bad |= lhs(x, k) > spec.xi[k] * x[k - 1]
    ok[rows] &= ~bad
    return ok


def simplex_contains(v, spec: SimplexSpec) -> bool:
    """Membership of a vector in S_L(xi): simplex_mask on one row."""
    vec = v.entries if isinstance(v, RenormalizedVector) else tuple(v)
    if len(vec) != spec.L:
        raise DomainError(f"vector length {len(vec)} != L = {spec.L}")
    cols = np.array(vec, dtype=np.float64).reshape(spec.L, 1)
    return bool(simplex_mask(cols, spec)[0])


def _sorting_network(L: int) -> list[tuple[int, int]]:
    """Compare-exchange pairs (i, j), i < j, that sort any L values.

    Batcher's merge exchange (Knuth, TAOCP 3, 5.2.2, Algorithm M): 3
    pairs at L=3 and 12 at L=6, the fewest possible at both.
    """
    pairs = []
    t = (L - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(L - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


MC_POOL = MC_CHUNK // 4  # rows of prefilter survivors sorted and masked at once


def _sum_cut(spec: SimplexSpec) -> float | None:
    """The cut on a drawn row's float sum above which the row fails (I_0),
    or None where the prefilter would keep a quarter of the rows or more.

    The bound.  For the row's values sorted descending, x_(1) >= ... >=
    x_(L) >= 0 with x_(1) < 1 (Philox doubles lie in [0, 1)), and the
    float coefficients a_1 <= a_2 <= ... <= a_MAX_L (tested), (I_0)'s
    left side is sum a_i x_(i) >= a_1 x_(1) + a_2 (S - x_(1)) >= a_2 S -
    (a_2 - a_1), S the row sum.  So a row with S > (xi_0 + a_2 - a_1)/a_2
    fails (I_0), and the test needs no sort.

    The rounding.  simplex_mask rejects a row iff fl(lhs) > xi_0, where
    fl(lhs), L products and L - 1 additions of nonnegative terms, is at
    least lhs (1 - gamma_2L), gamma_n = n u / (1 - n u), u = 2^-53.  The
    float sum of _sum_survivors, L - 1 additions, is fl(S) <= S (1 +
    gamma_(L-1)).  So fl(lhs) > xi_0 once fl(S) > (1 + gamma_(L-1))
    (xi_0 / (1 - gamma_2L) + a_2 - a_1) / a_2, and the cut is above that:
    it is (xi_0 + (a_2 - a_1)) / a_2 in three roundings, times 1 + 4L
    2^-52 twice in two more, and (1 + 8Lu)^2 (1 - u)^5 >= 1 + (16L - 5)u
    - 80L u^2 exceeds (1 + gamma_(L-1)) / (1 - gamma_2L) < 1 + (3L + 1)u
    for every L <= MAX_L.

    The rule.  The prefilter pays where it drops most rows: it engages
    when the exact Irwin-Hall share P(U_1 + ... + U_L <= cut) is below a
    quarter, simplex_mask's own rule for taking rows.  For unit weights
    that is L >= 5 (63% of the rows are kept at L = 3, 29% at L = 4, 10%
    at L = 5 and 3% at L = 6); at xi = 100 it never engages, nor, by the
    symmetry of the share about L/2, wherever cut >= L/2 (an infinite
    cut included).
    """
    L = spec.L
    a1, a2 = series_coefficient(1), series_coefficient(2)
    margin = 1.0 + 4 * L * 2.0**-52
    cut = (spec.xi[0] + (a2 - a1)) / a2 * margin * margin
    if cut >= L / 2:
        return None
    # the share is sum_k (-1)^k C(L, k) (cut - k)^L / L! over k <= cut, in
    # integers over cut = p / q
    p, q = cut.as_integer_ratio()
    below = sum((-1) ** k * math.comb(L, k) * (p - k * q) ** L for k in range(p // q + 1))
    return cut if 4 * below < math.factorial(L) * q**L else None


def _sum_survivors(rows, cut, sums):
    """Indices of the rows whose float sum, built left to right into
    `sums` by L - 1 np.add on the strided columns, is at most cut."""
    x = rows.T
    np.add(x[0], x[1], out=sums)
    for column in x[2:]:
        np.add(sums, column, out=sums)
    return np.flatnonzero(sums <= cut)


def _chunk_buffers(L: int, workers: int, held: int = 0) -> list[tuple[np.ndarray, ...]]:
    """Per worker: the drawn rows, a buffer for their L columns and the
    sorting network's spare column.

    Charges, in one request, the whole in-flight working set: these
    buffers, three simplex_mask temporaries per row and, for the rows it
    takes, at most a quarter row of L + 1 words (their columns and
    indices), per worker, and the `held` bytes the caller keeps beside.
    Under the sum prefilter, the pool of survivors is the column
    buffer's last quarter, and the prefilter's own temporaries, a bool
    and an index per row at most, live between the draw and the yield,
    while simplex_mask's do not; a chunk whose survivors span a flush
    keeps its indices through that yield, but simplex_mask then sees
    only MC_POOL rows.
    """
    check_allocation(workers * MC_CHUNK * (8 * (2 * L + 4) + 2 * (L + 1)) + held,
                     f"{workers} Monte Carlo chunk working sets")
    return [(np.empty((MC_CHUNK, L)), np.empty(L * MC_CHUNK), np.empty(MC_CHUNK))
            for _ in range(workers)]


def _ordered_chunks(seed: int, index: int, m: int, buffers, cut=None):
    """The m rows of Philox batch `index`, MC_CHUNK rows drawn at a time,
    yielded as L columns x_1 >= ... >= x_L held in `buffers` (from
    _chunk_buffers), which the next yield overwrites.

    Without a cut, each chunk is yielded whole.  With one (_sum_cut), the
    rows whose sum exceeds it, which fail (I_0), are dropped before any
    transpose: the survivors of each chunk are gathered by one np.take
    into the pool of MC_POOL rows, and the pool is sorted and yielded
    when it is full and at the end of the batch; survivors that
    outnumber the room left are split across flushes.  A flush fills
    the column buffer's first quarter at most, so the pool, its last
    quarter, is free from the moment it is copied out.

    Consecutive rng.random calls continue the stream, so the chunks hold
    the rows of one rng.random((m, L)) call, and the pool keeps them in
    that order; the network's np.minimum and np.maximum are exact, so
    the columns are that call's rows (less the dropped ones) sorted in
    descending order, bit for bit.
    """
    rows, by_column, spare_column = buffers
    L = rows.shape[1]
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    network = _sorting_network(L)
    pool = by_column[-L * MC_POOL :].reshape(MC_POOL, L)

    def ordered(block):
        n = len(block)
        cols = by_column[: L * n].reshape(L, n)
        np.copyto(cols, block.T)
        cols, spare = list(cols), spare_column[:n]
        for i, j in network:
            np.minimum(cols[i], cols[j], out=spare)
            np.maximum(cols[i], cols[j], out=cols[i])
            cols[j], spare = spare, cols[j]
        return cols

    held = 0  # rows in the pool
    for lo in range(0, m, MC_CHUNK):
        c = min(MC_CHUNK, m - lo)
        rng.random(out=rows[:c])
        if cut is None:
            yield ordered(rows[:c])
            continue
        keep = _sum_survivors(rows[:c], cut, spare_column[:c])
        while held + len(keep) > MC_POOL:
            room = MC_POOL - held
            np.take(rows, keep[:room], axis=0, out=pool[held:], mode="clip")
            keep, held = keep[room:], 0
            yield ordered(pool)
        np.take(rows, keep, axis=0, out=pool[held : held + len(keep)], mode="clip")
        held += len(keep)
        del keep
        if held == MC_POOL:
            held = 0
            yield ordered(pool)
    if held:
        yield ordered(pool[:held])


def simplex_volume_mc(
    spec: SimplexSpec, samples: int, seed: int, *, threads: int = 1
) -> VolumeEstimate:
    """Volume of S_L(xi) by rejection from the ordered cell.

    Sorted uniforms are exactly uniform on the ordered cell of volume
    1/L!, so the estimate is (acceptance rate)/L!.  Batches of fixed
    size MC_BATCH each use the counter-based Philox stream jumped to
    the batch index; each is drawn in chunks of MC_CHUNK rows, ordered
    by a sorting network and counted by simplex_mask.  Where fewer than
    a quarter of the rows have a sum at most _sum_cut's cut (unit
    weights from L = 5), the others fail (I_0) for sure and are dropped
    before any sort, and the survivors are pooled, sorted and counted
    MC_POOL rows at a time (_ordered_chunks); no member is dropped, so
    the count is the same.  Up to `threads`
    worker threads (worker_count, run_workers) take every workers-th
    batch; hit counts are integers, so the result is bit-reproducible
    and the same for every thread count.
    """
    if samples < MIN_MC_SAMPLES:
        raise DomainError(f"need samples >= {MIN_MC_SAMPLES}, got {samples}")
    if samples > MC_SAMPLE_CAP:
        raise ResourceError(f"samples={samples} beyond the {MC_SAMPLE_CAP} draw budget")
    if threads < 1:
        raise DomainError(f"need threads >= 1, got {threads}")
    _check_seed(seed)
    batches = -(-samples // MC_BATCH)
    n_workers = workers.worker_count(threads, batches, os.cpu_count())
    # allocated by the calling thread: worker threads allocate only the
    # kernel's temporaries, so their malloc arenas keep little memory
    buffers = _chunk_buffers(spec.L, n_workers)
    cut = _sum_cut(spec)

    counts = [0] * n_workers

    def count_batches(w: int):
        for index in range(w, batches, n_workers):
            m = min(MC_BATCH, samples - index * MC_BATCH)
            for cols in _ordered_chunks(seed, index, m, buffers[w], cut):
                counts[w] += int(np.count_nonzero(simplex_mask(cols, spec)))
            yield

    workers.run_workers(n_workers, count_batches)
    rate = sum(counts) / samples
    scale = 1.0 / math.factorial(spec.L)
    return VolumeEstimate(
        mean=rate * scale,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * scale,
        samples=samples,
        seed=seed,
    )


EXACT_MAX_L = 9  # Qhull takes 0.25 s at L = 9, 5 s at L = 10, and fails at L = 11


def simplex_volume_exact(spec: SimplexSpec) -> float:
    """Volume of S_L(xi), 2 <= L <= EXACT_MAX_L, as a convex polytope.

    Its 2L facets w.x <= c are x_1 <= 1, the orderings x_{i+1} <= x_i,
    x_L >= 0, (I_0) with c = xi_0, and (I_k) with c = 0 and -xi_k at x_k.
    It is thin (x_j < 3 rho^j, the comparison lemma), so Qhull takes it in
    y_j = x_j / rho^j: linprog finds a Chebyshev centre, HalfspaceIntersection
    the vertices and ConvexHull their volume, times rho^(L(L+1)/2).  Qhull's
    time grows with the vertices (4 at L = 2, 143 at L = 9), hence the cap.
    """
    L = spec.L
    if L > EXACT_MAX_L:
        raise DomainError(f"exact volume supports L <= {EXACT_MAX_L}, got L={L}")
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    # rows [w | -c]; the last column is x_0 = 1: rows 0..L are x_{r+1} <= x_r and x_L >= 0
    facets = np.zeros((2 * L, L + 1))
    facets[: L + 1, :L] = np.eye(L + 1, L) - np.eye(L + 1, L, -1)
    facets[0, L] = -1.0
    for k, xi in enumerate(spec.xi):  # (I_k): -xi_k at x_k, column k - 1
        facets[L + 1 + k, k:L] = [series_coefficient(i) for i in range(1, L - k + 1)]
        facets[L + 1 + k, k - 1] = -xi
    scale = structure_constants().rho ** np.arange(1, L + 1)
    facets[:, :L] *= scale
    norms = np.linalg.norm(facets[:, :L], axis=1, keepdims=True)
    centre = linprog(-np.eye(L + 1)[L], A_ub=np.hstack([facets[:, :L], norms]),
                     b_ub=-facets[:, L], bounds=(None, None)).x[:L]
    hull = ConvexHull(HalfspaceIntersection(facets, centre).intersections)
    return float(hull.volume * scale.prod())


def sample_simplex(
    spec: SimplexSpec, count: int, seed: int, *, max_draws: int | None = None
) -> np.ndarray:
    """Exactly `count` uniform points of S_L(xi), by rejection.

    Raises ResourceError if the acceptance rate is too low to reach
    `count` within max_draws draws, by default max(4000 count, 2^22).
    The points are the first `count` members in stream order; the sum
    prefilter (_ordered_chunks) keeps that order, so they are the same
    with and without it.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    _check_seed(seed)
    if max_draws is None:
        max_draws = max(4000 * count, 1 << 22)
    L = spec.L
    # the points and, on their way in, at most one chunk of members
    [buffers] = _chunk_buffers(L, 1, held=8 * L * (count + MC_CHUNK))
    cut = _sum_cut(spec)
    points = np.empty((count, L))
    have = 0
    drawn = 0
    index = 0
    while True:
        if drawn >= max_draws:
            raise ResourceError(
                f"acceptance too low: {have}/{count} points after {drawn} draws"
            )
        for cols in _ordered_chunks(seed, index, MC_BATCH, buffers, cut):
            rows = np.flatnonzero(simplex_mask(cols, spec))[: count - have]
            for j, c in enumerate(cols):
                points[have : have + len(rows), j] = c[rows]
            have += len(rows)
            if have == count:
                return points
        drawn += MC_BATCH
        index += 1


def check_comparison_lemma(spec: SimplexSpec, trials: int, seed: int) -> bool:
    """Sampling census of the geometric comparison inequalities.

    Under the hypothesis xi_0^L xi_1^(L-1) ... xi_{L-2}^2 <= 1.1, every
    point of S_L(xi) satisfies x_j <= 3 rho^(j-i) x_i for i < j and
    x_j < 3 rho^j.  Samples `trials` points by rejection and returns
    True iff no sampled point violates either inequality.
    """
    product = spec.xi_product()
    if product > XI_PRODUCT_CAP:
        raise DomainError(
            f"hypothesis violated: xi-product {product:.6f} > {XI_PRODUCT_CAP}"
        )
    rho = structure_constants().rho
    X = sample_simplex(spec, trials, seed)
    L = spec.L
    for j in range(1, L + 1):
        if (X[:, j - 1] >= 3.0 * rho**j).any():
            return False
        for i in range(1, j):
            if (X[:, j - 1] > 3.0 * rho ** (j - i) * X[:, i - 1]).any():
                return False
    return True


def _member_reciprocals(lo, x, omega, fn, spec, start, tab, scaled, f2) -> int:
    """The sum of 1/f(n), times 2^SUM_SHIFT and exact (sieve.fixed_sum),
    over the members n = 2^a m <= x, m = lo, lo + 2, ... the odd m of one
    r_l_sum window, given Omega(m), f(m) and f2[a] = f(2^a).

    The window is walked in slices of RL_SLICE odd m.  A slice's
    survivors Omega(m) <= L have their prime factors peeled off,
    smallest first, in L rounds through tab, and each factor's scaled
    entry lands in the survivor's column of X; simplex_mask selects the
    members.  The factors 2 of 2^a m, its smallest, map to 0.0, an
    unfilled row's value, so its column is m's, bit for bit, and each
    member m adds 1.0 / (f2[a] f(m)), with f(2^a m) exact in int64, for
    the a <= L - Omega(m) with m <= x >> a (power_of_2_prefixes).  The
    terms of one a, at most RL_SLICE, are reduced at once, so fixed_sum's
    2^26 bound holds, and none is kept.
    All of it is sized by the slice: beside its workspace a worker holds
    at most RL_SLICE * (8 (L + start) + 2 L + RL_SLICE_BYTES) bytes: X,
    at most a quarter of its columns taken by simplex_mask, and the
    rest; the terms and their reduction take X's place.
    """
    L = spec.L
    lifts = [(a, k) for a, k in power_of_2_prefixes(lo, 2, len(omega), x) if a < L]
    total = 0
    for b in range(0, len(omega), RL_SLICE):
        idx = np.flatnonzero(omega[b : b + RL_SLICE] <= L)
        idx += b
        om = omega[idx]
        m = 2 * idx + lo
        # row i holds x_i, from the i-th largest prime factor p_i; rows past
        # Omega(m) stay 0, and Omega(m) <= L fills rows 0..L-1 only
        X = np.zeros((L + start, len(m)))
        for r in range(L):
            live = np.flatnonzero(om > r)
            q = m[live]
            t = tab[(q >> 1) - 1]  # every cofactor of an odd m is odd
            p = np.where(t > 0, t, q)
            m[live] = q // p
            # the r-th smallest of Omega factors is p_(Omega-1-r)
            X[om[live] - 1 - r, live] = scaled[-tab[(p >> 1) - 1]]
        members = idx[simplex_mask(X[start:], spec)]
        del X
        om, fm = omega[members], fn[members].astype(np.int64)
        for a, k in lifts:  # Omega(2^a m) <= L, 2^a m <= x
            total += fixed_sum(1.0 / (fm[(members < k) & (om <= L - a)] * f2[a]))
    return total


def r_l_sum(
    f: str,
    spec: SimplexSpec,
    x: int,
    offset: str = "from_p0",
    *,
    threads: int = 1,
) -> float:
    """Sum of 1/f(n) over n <= x with Omega(n) <= L and renormalized
    vector (starting at the given offset) inside S_L(xi).

    The odd m of [3, x] are scanned in windows of DEFAULT_SEGMENT_SIZE,
    dealt round robin to min(threads, windows, CPUs) workers
    (deal_windows).  Each window is one segment_scan for Omega and f;
    _member_reciprocals walks it in slices of RL_SLICE, peels the prime
    factors of the m with Omega(m) <= L, smallest first, in L rounds
    through a smallest-prime-factor table over the odd n of [3, x]
    (sieve.odd_factor_table) that also holds the index of each prime,
    and maps each factor to loglog(p)/loglog(x) through a table over the
    primes <= x, read from the factor table and computed once with
    math.log (p = 2 and a missing factor give 0).
    simplex_mask selects the members m, and each worker reduces the
    1/f(n) of their 2^a m <= x with Omega <= L, which share m's vector,
    bit for bit the floats 1.0 / f(n), to one exact int per window
    (sieve.fixed_sum); no term is kept and no Python float is made per
    integer.  The ints are added after the join and rounded once
    (sieve.fixed_to_float), to math.fsum's correctly rounded sum of the
    terms, so the result does not depend on the window or slice size,
    thread count or term order: an exact sum has no order.

    One charge, made before anything is allocated, covers the whole
    sum: the factor table (4 bytes per odd n) and, while the primes are
    read from it, a mask over it (1 byte per odd n), the tables over the
    primes and their temporaries (32 bytes per prime, pi(x) bounded by
    sieve.prime_count_bound), and per worker its scan workspace and one
    slice (_member_reciprocals: 1.8 MB at L = 3 from_p0, 2.4 MB at
    L = 6 from_p1); a window's int, some 200 bytes, fits in the
    workspace's overhead.
    """
    if f not in ("phi", "sigma"):
        raise DomainError(f"f must be 'phi' or 'sigma', got {f!r}")
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if x > RL_SCAN_CAP:
        raise ResourceError(f"x={x} beyond the {RL_SCAN_CAP} scan budget")
    if offset not in OFFSETS:
        raise DomainError(f"offset must be one of {OFFSETS}, got {offset!r}")
    if x < E_TO_E:
        raise DomainError(f"need x >= e^e for the renormalization, got {x}")

    start = 0 if offset == "from_p0" else 1
    scan = deal_windows([(3, 2, x)], threads, want_omega=True, want_phi=f == "phi",
                        want_sigma=f == "sigma",
                        worker_bytes=RL_SLICE * (10 * spec.L + 8 * start + RL_SLICE_BYTES),
                        shared_bytes=5 * x // 2 + 32 * sieve.prime_count_bound(x),
                        what=f"R_L sum to {x}")
    llx = math.log(math.log(x))
    # tab[i], for the odd n = 2i + 3, is the smallest prime factor of a composite
    # n, n for a prime n <= isqrt(x + 1) and 0 above, so the primes <= x are read
    # from it; then minus the index in primes of a prime n (spf values fit int32)
    tab = sieve.odd_factor_table(x)
    primes = np.concatenate([primes_up_to(math.isqrt(x + 1)), 2 * np.flatnonzero(tab == 0) + 3])
    tab[(primes[1:] >> 1) - 1] = -np.arange(1, len(primes), dtype=np.int32)
    # scaled[i] = loglog(p)/loglog(x) for p = primes[i], by math.log as in renormalize
    # (np.log is ~20 times faster, but its loglog differs in the last bit for 1,339
    # of the 5,761,454 odd primes below 10^8, numpy 2.4.6); slot 0 (p = 2) is 0.0
    scaled = np.zeros(len(primes))
    scaled[1:] = np.fromiter(map(math.log, map(math.log, primes[1:].astype(float))), float,
                             len(primes) - 1)
    scaled[1:] /= llx
    fn_of = sieve.phi_of if f == "phi" else sieve.sigma_of
    f2 = [fn_of(factorize(1 << a)) for a in range(min(spec.L, x.bit_length() - 1) + 1)]

    sums = scan(lambda lo, _, got: _member_reciprocals(lo, x, got["omega"], got[f], spec,
                                                        start, tab, scaled, f2))
    # n = 2^a, a <= L, 1 included: the zero vector, always a member, f2 their f
    return fixed_to_float(sum(sums) + fixed_sum(np.array([1.0 / v for v in f2])))
