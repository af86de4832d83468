"""Per-integer reference loops for the array pipelines.

These are the scalar implementations that r_l_sum, simplex_contains and
capture_census had before they became array pipelines, the whole-batch
Monte Carlo path (u.sort and an @-based acceptance test) that
simplex_volume_mc and sample_simplex had before they were chunked, and
the all-strided segment_scan that the large-prime pass replaced for the
primes above LARGE_PRIME_THRESHOLD.  They are kept here, unchanged in
arithmetic, as oracles: the pipelines must agree with them exactly (==),
not approximately.
"""

import math

import numpy as np

from phisigma import ResourceError, VolumeEstimate, series_coefficient
from phisigma.classifier import af_params, classify
from phisigma.sieve import _multiples, build_factor_sieve, factorize, phi_of, sigma_of
from phisigma.structure import MC_BATCH

from conftest import phi_oracle_top


def simplex_contains_loop(vec, spec) -> bool:
    """Membership in S_L(xi) by the scalar loop: ordering plus (I_k)."""
    L = spec.L
    assert len(vec) == L
    if vec[-1] < 0.0 or vec[0] > 1.0:
        return False
    for a, b in zip(vec, vec[1:]):
        if b > a:
            return False
    a = [series_coefficient(i) for i in range(1, L + 1)]
    for k in range(L - 1):
        lhs = sum(a[j - 1] * vec[k + j - 1] for j in range(1, L - k + 1))
        rhs = spec.xi[k] * (vec[k - 1] if k >= 1 else 1.0)
        if lhs > rhs:
            return False
    return True


def r_l_sum_loop(f: str, spec, x: int, offset: str = "from_p0") -> float:
    """R_L by factoring every n <= x through one spf table."""
    L = spec.L
    a = [series_coefficient(i) for i in range(1, L + 1)]
    xi = spec.xi
    llx = math.log(math.log(x))
    start = 0 if offset == "from_p0" else 1
    sieve = build_factor_sieve(2, x + 1)
    spf = sieve.spf
    lo = sieve.window_lo

    lll_cache: dict[int, float] = {}

    def loglog_scaled(p: int) -> float:
        v = lll_cache.get(p)
        if v is None:
            v = math.log(math.log(p)) / llx
            lll_cache[p] = v
        return v

    terms = [1.0]  # n = 1: zero vector, always a member
    for n in range(2, x + 1):
        primes: list[int] = []
        expos: list[int] = []
        m = n
        total = 0
        while m > 1:
            v = int(spf[m - lo])
            p = m if v == 0 else v
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            total += e
            if total > L:
                break
            primes.append(p)
            expos.append(e)
        if total > L:
            continue

        desc: list[int] = []
        for p, e in zip(reversed(primes), reversed(expos)):
            desc.extend([p] * e)
        vec = [
            0.0 if (i >= total or desc[i] == 2) else loglog_scaled(desc[i])
            for i in range(start, start + L)
        ]
        if vec[0] > 1.0:
            continue
        member = True
        for k in range(L - 1):
            lhs = 0.0
            for j in range(1, L - k + 1):
                lhs += a[j - 1] * vec[k + j - 1]
            rhs = xi[k] * (vec[k - 1] if k >= 1 else 1.0)
            if lhs > rhs:
                member = False
                break
        if not member:
            continue

        fn = 1
        for p, e in zip(primes, expos):
            if f == "phi":
                fn *= p ** (e - 1) * (p - 1)
            else:
                fn *= (p ** (e + 1) - 1) // (p - 1)
        terms.append(1.0 / fn)
    return math.fsum(terms)


def capture_census_loop(f_tag: str, x: int, epsilon: float = 0.1, *, s_override=None):
    """(total_values, values_with_outside_preimage) by classifying every
    preimage whose value is not yet known to have an outside preimage."""
    params = af_params(x, epsilon, s_override=s_override)
    bound = phi_oracle_top(x) if f_tag == "phi" else x
    sieve = build_factor_sieve(2, bound + 2)

    attained = bytearray(x + 1)
    outside = bytearray(x + 1)
    attained[1] = 1
    outside[1] = 1
    for n in range(2, bound + 1):
        fact = factorize(n, sieve)
        v = phi_of(fact) if f_tag == "phi" else sigma_of(fact)
        if v > x:
            continue
        attained[v] = 1
        if not outside[v]:
            if not classify(n, f_tag, params, sieve).member:
                outside[v] = 1
    total = sum(attained) - attained[0]
    out = sum(1 for a, o in zip(attained, outside) if a and o)
    return total, out


def ordered_batch_sort(seed: int, index: int, m: int, L: int) -> np.ndarray:
    """Monte Carlo batch `index`: m Philox rows sorted descending by u.sort."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    u = rng.random((m, L))
    u.sort(axis=1)
    return u[:, ::-1]


def accept_mask_matmul(X: np.ndarray, spec) -> np.ndarray:
    """(I_0)..(I_{L-2}) on ordered rows, each left side by one @."""
    a = np.array([series_coefficient(i) for i in range(1, spec.L + 1)])
    ok = X @ a <= spec.xi[0]
    for k in range(1, spec.L - 1):
        ok &= X[:, k:] @ a[: spec.L - k] <= spec.xi[k] * X[:, k - 1]
    return ok


def simplex_volume_mc_loop(spec, samples: int, seed: int) -> VolumeEstimate:
    """The volume estimate from whole sorted batches and @-based acceptance."""
    hits = 0
    done = 0
    index = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        X = ordered_batch_sort(seed, index, m, spec.L)
        hits += int(accept_mask_matmul(X, spec).sum())
        done += m
        index += 1
    rate = hits / samples
    scale = 1.0 / math.factorial(spec.L)
    return VolumeEstimate(
        mean=rate * scale,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * scale,
        samples=samples,
        seed=seed,
    )


def sample_simplex_loop(spec, count: int, seed: int, *, max_draws=None) -> np.ndarray:
    """`count` accepted rows of whole sorted batches, in stream order."""
    if max_draws is None:
        max_draws = max(4000 * count, 1 << 22)
    kept = []
    have = 0
    drawn = 0
    index = 0
    while have < count:
        if drawn >= max_draws:
            raise ResourceError(f"acceptance too low: {have}/{count} points")
        X = ordered_batch_sort(seed, index, MC_BATCH, spec.L)
        drawn += MC_BATCH
        index += 1
        acc = X[accept_mask_matmul(X, spec)]
        kept.append(acc)
        have += len(acc)
    return np.concatenate(kept)[:count]


def segment_scan_strided(
    lo: int,
    hi: int,
    base_primes: np.ndarray,
    *,
    want_phi: bool = False,
    want_sigma: bool = False,
    want_omega: bool = False,
    smooth_bound: int | None = None,
    step: int = 1,
):
    """segment_scan as it was before the large-prime pass: every base
    prime, however large, on its own strided slices."""
    size = (hi - lo + step - 1) // step
    last = lo + (size - 1) * step
    rem = np.arange(lo, hi, step, dtype=np.int64)
    phi = np.ones(size, dtype=np.int64) if want_phi else None
    sigma = np.ones(size, dtype=np.int64) if want_sigma else None
    omega = np.zeros(size, dtype=np.int16) if want_omega else None

    top = smooth_bound if smooth_bound is not None else math.isqrt(last)
    for p in base_primes.tolist():
        if p > top:
            break
        hit = _multiples(lo, step, p)
        if hit is None or hit[0] >= size:
            continue
        start, stride = hit
        sl = slice(start, size, stride)
        r = rem[sl]
        r //= p
        if want_omega:
            o = omega[sl]
            o += 1
        if want_phi:
            ph = phi[sl]
            ph *= p - 1
        if want_sigma:
            s = np.full(r.shape, p + 1, dtype=np.int64)
        q = p * p
        while q <= last:
            hit = _multiples(lo, step, q)
            if hit is None or hit[0] >= size:
                break
            # multiples of p^j are a sub-progression of the p-slice
            sub = slice((hit[0] - start) // stride, None, hit[1] // stride)
            r_sub = r[sub]
            r_sub //= p
            if want_omega:
                o_sub = o[sub]
                o_sub += 1
            if want_phi:
                ph_sub = ph[sub]
                ph_sub *= p
            if want_sigma:
                s_sub = s[sub]
                s_sub *= p
                s_sub += 1
            q *= p
        if want_sigma:
            sigma[sl] *= s

    # no fancy-index temporaries here: they dominate the window's peak
    big = rem > 1
    if want_phi:
        np.multiply(phi, rem - 1, out=phi, where=big)
    if want_sigma:
        np.multiply(sigma, rem + 1, out=sigma, where=big)
    if want_omega:
        omega += big

    out = {}
    if want_phi:
        out["phi"] = phi
    if want_sigma:
        out["sigma"] = sigma
    if want_omega:
        out["omega"] = omega
    if smooth_bound is not None:
        out["rem"] = rem
    return out
