#!/usr/bin/env python3
"""Volume of the fundamental simplex, two ways.

The region lives inside the ordered cell 0 <= x_L <= ... <= x_1 <= 1
and is cut by the weighted inequalities (I_0)..(I_{L-2}).  Sorted
uniforms sample the ordered cell exactly, so rejection gives an
unbiased volume estimate; for L <= 9 the region's volume as a convex
polytope provides an independent exact value to check against.

With W_L = L! Vol S_L(1), the fraction of the ordered cell it fills,
the last column prints W_L W_{L-2} / W_{L-1}^2 next to rho: were
W_L ~ c rho^(L^2/2) it would be rho.  The numbers are reported; no
limit is claimed.
"""

import math

from phisigma import (
    SimplexSpec,
    check_comparison_lemma,
    simplex_volume_exact,
    simplex_volume_mc,
    structure_constants,
    unit_spec,
)
from phisigma.structure import EXACT_MAX_L

SAMPLES = 10**6
SEED = 20260809
MC_MAX_L = 6  # about 1400 of 10^6 samples land at L = 6, 60 at L = 7


def main():
    print("=" * 72)
    print("FUNDAMENTAL SIMPLEX VOLUMES")
    print("=" * 72)
    print()
    print(f"{'L':>2} {'polytope':>22} {'MC (1e6 samples)':>26} {'z':>6}"
          f" {'W_L = L! Vol':>13} {'W_L W_L-2 / W_L-1^2':>20}")
    w = {}
    for L in range(2, EXACT_MAX_L + 1):
        spec = unit_spec(L)
        exact = simplex_volume_exact(spec)
        w[L] = math.factorial(L) * exact
        mc = z = ""
        if L <= MC_MAX_L:
            est = simplex_volume_mc(spec, SAMPLES, SEED)
            mc = f"{est.mean:.4e} +- {est.std_error:.1e}"
            z = f"{(est.mean - exact) / est.std_error:+.2f}"
        ratio = f"{w[L] * w[L - 2] / w[L - 1] ** 2:.4f}" if L >= 4 else ""
        print(f"{L:>2} {exact:>22.16g} {mc:>26} {z:>6} {w[L]:>13.6e} {ratio:>20}".rstrip())
    print(f"rho = {structure_constants().rho:.6f}")
    print()

    print("loosening the weights recovers the whole ordered cell:")
    spec = SimplexSpec(L=3, xi=(100.0, 100.0))
    est = simplex_volume_mc(spec, SAMPLES, SEED)
    print(f"  xi = (100, 100): MC {est.mean:.8f}, polytope "
          f"{simplex_volume_exact(spec):.8f}, 1/6 = {1 / 6:.8f}")
    print()

    print("geometric comparison census (x_j <= 3 rho^(j-i) x_i inside the")
    print("simplex, hypothesis xi-product <= 1.1):")
    for L in (3, 5):
        ok = check_comparison_lemma(unit_spec(L), 10**4, SEED)
        print(f"  L={L}: zero violations over 1e4 sampled points: {ok}")


if __name__ == "__main__":
    main()
