#!/usr/bin/env python3
"""How many integers up to N are totient values?  Sigma values?  Both?

Builds one bitmap per function by scanning only odd preimages n, in
the 15 odd residue classes mod 30 (sigma) or the 35 odd classes mod 90
that skip the n with exactly one factor 3 (phi), each class up to its
own top: N times an exact bound on n/f(n) over the class.  The other n
are not scanned: their values are the scanned n's values times 2^j
(phi, as phi(3m) = 2 phi(m) when 3 does not divide m) or a Mersenne
number 2^j - 1 (sigma), added by one closure pass over the marked
values.  All counts are read off the same pair of bitmaps.
phi_preimage_bound, printed below, is twice the top of the class 15
mod 30: it bounds every n, even or odd, with phi(n) <= N.
"""

import time

from phisigma import phi_preimage_bound, values_table, values_table_csv

LIMITS = [10**4, 10**5, 10**6]


def main():
    print("=" * 72)
    print("VALUE COUNTS OF phi AND sigma, AND THEIR COMMON VALUES")
    print("=" * 72)
    print()
    print(f"totient preimage bound for N = {LIMITS[-1]:,}:"
          f" {phi_preimage_bound(LIMITS[-1]):,}")
    print()

    t0 = time.time()
    rows = values_table(LIMITS)
    print(values_table_csv(rows))
    print(f"[{time.time() - t0:.1f}s]")
    print()
    print("The common fraction drifts down slowly: most totient values")
    print("are not sigma values, and vice versa, but the decay is gentle")
    print("(doubly-logarithmic in N).")


if __name__ == "__main__":
    main()
