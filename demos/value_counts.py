#!/usr/bin/env python3
"""How many integers up to N are totient values?  Sigma values?  Both?

Builds one bitmap per function by scanning only odd preimages n, in
the 15 odd residue classes mod 30 (sigma), or in the 28 odd classes
mod 90 and 7 mod 450 that skip the n with exactly one factor 3 or 5
(phi), each class up to its own top: N times an exact bound on n/f(n)
over the class, for phi over the n that 7, 11 and 13 do not divide.
The phi values of the n q m above that top, q = 7, 11 or 13, are
derived from the scanned m: phi(q m) is (q - 1) phi(m), or q phi(m)
where q divides m.  The other n are not scanned: their values are the
scanned and derived values times 2^j (phi, as phi(3m) = 2 phi(m) and
phi(5m) = 4 phi(m) when 3, 5 do not divide m) or a Mersenne number
2^j - 1 (sigma), added by one closure pass over the marked values.
All counts are read off the same pair of bitmaps.
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
