#!/usr/bin/env python3
"""How many integers up to N are totient values?  Sigma values?  Both?

Builds one bitmap per function by scanning every preimage (sigma
preimages stop at N; totient preimages run up to N times an exact bound
on n/phi(n), phi_preimage_bound) and reads all counts off the same pair
of bitmaps.
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
