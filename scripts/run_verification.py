#!/usr/bin/env python3
"""Randomized verification campaign over seeded families and coverings.

Runs the full check battery (oracle equivalence, geometricity, operator
criteria, round trips, structure relations) and prints a summary; exits
1 if any check fails or no check ran, and 2 on an invalid bound, as
`covlat verify --random` does.  Instances that trip a guard
(the brute-force oracle budget) are skipped and counted in the summary.
Failing instances are printed in the covering file format so they can be
replayed with `covlat verify <file>`.
"""

import argparse
import sys
import time

from covlat.errors import ValidationError
from covlat.verify import verify_random


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-m", type=int, default=6)
    args = parser.parse_args()

    start = time.perf_counter()
    try:
        result = verify_random(args.count, args.seed, args.max_n, args.max_m)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    for failure in result.failures:
        print(failure.line())
        print()
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: {result.checks_run} checks over {args.count} instances "
        f"(seed {args.seed}, n <= {args.max_n}) in {elapsed:.1f}s, "
        f"{len(result.failures)} failures, {result.skipped} instances skipped by a guard"
    )
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
