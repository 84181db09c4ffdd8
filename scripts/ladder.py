#!/usr/bin/env python3
"""One rung of the instance ladder: enumerate the flat lattice of the seeded
density covering (n, m) and report its size, CPU time and memory.

The covering is `density_covering(random.Random(0), n, m)` from
bench/workloads.py, the generator the benchmark uses.  The last line of
output is one JSON object with the flats, the Hasse edges, the CPU seconds
of the enumeration and of building its Hasse rows, and the process's
maximum resident set size in MB, both read after the rows are built.
Exits 2 if the lattice exceeds the --max-flats guard, and 2 with
`error: ...` on stderr if --n is outside 1..64, --m is outside 1..2^n - 1
(the covering's blocks are distinct and nonempty) or --max-flats is below
1, as `covlat verify --random` does on an invalid bound.
"""

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import density_covering  # noqa: E402

from covlat import TransversalMatroid, Universe, enumerate_lattice  # noqa: E402
from covlat.errors import GuardExceeded, ValidationError  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True, help="universe size")
    parser.add_argument("--m", type=int, required=True, help="number of blocks")
    parser.add_argument("--max-flats", type=int, default=None, help="lattice size guard")
    args = parser.parse_args()

    try:
        # the generator loops forever asking for more distinct nonempty
        # blocks than the 2^n - 1 that exist
        nonempty = Universe(str(i + 1) for i in range(args.n)).full_mask
        if not 1 <= args.m <= nonempty:
            raise ValidationError(f"--m must be between 1 and {nonempty} for {args.n} elements")
        covering = density_covering(random.Random(0), args.n, args.m)
        start = time.process_time()
        lattice = enumerate_lattice(TransversalMatroid(covering), args.max_flats)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"({args.n},{args.m}): {exc}", file=sys.stderr)
        return 2
    # the canonical rows are built on their first read, so the CPU time and
    # the memory are read after it: they cover the edges the rung reports
    hasse_edges = len(lattice.hasse_edges)
    cpu_s = time.process_time() - start
    # ru_maxrss is in KB on Linux
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        json.dumps(
            {
                "n": args.n,
                "m": args.m,
                "flats": len(lattice),
                "hasse_edges": hasse_edges,
                "cpu_s": round(cpu_s, 2),
                "max_rss_mb": round(max_rss_mb, 1),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
