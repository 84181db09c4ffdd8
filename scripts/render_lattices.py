#!/usr/bin/env python3
"""Render the flat lattices of the sample coverings to DOT files.

For every covering under data/ this writes the transversal lattice plus the
lattice of each operator that is a closure operator there.  Pipe any output
through `dot -Tpng` to draw it.
"""

import argparse
import sys
from pathlib import Path

from covlat import (
    NeighborhoodTable,
    TransversalMatroid,
    UpperOperator,
    as_covering,
    closure_operator_verdict,
    enumerate_lattice,
    parse_family,
)
from covlat.errors import CovlatError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=str(Path(__file__).resolve().parent.parent / "data"))
    parser.add_argument("--out", default="lattices")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for path in sorted(Path(args.data).glob("*.cov")):
        family = parse_family(path.read_text(encoding="utf-8"))
        try:
            covering = as_covering(family)
        except CovlatError as exc:
            print(f"{path.name}: skipped ({exc})")
            continue
        targets = [("transversal", TransversalMatroid(covering))]
        table = NeighborhoodTable.build(covering)
        for kind in UpperOperator:
            verdict = closure_operator_verdict(table, kind)
            if verdict.is_closure:
                targets.append((kind.value, verdict.partition_matroid(covering.universe)))
        for label, matroid in targets:
            lattice = enumerate_lattice(matroid)
            dest = out_dir / f"{path.stem}_{label}.dot"
            dest.write_text(lattice.to_dot(name=f"{path.stem}_{label}"), encoding="utf-8")
            print(f"{dest}: {len(lattice)} flats")
            written += 1
    print(f"wrote {written} DOT files to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
