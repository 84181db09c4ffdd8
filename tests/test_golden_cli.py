"""Byte-for-byte snapshots of the CLI reports on the shipped example files.

Each case runs one of ``check``, ``compare`` and ``lattice`` in text or JSON
format on one ``data/*.cov`` file, ``reduce`` in either mode on one, or
``compare`` on one of the larger coverings in ``tests/inputs/*.cov`` (n = 12,
14, 15 and 20; the last two lie over the verify suites' 14-element sweep
guard), and compares stdout, stderr and the exit code with
``tests/golden/<command>-<format or mode>-<file>.json``.  The
larger inputs stay out of ``data/``, which the benchmark reads.  Regenerate
the snapshots (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from covlat.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FILES = sorted(p.name for p in (ROOT / "data").glob("*.cov"))
LARGER = sorted(p.name for p in (ROOT / "tests" / "inputs").glob("*.cov"))
COMMANDS = ("check", "compare", "lattice")
FORMATS = ("text", "json")
MODES = ("reduct", "exclusion")
CASES = (
    [(c, f, name) for c in COMMANDS for f in FORMATS for name in FILES]
    + [("compare", f, name) for f in FORMATS for name in LARGER]
    + [("reduce", mode, name) for mode in MODES for name in FILES]
)


def run_cli(command: str, variant: str, name: str) -> dict:
    """Run one case; ``variant`` is the --mode of reduce, else the --format."""
    folder = "data" if name in FILES else "tests/inputs"
    option = "--mode" if command == "reduce" else "--format"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(ROOT / folder / name), option, variant])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def snapshot_path(command: str, variant: str, name: str) -> Path:
    return GOLDEN / f"{command}-{variant}-{Path(name).stem}.json"


@pytest.mark.parametrize("command,variant,name", CASES)
def test_cli_output_matches_snapshot(command, variant, name):
    expected = json.loads(snapshot_path(command, variant, name).read_text(encoding="utf-8"))
    assert run_cli(command, variant, name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        text = json.dumps(run_cli(*case), indent=2, ensure_ascii=False) + "\n"
        snapshot_path(*case).write_text(text, encoding="utf-8")
