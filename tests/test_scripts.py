"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covlat import cli

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_render_lattices_writes_every_lattice(tmp_path):
    result = run_script("render_lattices.py", "--data", str(ROOT / "data"), "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    # the seven sample files: one is not a covering and is skipped; the other
    # six give their transversal lattice plus one per closure operator
    dots = sorted(tmp_path.glob("*.dot"))
    assert len(dots) == 19
    assert f"wrote 19 DOT files to {tmp_path}/" in result.stdout
    assert all(path.read_text().startswith("digraph ") for path in dots)


def test_run_verification_passes():
    result = run_script("run_verification.py", "--count", "8", "--seed", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("PASS: ")


@pytest.mark.parametrize("bound", ["--count", "--max-n", "--max-m"])
def test_run_verification_refuses_a_bound_below_one_as_the_cli_does(bound, capsys):
    result = run_script("run_verification.py", bound, "0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: campaign bounds must be at least 1: ")
    assert "Traceback" not in result.stderr
    if bound == "--count":
        assert cli.main(["verify", "--random", "0"]) == 2
        assert capsys.readouterr().err == result.stderr


def test_ladder_reports_one_rung():
    result = run_script("ladder.py", "--n", "10", "--m", "6")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert set(report) == {"n", "m", "flats", "hasse_edges", "cpu_s", "max_rss_mb"}
    assert (report["n"], report["m"]) == (10, 6)
    assert 1 < report["flats"] < report["hasse_edges"]
    assert report["max_rss_mb"] > 0


def test_ladder_refuses_a_lattice_over_the_guard():
    result = run_script("ladder.py", "--n", "10", "--m", "6", "--max-flats", "5")
    assert result.returncode == 2
    assert "exceeds the guard of 5 flats" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "10", "--max-flats", "0"], "max_flats must be a positive integer"),
        (["--n", "0"], "a universe needs at least one element"),
        (["--n", "70"], "universe size 70 exceeds the cap of 64"),
        (["--n", "2", "--m", "4"], "--m must be between 1 and 3 for 2 elements"),
        (["--n", "10", "--m", "0"], "--m must be between 1 and 1023 for 10 elements"),
    ],
    ids=["max-flats-0", "n-0", "n-70", "m-4-of-2", "m-0"],
)
def test_ladder_refuses_an_invalid_size_or_guard_as_an_input_error(args, message):
    result = run_script("ladder.py", "--m", "6", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
