import json
import re
from pathlib import Path

import pytest

from covlat import FlatLattice, SubmodularSystem, TransversalMatroid, cli, parse_family
from covlat import lattice as lattice_module
from covlat.cli import main
from conftest import CHAIN_A, CHAIN_B, DOUBLED9, MIXED5, NESTED3

DATA = Path(__file__).resolve().parent.parent / "data"
INPUTS = Path(__file__).resolve().parent / "inputs"

NODE_LINE = re.compile(r'^\s*f\d+ \[label="[^"]*"\];$')
EDGE_LINE = re.compile(r"^\s*f\d+ -> f\d+;$")
RANK_LINE = re.compile(r"^\s*\{ rank=same;( f\d+;)+ \}$")
PLAIN_LINE = re.compile(r"^\s*(rankdir=BT;|node \[shape=box\];)$")


def check_dot(text: str) -> None:
    lines = text.strip().splitlines()
    assert re.fullmatch(r"digraph \w+ \{", lines[0])
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            NODE_LINE.match(line)
            or EDGE_LINE.match(line)
            or RANK_LINE.match(line)
            or PLAIN_LINE.match(line)
        ), f"bad DOT line: {line!r}"
    assert text.count("{") == text.count("}")


@pytest.fixture
def mixed5_file(tmp_path):
    path = tmp_path / "mixed5.cov"
    path.write_text(MIXED5)
    return str(path)


@pytest.fixture
def chain_b_file(tmp_path):
    path = tmp_path / "chain_b.cov"
    path.write_text(CHAIN_B)
    return str(path)


class TestCheck:
    def test_text_report(self, mixed5_file, capsys):
        assert main(["check", mixed5_file]) == 0
        out = capsys.readouterr().out
        assert "is_partition: False" in out
        assert "sh: singleton images partition: True; closure operator: True" in out
        assert "lattice: 16 flats, rank 4, 4 atoms" in out

    def test_json_report_round_trips(self, mixed5_file, capsys):
        assert main(["check", mixed5_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(report)) == report
        assert report["n"] == 5 and report["m"] == 4
        assert report["closure_operator"]["sh"]["is_closure"] is True
        assert report["closure_operator"]["sh"]["classes"] == [
            ["4", "5"],
            ["1", "2", "3"],
        ]
        assert report["matroid"]["rank"] == 4

    def test_uncovered_input_is_an_input_error(self, capsys):
        assert main(["check", str(DATA / "partial_family.cov")]) == 2
        assert "uncovered" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cov"
        bad.write_text("nonsense\n")
        assert main(["check", str(bad)]) == 2

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.cov"]) == 2

    def test_chain_b_reports_immured_blocks(self, chain_b_file, capsys):
        assert main(["check", chain_b_file]) == 0
        out = capsys.readouterr().out
        assert "immured blocks: K1, K2, K3" in out
        assert "vh: singleton images partition: True; closure operator: True" in out

    def test_chain_a_report(self, tmp_path, capsys):
        path = tmp_path / "chain_a.cov"
        path.write_text(CHAIN_A)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "xh: singleton images partition: True; closure operator: True" in out
        assert "K1" in out.split("immured blocks:")[1]

    def test_partition_file_gets_all_three_verdicts(self, capsys):
        assert main(["check", str(DATA / "partition_small.cov"), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_partition"] is True
        assert all(
            report["closure_operator"][k]["is_closure"] for k in ("sh", "xh", "vh")
        )


class TestMatroid:
    def test_transversal_stats(self, mixed5_file, capsys):
        assert main(["matroid", mixed5_file, "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rank"] == 4
        assert stats["simple"] is False
        assert stats["circuits"] == [["4", "5"]]
        assert stats["a_parts"] == [["4", "5"]]
        assert stats["b_part"] == ["1", "2", "3"]

    def test_sh_stats(self, mixed5_file, capsys):
        assert main(["matroid", mixed5_file, "--kind", "sh", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["base_count"] == 6
        assert stats["rank"] == 2

    def test_family_with_loops(self, capsys):
        assert main(["matroid", str(DATA / "partial_family.cov")]) == 0
        out = capsys.readouterr().out
        assert "loops: {1}" in out

    def test_criterion_unmet_exits_one(self, chain_b_file, capsys):
        assert main(["matroid", chain_b_file, "--kind", "xh"]) == 1
        assert "not a closure operator" in capsys.readouterr().err

    @pytest.mark.parametrize("guard", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["transversal", "sh", "xh", "vh"])
    def test_enumeration_guard_below_one_is_an_input_error(
        self, mixed5_file, kind, guard, capsys
    ):
        assert main(["matroid", mixed5_file, "--kind", kind, "--guard", guard]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "guard must be a positive integer" in captured.err

    def test_singleton_partition(self, tmp_path, capsys):
        path = tmp_path / "singletons.cov"
        path.write_text("universe: 1 2 3\nblock: 1\nblock: 2\nblock: 3\n")
        assert main(["matroid", str(path), "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rank"] == 3
        assert stats["circuits"] == []
        assert stats["simple"] is True


class TestLattice:
    def test_sh_lattice_text(self, mixed5_file, capsys):
        assert main(["lattice", mixed5_file, "--kind", "sh"]) == 0
        out = capsys.readouterr().out
        assert "flats: 4" in out
        assert "height 1: {4 5} {1 2 3}" in out

    def test_transversal_lattice_json(self, mixed5_file, capsys):
        assert main(["lattice", mixed5_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["flats"]) == 16
        assert len(data["heights"]) == 16
        assert all(len(edge) == 2 for edge in data["edges"])

    def test_dot_output_is_valid(self, mixed5_file, capsys):
        assert main(["lattice", mixed5_file, "--format", "dot"]) == 0
        check_dot(capsys.readouterr().out)
        assert main(["lattice", mixed5_file, "--kind", "xh", "--format", "dot"]) == 0
        check_dot(capsys.readouterr().out)

    def test_one_element_universe(self, tmp_path, capsys):
        path = tmp_path / "one.cov"
        path.write_text("universe: a\nblock: a\n")
        assert main(["lattice", str(path)]) == 0
        assert "flats: 2" in capsys.readouterr().out

    def test_guard_exceeded_exits_one(self, mixed5_file, capsys):
        assert main(["lattice", mixed5_file, "--max-lattice-size", "3"]) == 1
        assert "3" in capsys.readouterr().err
        # a guard below one flat is an input error, as it is from the environment
        for command in ("lattice", "check"):
            for value in ("0", "-3"):
                assert main([command, mixed5_file, "--max-lattice-size", value]) == 2
                captured = capsys.readouterr()
                assert "max_flats must be a positive integer" in captured.err

    def test_env_var_guard(self, mixed5_file, capsys, monkeypatch):
        monkeypatch.setenv("COVLAT_MAX_LATTICE_SIZE", "5")
        assert main(["lattice", mixed5_file]) == 1
        assert "5" in capsys.readouterr().err


class TestClosure:
    def test_vh_image(self, tmp_path, capsys):
        path = tmp_path / "d9.cov"
        path.write_text(DOUBLED9)
        assert main(["closure", str(path), "--operator", "vh", "--set", "b"]) == 0
        assert capsys.readouterr().out.strip() == "{a b}"

    def test_empty_set(self, mixed5_file, capsys):
        assert main(["closure", mixed5_file, "--operator", "sh", "--set", ""]) == 0
        assert capsys.readouterr().out.strip() == "{}"

    def test_unknown_element(self, mixed5_file, capsys):
        assert main(["closure", mixed5_file, "--operator", "sh", "--set", "9"]) == 2


class TestCompare:
    def test_mixed5_passes(self, mixed5_file, capsys):
        assert main(["compare", mixed5_file]) == 0
        out = capsys.readouterr().out
        assert "PASS sh-independents-within-transversal" in out
        assert "FAIL" not in out

    def test_json_form(self, mixed5_file, capsys):
        assert main(["compare", mixed5_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert any(c["claim"] == "xh-vh-operators-coincide" for c in data["claims"])

    @pytest.mark.parametrize("name", ["density_14.cov", "density_15.cov", "partition_20.cov"])
    def test_compare_enumerates_one_transversal_lattice(self, name, monkeypatch, capsys):
        # the golden snapshots of these inputs pin the report itself; the
        # relation checks read the one lattice cli enumerates and build none
        enumerated, constructed = [], []
        enumerate_lattice, construct = cli.enumerate_lattice, FlatLattice.__init__

        def count_enumerations(matroid, *args):
            enumerated.append(type(matroid).__name__)
            return enumerate_lattice(matroid, *args)

        def count_constructions(lattice, *args):
            constructed.append(lattice)
            construct(lattice, *args)

        monkeypatch.delenv("COVLAT_MAX_LATTICE_SIZE", raising=False)
        monkeypatch.setattr(cli, "enumerate_lattice", count_enumerations)
        monkeypatch.setattr(FlatLattice, "__init__", count_constructions)
        assert main(["compare", str(INPUTS / name)]) == 0
        out = capsys.readouterr().out
        assert enumerated == ["TransversalMatroid"]
        assert len(constructed) == 1
        assert "guard" not in out and "FAIL" not in out

    def test_claims_that_read_the_lattice_skip_over_the_lattice_guard(self, monkeypatch, capsys):
        # 32 flats over a guard of 8: compare still exits 0, skips exactly
        # the claims that read L with the guard's refusal, and decides the rest
        monkeypatch.setenv("COVLAT_MAX_LATTICE_SIZE", "8")
        assert main(["compare", str(INPUTS / "partition_20.cov")]) == 0
        lines = capsys.readouterr().out.splitlines()
        refusal = "flat lattice exceeds the guard of 8 flats (at least 9 exist)"
        skipped = [line[5 : line.index(":")] for line in lines if line.endswith(refusal)]
        deletions = [
            f"deletion-shrinks-{kind}[K{i}]"
            for i in range(1, 6)
            for kind in ("independents", "flats")
        ]
        reductions = [
            f"{mode}-{kind}-within-original"
            for mode in ("reduct", "exclusion")
            for kind in ("independents", "flats")
        ]
        assert skipped == [
            "sh-independents-within-transversal",
            "sh-flats-within-transversal-flats",
            "partition-structures-coincide",
            *deletions,
            *reductions,
        ]
        assert [line[5:] for line in lines if line.startswith("PASS ")] == [
            "indiscernible-neighborhoods-are-transversal-flats",
            "xh-vh-operators-coincide",
            "sh-independents-within-xh",
            "sh-flats-within-xh-flats",
        ]
        assert lines[-3:] == [
            "SKIP sh-closure-survives-immured-removal: covering has no immured block",
            "SKIP xh-closure-survives-reducible-removal: covering has no reducible block",
            "SKIP vh-closure-survives-reducible-removal: covering has no reducible block",
        ]
        assert len(lines) == len(skipped) + 4 + 3

    def test_matches_each_flat_of_the_lattice_once_per_pass(self, monkeypatch, capsys):
        # density_14.cov: 1,805 flats and 8 blocks.  The enumeration matches
        # 1,806 times (each flat, and the top again for its rank); the
        # deletion pass and the reduct/exclusion pass match each flat once.
        # Matchings kept across the passes made it 3,611, and matching each
        # flat again for each of the 10 deleted families 19,856
        calls = []
        match = TransversalMatroid._maximum_matching

        def counted(matroid, mask):
            calls.append(mask)
            return match(matroid, mask)

        monkeypatch.delenv("COVLAT_MAX_LATTICE_SIZE", raising=False)
        monkeypatch.setattr(TransversalMatroid, "_maximum_matching", counted)
        assert main(["compare", str(INPUTS / "density_14.cov")]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) == 1_806 + 2 * 1_805 == 5_416

    def test_compare_reads_no_join_index_or_edge_set(self, monkeypatch, capsys):
        # the relation checks read flats and heights only, so the lattice
        # never builds the join index and no caller reads its Hasse edges
        built = []
        index, edges = lattice_module.containment_index, FlatLattice.hasse_edges

        def counted_index(n, sets):
            built.append("containment_index")
            return index(n, sets)

        def counted_edges(lattice):
            built.append("hasse_edges")
            return edges.fget(lattice)

        monkeypatch.setattr(lattice_module, "containment_index", counted_index)
        monkeypatch.setattr(FlatLattice, "hasse_edges", property(counted_edges))
        assert main(["compare", str(INPUTS / "density_12.cov")]) == 0
        assert "PASS" in capsys.readouterr().out
        assert built == []


class TestReduce:
    def test_reduct_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "nested.cov"
        path.write_text(NESTED3)
        assert main(["reduce", str(path), "--mode", "reduct"]) == 0
        family = parse_family(capsys.readouterr().out)
        assert family.m == 2

    def test_exclusion_to_file(self, tmp_path, capsys):
        src = tmp_path / "chain_b.cov"
        src.write_text(CHAIN_B)
        dst = tmp_path / "out.cov"
        assert main(["reduce", str(src), "--mode", "exclusion", "-o", str(dst)]) == 0
        family = parse_family(dst.read_text())
        assert family.m == 1
        assert family.blocks[0] == family.universe.full()


class TestVerify:
    def test_round_trip_flag(self, mixed5_file, capsys):
        assert main(["verify", mixed5_file, "--round-trip"]) == 0
        out = capsys.readouterr().out
        assert "PASS matroid from lattice has the original independent sets" in out

    def test_round_trip_over_the_sweep_guard_exits_one(self, tmp_path, capsys):
        labels = " ".join(f"e{i}" for i in range(15))
        path = tmp_path / "wide.cov"
        path.write_text(f"universe: {labels}\nblock: {labels}\n")
        assert main(["verify", str(path), "--round-trip"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds enumeration guard 14" in captured.err

    def test_round_trip_refuses_before_building(self, tmp_path, capsys, monkeypatch):
        # eight 4-element blocks in a ring, each sharing one element with the
        # next: 24 elements, 2206 flats, seconds to build
        def never(*args, **kwargs):
            raise AssertionError("built before the guard refused")

        monkeypatch.setattr(FlatLattice, "__init__", never)
        monkeypatch.setattr(SubmodularSystem, "__init__", never)
        labels = [f"e{i}" for i in range(24)]
        blocks = [(labels + labels)[3 * k : 3 * k + 4] for k in range(8)]
        path = tmp_path / "ring.cov"
        path.write_text(
            f"universe: {' '.join(labels)}\n"
            + "".join(f"block: {' '.join(b)}\n" for b in blocks)
        )
        assert main(["verify", str(path), "--round-trip"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds enumeration guard 14" in captured.err

    def test_full_file_suite(self, mixed5_file, capsys):
        assert main(["verify", mixed5_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS independence agrees with oracle" in out

    def test_random_campaign(self, capsys):
        assert main(["verify", "--random", "24", "--seed", "42", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS random campaign" in out
        assert "0 instances skipped by a guard" in out

    def test_campaign_that_checked_nothing_fails(self, capsys):
        # at seed 0 all eight instances exceed the 7-element oracle budget
        assert main(["verify", "--random", "8", "--seed", "0", "--max-n", "30"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL random campaign: 0 checks, 0 failures, 8 instances skipped")

    def test_verify_without_arguments(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [["FILE"], ["--round-trip"], ["FILE", "--round-trip"]],
        ids=["file", "round-trip", "file-and-round-trip"],
    )
    def test_campaign_with_a_file_or_round_trip_is_an_input_error(
        self, extra, mixed5_file, capsys, monkeypatch
    ):
        # --random runs its own instances: a file or --round-trip beside it
        # would be silently ignored, so both are refused before any campaign
        def never(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr(cli, "verify_random", never)
        argv = [mixed5_file if arg == "FILE" else arg for arg in extra]
        assert main(["verify", *argv, "--random", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify --random takes neither a covering file nor --round-trip\n"
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["FILE", "--seed", "5"],
            ["FILE", "--max-n", "2"],
            ["FILE", "--max-m", "2"],
            ["--seed", "5"],
        ],
        ids=["seed", "max-n", "max-m", "seed-without-file"],
    )
    def test_campaign_options_without_random_are_an_input_error(
        self, extra, mixed5_file, capsys, monkeypatch
    ):
        # --seed, --max-n and --max-m shape the campaign alone: beside a file
        # they would be silently ignored, so they are refused before any suite
        def never(*args, **kwargs):
            raise AssertionError("suite ran")

        monkeypatch.setattr(cli, "verify_covering", never)
        argv = [mixed5_file if arg == "FILE" else arg for arg in extra]
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify --seed, --max-n and --max-m need --random\n"

    @pytest.mark.parametrize(
        "options,expected",
        [
            ([], (0, 6, 6)),
            (["--seed", "4", "--max-m", "3"], (4, 6, 3)),
            (["--max-n", "5"], (0, 5, 6)),
        ],
    )
    def test_campaign_defaults_apply_to_options_not_given(
        self, options, expected, capsys, monkeypatch
    ):
        calls = []

        def recorded(count, seed, max_n, max_m):
            calls.append((count, seed, max_n, max_m))
            return verify_random(1, seed, max_n, max_m)

        verify_random = cli.verify_random
        monkeypatch.setattr(cli, "verify_random", recorded)
        assert main(["verify", "--random", "3", *options]) == 0
        assert calls == [(3, *expected)]
        assert capsys.readouterr().out.startswith("PASS random campaign")

    @pytest.mark.parametrize(
        "bound",
        [
            ["--random", "4", "--max-n", "0"],
            ["--random", "4", "--max-m", "0"],
            ["--random", "4", "--max-n", "-2"],
            ["--random", "0"],
            ["--random", "-2"],
        ],
    )
    def test_campaign_bounds_below_one_are_input_errors(self, bound, capsys):
        assert main(["verify", *bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "campaign bounds must be at least 1" in captured.err


def test_data_files_parse():
    for path in DATA.glob("*.cov"):
        parse_family(path.read_text())
