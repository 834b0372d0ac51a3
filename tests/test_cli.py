import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vbraid
from vbraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_cancellation(self, capsys):
        code, out, _ = run(capsys, "reduce", "-n", "2", "s1 s1^-1 z1")
        assert code == 0 and out == "z1\n"

    def test_json_string(self, capsys):
        code, out, _ = run(capsys, "--json", "reduce", "-n", "3", "s1 s2 s2^-1")
        assert code == 0 and out == '"s1"\n'
        code, out, _ = run(capsys, "--json", "reduce", "-n", "2", "s1 s1^-1")
        assert code == 0 and out == '""\n'

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "-n", "2", "q1")
        assert code == 2 and "parse error" in err

    def test_zero_index_exit_2(self, capsys):
        code, out, err = run(capsys, "reduce", "-n", "3", "s1 s00")
        assert code == 2 and out == "" and "position 3" in err

    def test_negative_strand_count_exit_2(self, capsys):
        code, out, err = run(capsys, "reduce", "-n", "-1", "")
        assert code == 2 and out == "" and "strand count" in err


class TestBurau:
    def test_json_matrix(self, capsys):
        code, out, _ = run(capsys, "burau", "-n", "2", "z1")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 2
        assert obj["entries"][0][1] == {"0": "1"}
        assert obj["entries"][0][0] == {}

    def test_monoid_rejected_exit_3(self, capsys):
        code, _, err = run(capsys, "burau", "--flavor", "sb", "-n", "2", "a1")
        assert code == 3 and "error" in err


class TestDet:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "det", "-n", "2", "s1")
        assert code == 0 and out == "-1*t^1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "det", "-n", "3", "z1 z2")
        assert code == 0 and json.loads(out) == {"0": "1"}


class TestPerm:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "perm", "-n", "3", "s1 s2")
        assert code == 0 and out == "[3,1,2]\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "perm", "-n", "3", "s1 s2")
        assert code == 0 and json.loads(out) == [3, 1, 2]


class TestAbelianize:
    def test_json_object(self, capsys):
        code, out, _ = run(capsys, "abelianize", "-n", "3", "s1 z2 s2^-1")
        assert code == 0
        assert json.loads(out) == {"sigma_sum": 0, "zeta_parity": 1}

    def test_flavor_guard_exit_3(self, capsys):
        code, _, _ = run(capsys, "abelianize", "--flavor", "br", "-n", "2", "s1")
        assert code == 3


class TestClosureGauss:
    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "closure-gauss", "-n", "2", "s1 s1 s1")
        assert code == 0 and out == "O1U2O3U1O2U3\n"

    def test_json_string(self, capsys):
        code, out, _ = run(capsys, "--json", "closure-gauss", "-n", "2", "s1 s1 s1")
        assert code == 0 and out == '"O1U2O3U1O2U3"\n'

    def test_not_a_knot_exit_4(self, capsys):
        code, _, err = run(capsys, "closure-gauss", "-n", "2", "s1 s1")
        assert code == 4 and "precondition" in err


class TestVerify:
    def test_pass_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--flavor", "vb", "-n", "2..3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.endswith("PASS") for line in lines)
        assert lines[0].startswith("n=2 ")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "--flavor", "sg", "-n", "3")
        assert code == 0
        records = json.loads(out)
        assert all(r["passed"] for r in records)
        assert {r["check"] for r in records} == {"sigma_sq"}

    def test_single_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--flavor", "sym", "-n", "4")
        assert code == 0 and all(line.startswith("n=4") for line in out.strip().splitlines())

    def test_reps_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "--flavor", "bp", "-n", "3", "--reps", "perm,exp_sum")
        assert code == 0
        checks = {line.split()[2] for line in out.strip().splitlines()}
        assert checks == {"perm", "exp_sum"}

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "verify", "--flavor", "vb", "-n", "2..4")
        _, out2, _ = run(capsys, "verify", "--flavor", "vb", "-n", "2..4")
        assert out1 == out2

    def test_inapplicable_reps_exit_3(self, capsys):
        for reps in ("burau", "bfs"):
            code, _, _ = run(capsys, "verify", "--flavor", "sb", "-n", "3", "--reps", reps)
            assert code == 3
        # an empty selection is refused, not read as the default set
        code, out, _ = run(capsys, "verify", "--flavor", "vb", "-n", "3", "--reps", "")
        assert code == 3 and out == ""
        # a repeated check is refused, not run twice
        code, out, err = run(capsys, "verify", "--flavor", "vb", "-n", "3", "--reps", "burau,burau")
        assert code == 3 and out == "" and "'burau'" in err

    def test_range_below_two_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "1..3")
        assert code == 2 and out == "" and "n >= 2" in err

    def test_empty_range_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "5..2")
        assert code == 2 and out == "" and "5..2" in err

    @pytest.mark.parametrize("text", ["abc", "3..", "..3", "2..x"])
    def test_malformed_range_exit_2(self, capsys, text):
        assert main(["verify", "-n", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "LO..HI" in captured.err


class TestEqual:
    def test_equal_with_witness(self, capsys):
        code, out, _ = run(capsys, "equal", "--flavor", "sym", "-n", "3", "z1 z2 z1", "z2 z1 z2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equal"
        assert len(lines) == 2  # one rewrite step

    def test_unknown_exit_10(self, capsys):
        code, out, _ = run(
            capsys, "equal", "-n", "3", "--depth", "4", "s1 s2 z1", "z2 s1 s2"
        )
        assert code == 10 and out == "unknown\n"

    def test_json_witness(self, capsys):
        code, out, _ = run(
            capsys, "--json", "equal", "-n", "2", "s1 s1^-1", ""
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == "equal"
        assert all({"rule", "direction", "position"} <= set(s) for s in obj["witness"])

    def test_depth_zero_unknown(self, capsys):
        code, out, _ = run(
            capsys, "equal", "--flavor", "sym", "-n", "3", "--depth", "0", "z1 z2 z1", "z2 z1 z2"
        )
        assert code == 10 and out == "unknown\n"

    def test_negative_depth_exit_2(self, capsys):
        for bad in ("-1", "2.5", "banana", ""):
            code, out, err = run(capsys, "equal", "-n", "2", "--depth", bad, "s1 s1^-1", "")
            assert code == 2 and out == "" and "depth" in err

    def test_identical_words_below_two_strands(self, capsys):
        code, out, err = run(capsys, "equal", "-n", "1", "", "")
        assert code == 0 and out == "equal\n" and err == ""


JSON_RUNS = {
    "reduce": (["reduce", "-n", "3", "s1 s2"], False),
    "reduce --json": (["--json", "reduce", "-n", "3", "s1 s2"], True),
    "equal": (["equal", "-n", "3", "s1 z2", "s1 z2"], False),
    "verify": (["verify", "-n", "2..3"], False),
    "verify --json": (["--json", "verify", "-n", "2..3"], True),
    "perm": (["perm", "-n", "3", "s1 z2"], False),
    "closure-gauss": (["closure-gauss", "-n", "2", "s1 s1 s1"], False),
    "det": (["det", "-n", "3", "s1 z2"], False),
    "burau": (["burau", "-n", "2", "s1"], True),
    "abelianize": (["abelianize", "-n", "2", "s1"], True),
}


@pytest.mark.parametrize("argv, prints_json", JSON_RUNS.values(), ids=JSON_RUNS)
def test_json_loaded_only_by_runs_that_print_it(argv, prints_json):
    code = (
        "import sys, vbraid.cli\n"
        f"code = vbraid.cli.main({argv!r})\n"
        "print('json' in sys.modules, code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vbraid.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"{prints_json} 0"
