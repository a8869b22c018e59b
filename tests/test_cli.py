"""Command-line interface: dispatch, output formats, exit codes."""

import json
import tracemalloc

import pytest

from epsdelta import MAX_NET_LEVEL, functions
from epsdelta.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_COMMANDS = [
    ("delta-profile", "--fn", "chainsaw", "--eps", "0.5,0.25", "--resolution", "512"),
    ("delta", "--fn", "power(alpha=2,b=1)", "--eps", "0.19", "--resolution", "512"),
    ("delta", "--fn", "power(alpha=2,b=1)", "--eps", "0.19", "--closed-form"),
    ("modulus", "--fn", "pwl((0,0),(1,1))", "--delta", "0.25", "--resolution", "1025"),
    ("verify-delta", "--fn", "pwl((0,0),(1,1))", "--eps", "0.3", "--delta", "0.2",
     "--resolution", "512"),
    ("maximize", "--fn", "poly(0,1,-1)", "--level", "6", "--resolution", "512"),
    ("envelope", "--fn", "poly(0,1,-1)", "--resolution", "64"),
    ("bisect", "--fn", "poly(-1,0,3)", "--target", "(-inf,0)", "--steps", "10"),
    ("ivt", "--fn", "poly(0,0,0,1)", "--lo", "0", "--hi", "2", "--c", "2", "--steps", "10"),
    ("fixpoint", "--fn", "expr(cos(x),lo=0,hi=1)", "--steps", "10"),
]


class TestDispatch:
    @pytest.mark.parametrize("argv", GOOD_COMMANDS, ids=lambda a: a[0])
    def test_every_command_succeeds_with_json(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        json.loads(out)

    @pytest.mark.parametrize("argv", GOOD_COMMANDS, ids=lambda a: a[0])
    def test_every_command_succeeds_with_csv(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--output", "csv")
        assert code == 0, err
        assert out.endswith("\n")
        header = out.split("\n", 1)[0]
        assert "," in header


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("delta-profile", "--fn", "chainsaw", "--eps", "0.5,0.25,0.125",
             "--resolution", "2048"),
            ("maximize", "--fn", "poly(0,1,-1)", "--level", "8", "--output", "csv"),
            ("envelope", "--fn", "expr(sin(5*x),lo=0,hi=2)", "--resolution", "256",
             "--output", "csv"),
            ("fixpoint", "--fn", "expr(cos(x),lo=0,hi=1)", "--steps", "25"),
        ],
        ids=lambda a: a[0],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestOutputFormats:
    def test_json_floats_have_full_precision(self, capsys):
        code, out, _ = invoke(
            capsys, "delta", "--fn", "chainsaw", "--eps", "0.5", "--resolution", "16384"
        )
        assert code == 0
        assert "0.099999999999999978" in out

    def test_csv_floats_have_twelve_digits(self, capsys):
        code, out, _ = invoke(
            capsys, "delta", "--fn", "chainsaw", "--eps", "0.5", "--resolution", "16384",
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "0.5,0.1,grid,upper_bound"

    def test_verify_csv_row(self, capsys):
        code, out, _ = invoke(
            capsys, "verify-delta", "--fn", "chainsaw", "--eps", "0.5", "--delta", "0.1",
            "--resolution", "16384", "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "0.5,0.1,true,true"

    def test_profile_csv_table(self, capsys):
        code, out, _ = invoke(
            capsys, "delta-profile", "--fn", "power(alpha=2,b=1)", "--eps", "0.19,0.5",
            "--output", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,delta,method,bias"
        assert lines[1].startswith("0.19,0.1,closed_form,exact")
        assert len(lines) == 3

    def test_maximize_json_has_bound_and_maximizer(self, capsys):
        code, out, _ = invoke(
            capsys, "maximize", "--fn", "pwl((0,0),(1,1))", "--level", "3",
            "--resolution", "4097",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_bound"] == 1.125
        assert doc["first_maximizer"] == 1.0
        assert len(doc["levels"]) == 4

    def test_envelope_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "envelope", "--fn", "pwl((0,0),(0.25,1),(0.5,0),(0.75,1),(1,0))",
            "--resolution", "9", "--output", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,g"
        assert lines[1] == "0,0"
        assert lines[3] == "0.25,1"
        assert lines[-1] == "1,1"

    def test_fixpoint_endpoint_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "fixpoint", "--fn", "poly(0,0,1)", "--steps", "5", "--output", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["endpoint", "0"]


class TestExitCodes:
    def test_empty_level_set_is_one(self, capsys):
        code, _, err = invoke(capsys, "delta", "--fn", "chainsaw", "--eps", "2.0")
        assert code == 1
        assert "spread" in err

    def test_precondition_violated_is_one(self, capsys):
        code, _, err = invoke(
            capsys, "ivt", "--fn", "poly(0,1)", "--c", "5", "--steps", "4"
        )
        assert code == 1

    def test_not_self_map_is_one(self, capsys):
        code, _, err = invoke(capsys, "fixpoint", "--fn", "poly(0,2)", "--steps", "4")
        assert code == 1
        assert "leaves the domain" in err

    def test_out_of_range_closed_form_is_one(self, capsys):
        code, _, err = invoke(
            capsys, "delta", "--fn", "chainsaw", "--eps", "0.3", "--closed-form"
        )
        assert code == 1

    def test_function_parse_error_is_two(self, capsys):
        code, _, err = invoke(capsys, "delta", "--fn", "chainsw", "--eps", "0.5")
        assert code == 2
        assert "position" in err

    def test_target_parse_error_is_two(self, capsys):
        code, _, err = invoke(
            capsys, "bisect", "--fn", "poly(0,1)", "--target", "<0,1>", "--steps", "3"
        )
        assert code == 2

    def test_missing_required_flag_is_two(self, capsys):
        assert run(["delta", "--fn", "chainsaw"]) == 2

    def test_unknown_command_is_two(self, capsys):
        assert run(["frobnicate", "--fn", "chainsaw"]) == 2

    def test_bad_resolution_is_two(self, capsys):
        code, _, _ = invoke(
            capsys, "delta", "--fn", "chainsaw", "--eps", "0.5", "--resolution", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("resolution", ["1", "0"])
    def test_verify_delta_without_pairs_is_two(self, capsys, resolution):
        code, out, err = invoke(
            capsys, "verify-delta", "--fn", "power(alpha=2,b=1)", "--eps", "0.5",
            "--delta", "0.9", "--resolution", resolution,
        )
        assert code == 2
        assert out == ""
        assert "at least 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("delta", "--fn", "chainsaw", "--eps", "0.5"),
            ("delta-profile", "--fn", "chainsaw", "--eps", "0.5,0.3"),
            ("modulus", "--fn", "chainsaw", "--delta", "0.1"),
            ("verify-delta", "--fn", "chainsaw", "--eps", "0.5", "--delta", "0.1"),
            ("maximize", "--fn", "chainsaw", "--level", "3"),
            ("envelope", "--fn", "chainsaw"),
        ],
        ids=lambda a: a[0],
    )
    def test_resolution_past_point_budget_is_one(self, capsys, monkeypatch, argv):
        def no_grid(f, xs):
            raise AssertionError(f"evaluated a grid of {len(xs)} points")

        monkeypatch.setattr(functions, "evaluate_many", no_grid)
        over = str(2 ** MAX_NET_LEVEL + 2)  # one point past the budget: a 134 MB grid
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, *argv, "--resolution", over)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert "exceeds the maximum" in err
        assert peak < 2 ** 20

    def test_domain_flags_rejected_for_fixed_families(self, capsys):
        code, _, err = invoke(
            capsys, "delta", "--fn", "chainsaw", "--eps", "0.5", "--lo", "0", "--hi", "2"
        )
        assert code == 2
        assert "poly" in err

    def test_domain_flags_must_be_ordered(self, capsys):
        code, _, _ = invoke(
            capsys, "ivt", "--fn", "poly(0,1)", "--lo", "2", "--hi", "1", "--c", "1.5",
            "--steps", "3",
        )
        assert code == 2

    def test_success_is_zero(self, capsys):
        code, _, _ = invoke(capsys, "delta", "--fn", "chainsaw", "--eps", "0.5")
        assert code == 0


class TestDomainFlags:
    def test_poly_domain_override(self, capsys):
        code, out, _ = invoke(
            capsys, "envelope", "--fn", "poly(0,1)", "--lo", "-1", "--hi", "3",
            "--resolution", "5", "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "-1,-1"
        assert out.splitlines()[-1] == "3,3"
