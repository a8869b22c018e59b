"""Command-line interface: dispatch, output formats, exit codes."""

import hashlib
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


# sha256 of stdout per GOOD_COMMANDS entry, (json, csv).  The output is a
# format other programs parse: a digest changes only with a deliberate change
# of the output, never with a refactor.
GOLDEN_SHA256 = [
    ("fee4bcb7c8db219db139846a76e86ae7ee62cfddb9d2a35da3b1a8f7a5b69a61",
     "eb72341ba235da2d19d03ce9b83aad70a348fdaf2d9b97d89a9a4ab4cfea9d96"),
    ("42ef3a32de2a2e32935db5d4277f0e041eacbdd570a0be4edd751a6fc3454a8b",
     "1b9759169fb69e6ccecf20d87614a26c3ad21f8e4ff12a2fa87346b468cf433c"),
    ("344a0c08a76b90cb0d136275bddb432c0cdd1fa5ac76b442dd361eb7e278d0f4",
     "8cc383ab6c8edd563b4e1a5c2e59b7a86d2ea6ba40ce0cc7d4b38b0dbd6db3a7"),
    ("e046b95da351b7e05ea913e41d79efe13cbabc9079f44135b6d4aa17167b324c",
     "666a4b8bd6d68e6dc00c63837f8fbeb79b59af1af019e1b46d3cc077bcf31e31"),
    ("74c8cf20f99673df55bfd19b92dd3bc19123069743d7f4d22973efdbdb5c8c84",
     "e86f7e403ef5e2388dbb3e4293d842d2e63237ffcc7575790350afd168f37695"),
    ("0724d17f1a531c745a3755e8b6ccd8baeab55a70a9e1fb7a93d312464ee7226c",
     "3959974f86ee0a439744c3d770e91e94e183213907e977869a5210d4571e79af"),
    ("cb8d39734a59604fd7bc1515ac56545f8d9b5d0b047a69d780916e9b0399c29c",
     "c326b5c580ef5e0ff65897b30e68e0f6276322d9154fbbcde4ebf8c0126060c0"),
    ("8a5a57a8d183d87cd783c09868284518eb5f37406ee9794baddceee6401c4a6a",
     "a5a8d54e8338e9a21484e5145abbe8efd6d480d4494462c9627841d48067789d"),
    ("48daf74e46416037645e48830b92aea884672b4687dbe77b0d8d20697e4e58d1",
     "d916aee04884485f7a4b1d0a5193a528641b9e11f6b6dd07ea17b8501f3789dd"),
    ("3ac60ba87a3155fae660d0f3971cb5f4e75fdef9bf95e664f9e64b81ffe08d62",
     "10cbe84a4fb8f3c4bcd29eec331eabe4d75c81690133c3127e8718b9bf0cdc1c"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv, digests",
        list(zip(GOOD_COMMANDS, GOLDEN_SHA256)),
        ids=[f"{i}-{argv[0]}" for i, argv in enumerate(GOOD_COMMANDS)],
    )
    def test_stdout_matches_recorded_digest(self, capsys, argv, digests, output):
        code, out, err = invoke(capsys, *argv, "--output", output)
        assert code == 0, err
        digest = digests[0] if output == "json" else digests[1]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# maximize at level 18 refines its last levels in several evaluation chunks.
# The pwl's two equal peaks first appear at level 18, in different chunks.
# Digests are (json, csv).
DEEP_MAXIMIZE_SHA256 = [
    ("pwl((0,0),(0.25,0),(0.250003814697265625,1),(0.25000762939453125,0),"
     "(0.75,0),(0.750003814697265625,1),(0.75000762939453125,0),(1,0))",
     "8c70e3c299d2b41a45710944aa90db3c1ee913c961ddca810d0aa7b893c090e3",
     "48963f30d12b83c6b6071f8a517dd145b3b0fd3b0c5a8be37790ced5ff9ee3fd"),
    ("poly(0,1,-1)",
     "72abde6d67e58618f3a6267947ae46d845253d1bab7d947a3da50e74c74cb4ce",
     "00aa4b2a7ed048b1d3f44c090978dea8cd937059cce4ac319c74bfd6a3a2649c"),
    ("expr(cos(40*x),lo=0,hi=1)",
     "006a1120536f0160d46fe5f8a958995c1e1d161ebda3c03a1ec867ff057151e6",
     "db7277d1924aa81f808618a13dc8fada517ae444be532b52f074fc80d1de413c"),
]


class TestGoldenDeepMaximize:
    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize(
        "fn, json_digest, csv_digest", DEEP_MAXIMIZE_SHA256, ids=["pwl-ties", "poly", "expr"]
    )
    def test_stdout_matches_recorded_digest(self, capsys, fn, json_digest, csv_digest, output):
        code, out, err = invoke(
            capsys, "maximize", "--fn", fn, "--level", "18", "--resolution", "4096",
            "--output", output,
        )
        assert code == 0, err
        digest = json_digest if output == "json" else csv_digest
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        assert doc["levels"][-1]["certified_gap"] == 0.125
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

    @pytest.mark.parametrize(
        "spec", ["poly(1e308,1e308)", "pwl((0,0),(1,1e400))", "power(alpha=400,b=10)"]
    )
    def test_non_finite_values_are_one(self, capsys, spec):
        code, out, err = invoke(
            capsys, "modulus", "--fn", spec, "--delta", "0.1", "--resolution", "64"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: f is non-finite at x=")

    @pytest.mark.parametrize(
        "body",
        ["(" * 400 + "x" + ")" * 400, "sin(" * 400 + "x" + ")" * 400,
         "+".join(["x"] * 3000), "-" * 3000 + "x"],
        ids=["parens", "sin", "sum", "minus"],
    )
    def test_deep_expression_is_two(self, capsys, body):
        code, out, err = invoke(
            capsys, "maximize", "--fn", f"expr({body},lo=0,hi=1)", "--level", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nested too deeply (at position ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, where",
        [
            (("bisect", "--fn", "expr(x,lo=-1e308,hi=1e308)", "--target", "(-inf,0)",
              "--steps", "3"), " (at position 0)"),
            (("fixpoint", "--fn", "expr(x,lo=-1e308,hi=1e308)", "--steps", "3"),
             " (at position 0)"),
            (("bisect", "--fn", "poly(0,1)", "--lo=-1e308", "--hi=1e308", "--target",
              "(-inf,0)", "--steps", "3"), ""),
        ],
        ids=["spec-bisect", "spec-fixpoint", "flags-bisect"],
    )
    def test_overflowing_domain_width_is_two(self, capsys, argv, where):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: interval width overflows: [-1e+308, 1e+308]{where}\n"

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
