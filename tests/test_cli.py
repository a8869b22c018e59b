"""Command-line interface: dispatch, output formats, exit codes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from epsdelta import MAX_NET_LEVEL, EpsDeltaError, extremum, functions
from epsdelta.cli import MAX_ENVELOPE_ROWS, run
from epsdelta.serialize import json_text


def run_process(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a process of its own, with this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=60)


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

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_maximize_evaluates_its_grid_once(self, capsys, monkeypatch, output):
        # the certified bound's modulus and the first maximizer share one grid
        sizes = []

        def counted(f, xs):
            sizes.append(len(xs))
            return evaluate_many(f, xs)

        evaluate_many = functions.evaluate_many
        monkeypatch.setattr(functions, "evaluate_many", counted)
        monkeypatch.setattr(extremum, "evaluate_many", counted)
        code, out, err = invoke(
            capsys, "maximize", "--fn", "poly(0,1,-1)", "--level", "6",
            "--resolution", "4096", "--output", output,
        )
        assert code == 0, err
        # the refinement's level-6 net, read level by level, then the grid
        assert sizes == [65, 4096]

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

    @pytest.mark.parametrize("eps", ["5e-324", "1e-300"])
    def test_tiny_epsilon_closed_form_is_one(self, capsys, eps):
        # 1/eps overflows at 5e-324, and delta = 1/(n(2n+1)) underflows at both
        code, out, err = invoke(capsys, "delta", "--fn", "chainsaw", "--eps", eps, "--closed-form")
        assert code == 1
        assert out == ""
        assert err.startswith("error: sawtooth closed form underflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "fn, eps",
        [("power(alpha=2,b=1e200)", "1"), ("power(alpha=0.5,b=1e-300)", "1e-200"),
         ("power(alpha=3,b=1)", "1e-17")],
        ids=["spread-overflows", "delta-underflows", "delta-cancels"],
    )
    def test_power_closed_form_out_of_float_range_is_one(self, capsys, fn, eps):
        code, out, err = invoke(capsys, "delta", "--fn", fn, "--eps", eps, "--closed-form")
        assert code == 1
        assert out == ""
        assert err.startswith("error: power closed form ")
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "Traceback" not in err

    def test_power_profile_falls_back_to_grid_where_delta_cancels(self, capsys):
        code, out, err = invoke(
            capsys, "delta-profile", "--fn", "power(alpha=3,b=1)", "--eps", "1e-17,0.5"
        )
        assert (code, err) == (0, "")
        samples = json.loads(out)["samples"]
        assert [(s["epsilon"], s["method"]) for s in samples] == [
            (1e-17, "grid"), (0.5, "closed_form")
        ]

    @pytest.mark.parametrize("eps", ["5e-324", "1e-300"])
    def test_tiny_epsilon_profile_falls_back_to_grid(self, capsys, eps):
        code, out, _ = invoke(capsys, "delta-profile", "--fn", "chainsaw", "--eps", eps)
        assert code == 0
        assert [s["method"] for s in json.loads(out)["samples"]] == ["grid"]

    @pytest.mark.parametrize("eps", [",", "a,b", "0.5,,0.25", "0.5,"])
    def test_bad_epsilon_list_is_two(self, capsys, eps):
        code, out, err = invoke(capsys, "delta-profile", "--fn", "chainsaw", "--eps", eps)
        assert code == 2
        assert out == ""
        assert "--eps" in err

    def test_nan_delta_is_two(self, capsys):
        code, out, err = invoke(capsys, "modulus", "--fn", "poly(0,1)", "--delta", "nan")
        assert code == 2
        assert out == ""
        assert err.endswith(
            "error: argument --delta: got 'nan' "
            "(at position 0, expected a number or a signed inf)\n"
        )

    @pytest.mark.parametrize("command, eps", [("delta", "0.3"), ("delta-profile", "0.3,0.2")])
    def test_refine_past_window_underflow_is_zero(self, capsys, command, eps):
        # the window half-width underflows to 0 within about 270 rounds; the
        # rounds after that change nothing
        base = (command, "--fn", "chainsaw", "--eps", eps, "--resolution", "64", "--refine")
        code, out, err = invoke(capsys, *base, "255")
        assert code == 0, err
        for rounds in ("300", "1000000"):
            assert invoke(capsys, *base, rounds) == (0, out, "")

    @pytest.mark.parametrize("target", ["(0,1)u[0,2]", "[0,2]"])
    def test_both_ends_inside_target_is_one(self, capsys, target):
        code, out, err = invoke(
            capsys, "bisect", "--fn", "poly(0,1)", "--target", target, "--steps", "3"
        )
        assert code == 1
        assert out == ""
        assert err.endswith("are both inside\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("modulus", "--fn", "poly(0,1)", "--delta", "inf"),
            ("verify-delta", "--fn", "poly(0,1)", "--eps", "0.5", "--delta", "inf"),
            ("maximize", "--fn", "expr(1e308*x,lo=0,hi=1)", "--level", "0"),
        ],
        ids=lambda a: a[0],
    )
    def test_non_finite_result_is_one_in_json_only(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: JSON cannot hold the value inf; use --output csv\n"
        code, out, _ = invoke(capsys, *argv, "--output", "csv")
        assert code == 0
        assert "inf" in out

    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_json_text_refuses_non_finite(self, value):
        with pytest.raises(EpsDeltaError, match="--output csv"):
            json_text({"points": [[0.5, value]]})

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

    def test_envelope_past_row_budget_is_one(self, capsys, monkeypatch):
        def no_grid(f, resolution, include_anchors=False):
            raise AssertionError(f"sampled a grid of {resolution} points")

        monkeypatch.setattr(extremum, "sample_grid", no_grid)
        over = MAX_ENVELOPE_ROWS + 1
        assert over == 2 ** 22 + 2
        code, out, err = invoke(capsys, "envelope", "--fn", "poly(0.1,0.5,-1)",
                                "--resolution", str(over))
        assert (code, out) == (1, "")
        assert err == (f"error: resolution {over} exceeds the maximum "
                       f"{2 ** 22 + 1} rows of a printed envelope\n")

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
        "argv, message",
        [
            (("ivt", "--fn", "poly(0,1)", "--lo", "1", "--hi", "1", "--c", "0.5",
              "--steps", "3"), "interval needs lo < hi, got [1.0, 1.0]"),
            (("maximize", "--fn", "expr(x,lo=1,hi=1)", "--level", "3"),
             "interval needs lo < hi, got [1.0, 1.0] (at position 0)"),
        ],
        ids=["flags", "spec"],
    )
    def test_zero_width_domain_is_two(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

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


class TestNumberGrammar:
    """Real-valued options read numbers as function specs do, or a signed inf;
    counts are plain ASCII digits."""

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (("modulus", "--fn", "poly(0,1)", "--delta", "-inf"),
             ("modulus", "--fn", "poly(0,1)", "--delta=-inf")),
            (("delta-profile", "--fn", "chainsaw", "--eps", " 0.5, 0.25", "--resolution", "256"),
             ("delta-profile", "--fn", "chainsaw", "--eps", "0.5,0.25", "--resolution", "256")),
            (("envelope", "--fn", "poly(0,1)", "--resolution", " 17 "),
             ("envelope", "--fn", "poly(0,1)", "--resolution", "17")),
        ],
        ids=["negative-inf", "spaced-list", "spaced-count"],
    )
    def test_spellings_agree(self, capsys, argv, plain):
        assert invoke(capsys, *argv) == invoke(capsys, *plain)

    @pytest.mark.parametrize(
        "option, value, rest",
        [
            ("--delta", "infinity", ("modulus", "--fn", "poly(0,1)")),
            ("--delta", "INF", ("modulus", "--fn", "poly(0,1)")),
            ("--hi", "1_0", ("ivt", "--fn", "poly(0,1)", "--c", "0.5", "--steps", "2")),
            ("--delta", "\u0660.\u0665", ("modulus", "--fn", "poly(0,1)")),  # Arabic-Indic 0.5
            ("--resolution", " 1_7 ", ("envelope", "--fn", "poly(0,1)")),
            ("--resolution", "+4", ("envelope", "--fn", "poly(0,1)")),
            ("--resolution", "\uff13", ("envelope", "--fn", "poly(0,1)")),  # full-width 3
            ("--refine", "1e3", ("delta", "--fn", "chainsaw", "--eps", "0.5")),
            ("--level", "3.", ("maximize", "--fn", "poly(0,1,-1)")),
            ("--steps", "-1", ("ivt", "--fn", "poly(-1,1)", "--c", "0")),
            ("--resolution", "\u00a03", ("envelope", "--fn", "poly(0,1)", "--output", "csv")),  # no-break space
        ],
    )
    def test_outside_the_grammar_is_two(self, capsys, option, value, rest):
        code, out, err = invoke(capsys, *rest, option, value)
        assert code == 2
        assert out == ""
        assert f"error: argument {option}: " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("delta", "--fn", "poly(\u0661,\u0662)", "--eps", "0.5"),
            ("bisect", "--fn", "poly(0,1)", "--target", "(-inf,\u0660)", "--steps", "3"),
            ("delta", "--fn", "poly(0,\u30001)", "--eps", "0.5", "--resolution", "64"),  # ideographic space
        ],
        ids=["spec", "target", "spec-space"],
    )
    def test_non_ascii_digits_are_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unrecognized character ")


def readme_commands() -> list[list[str]]:
    """The argv of every ``epsdelta`` line in README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("epsdelta ")]


class TestReadmeExamples:
    def test_every_command_documented(self):
        assert {argv[0] for argv in readme_commands()} == {argv[0] for argv in GOOD_COMMANDS}

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[0])
    def test_documented_command_succeeds(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out.endswith("\n")


class TestProcess:
    """``python -m epsdelta.cli`` in a process of its own: ``main`` and the
    module's ``__main__`` block, which the tests above do not reach."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (readme_commands()[0], 0),
            (["delta", "--fn", "chainsaw(", "--eps", "0.5"], 2),
            (["ivt", "--fn", "poly(0,1)", "--c", "5", "--steps", "3"], 1),
        ],
        ids=["readme", "parse-error", "no-answer"],
    )
    def test_exit_code_and_streams(self, capsys, argv, code):
        src = Path(__file__).resolve().parents[1] / "src"
        p = subprocess.run([sys.executable, "-m", "epsdelta.cli", *argv],
                           env=dict(os.environ, PYTHONPATH=str(src)),
                           capture_output=True, timeout=60)
        assert p.returncode == code, p.stderr
        if code == 0:
            assert p.stdout == invoke(capsys, *argv)[1].encode()
        else:
            assert p.stdout == b""
            assert b"error:" in p.stderr

    @pytest.mark.parametrize(
        "argv",
        GOOD_COMMANDS + [
            ("envelope", "--fn", "poly(0.1,1,-1)", "--resolution", "4096"),
            ("envelope", "--fn", "poly(0.1,1,-1)", "--resolution", "4096", "--output", "csv"),
        ],
        ids=[argv[0] for argv in GOOD_COMMANDS] + ["envelope-4096-json", "envelope-4096-csv"],
    )
    def test_every_command_prints_what_run_prints(self, capsys, argv):
        p = run_process("-m", "epsdelta.cli", *argv)
        code, out, _ = invoke(capsys, *argv)
        assert (p.returncode, p.stdout) == (code, out.encode())


# the modules a process running each command loads: the package, the
# parser and the emitters, and the modules of the command
STARTUP_MODULES = {"epsdelta", "epsdelta.cli", "epsdelta.errors", "epsdelta.functions",
                   "epsdelta.serialize"}


class TestStartupImports:
    """A CLI process loads its own command's modules and what ``import numpy``
    loads, nothing more (no ``numpy.ma`` through ``np.unique``)."""

    LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('epsdelta', 'numpy'))))")

    def loaded(self, code: str, *argv: str) -> set[str]:
        p = run_process("-c", f"{code}\n{self.LOADED}", *argv)
        assert p.returncode == 0, p.stderr
        return set(json.loads(p.stdout.decode().splitlines()[-1]))

    @pytest.fixture(scope="class")
    def numpy_alone(self) -> set[str]:
        return self.loaded("import numpy")

    # every command route, with its own modules
    ROUTES = {
        "delta": (["delta", "--fn", "chainsaw", "--eps", "0.3", "--resolution", "600"],
                  {"delta", "_kernels"}),
        "delta-closed-form": (["delta", "--fn", "power(alpha=2,b=1)", "--eps", "0.19",
                               "--closed-form"], {"delta", "_kernels"}),
        "delta-profile": (["delta-profile", "--fn", "chainsaw", "--eps", "0.5,0.25",
                           "--resolution", "512"], {"delta", "_kernels"}),
        "verify-delta": (["verify-delta", "--fn", "pwl((0,0),(1,1))", "--eps", "0.3",
                          "--delta", "0.2", "--resolution", "512"], {"delta", "_kernels"}),
        "modulus": (["modulus", "--fn", "pwl((0,0),(1,1))", "--delta", "0.25",
                     "--resolution", "1025"], {"delta", "_kernels"}),
        "maximize-json": (["maximize", "--fn", "poly(0,1,-1)", "--level", "6",
                           "--resolution", "512"], {"extremum", "_kernels"}),
        "maximize-csv": (["maximize", "--fn", "poly(0,1,-1)", "--level", "6",
                          "--resolution", "512", "--output", "csv"], {"extremum", "_kernels"}),
        "envelope": (["envelope", "--fn", "poly(0,1,-1)", "--resolution", "4096"],
                     {"extremum"}),
        "bisect": (["bisect", "--fn", "poly(-1,0,3)", "--target", "(-inf,0)", "--steps", "20"],
                   {"intermediate"}),
        "ivt": (["ivt", "--fn", "poly(0,0,0,1)", "--lo", "0", "--hi", "2", "--c", "2",
                 "--steps", "10"], {"intermediate"}),
        "fixpoint": (["fixpoint", "--fn", "expr(cos(x),lo=0,hi=1)", "--steps", "10"],
                     {"intermediate", "extremum"}),
    }

    @pytest.mark.parametrize("argv, modules", ROUTES.values(), ids=ROUTES)
    def test_command_loads_only_its_modules(self, numpy_alone, argv, modules):
        run_cli = ("import sys\nfrom epsdelta import cli\n"
                   "assert cli.run(sys.argv[1:]) == 0")
        loaded = self.loaded(run_cli, *argv)
        assert {m for m in loaded if m.startswith("epsdelta")} == STARTUP_MODULES | {
            f"epsdelta.{m}" for m in modules}
        assert {m for m in loaded if not m.startswith("epsdelta")} <= numpy_alone


class TestDomainFlags:
    @pytest.mark.parametrize(
        "flag, value, rest",
        [
            ("--lo", "-1e3", ("--hi", "1", "--c", "0.5")),
            ("--lo", "-.5e2", ("--hi", "1", "--c", "0.5")),
            ("--c", "-2.5e-1", ("--lo", "-1", "--hi", "1")),
            ("--c", "-2.5E-1", ("--lo", "-1", "--hi", "1")),
        ],
    )
    def test_negative_exponent_values(self, capsys, flag, value, rest):
        base = ("ivt", "--fn", "poly(0,1)", *rest, "--steps", "3")
        code, out, err = invoke(capsys, *base, flag, value)
        assert code == 0, err
        assert (code, out, err) == invoke(capsys, *base, f"{flag}={value}")

    def test_poly_domain_override(self, capsys):
        code, out, _ = invoke(
            capsys, "envelope", "--fn", "poly(0,1)", "--lo", "-1", "--hi", "3",
            "--resolution", "5", "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "-1,-1"
        assert out.splitlines()[-1] == "3,3"
