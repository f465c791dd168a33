import argparse
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cantorlike import cli as cli_module
from cantorlike.cli import main
from cantorlike.counterexample import tail_table_csv, tail_table_rows
from cantorlike.exact import _digit_limit
from cantorlike.families import (_FAMILY_FIELDS, DigitSet, LambdaFamily, Power, Proportional, family_to_json,
                                 moran_row)
from cantorlike.sets import IntervalSet, iterate
from cantorlike.render import render_svg
from fractions import Fraction as F


class WriteLog:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def run(capsys, *argv):
    code = 0
    try:
        main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_json_stage_one(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "proportional",
                           "--alpha", "1/3", "--depth", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"a": "0/1", "b": "1/3"}, {"a": "2/3", "b": "1/1"}]

    def test_json_round_trips_to_interval_set(self, capsys):
        _, out, _ = run(capsys, "generate", "--family", "power", "--n", "4", "--depth", "3")
        assert IntervalSet.from_json(json.loads(out)) == iterate(__import__("cantorlike").Power(4), 3)

    def test_csv_depth_zero(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "power", "--n", "4",
                           "--depth", "0", "--format", "csv")
        assert code == 0
        assert out == "0/1,1/1\n"

    def test_csv_digit_family(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "digit", "--n", "5",
                           "--digits", "0,2,4", "--depth", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0] == "0/1,1/25"

    def test_decimal_flag_adds_columns(self, capsys):
        _, out, _ = run(capsys, "generate", "--family", "proportional", "--alpha", "1/2",
                        "--depth", "1", "--format", "csv", "--decimal")
        assert out.splitlines()[0] == "0/1,1/4,0,0.25"

    def test_family_json_escape_hatch(self, capsys):
        code, out, _ = run(capsys, "generate",
                           "--family-json", '{"family":"digit","n":5,"digits":[0,1,4]}',
                           "--depth", "1", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines() == ["0/1,2/5", "4/5,1/1"]

    def test_invalid_family_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "--family", "proportional",
                             "--alpha", "5/3", "--depth", "1")
        assert code == 2
        assert out == ""
        assert "invalid family" in err

    def test_depth_over_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "proportional",
                           "--alpha", "1/3", "--depth", "30")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    def test_negative_depth_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "generate", "--family", "power", "--n", "4",
                             "--depth", "-1", "--format", fmt)
        assert (code, out, err) == (2, "", "--depth must be >= 0, got -1\n")

    @pytest.mark.parametrize("flag", ["--width", "--row-height"])
    def test_svg_nonpositive_pixels_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "generate", "--family", "power", "--n", "4",
                             "--depth", "2", "--format", "svg", flag, "0")
        assert (code, out, err) == (2, "", f"{flag} must be >= 1, got 0\n")

    def test_svg_depth_over_cap_exits_3(self, capsys):
        code, out, err = run(capsys, "generate", "--family", "power", "--n", "4",
                             "--depth", "25", "--format", "svg")
        assert (code, out, err) == (3, "", "stage 25 exceeds depth cap 24\n")

    @pytest.mark.parametrize(
        "spec",
        [
            "[]",
            '{"family":"proportional","alpha":[1]}',
            '{"family":"proportional","alpha":0.1}',
            '{"family":"power","n":4.7}',
            '{"family":"power","n":true}',
            '{"family":"digit","n":5,"digits":"014"}',
            '{"family":"power","n":4,"n":5}',
            '{"family":"digit","n":4,"family":"power"}',
            '{"family":"power","n":4,"n":4}',
        ],
    )
    def test_inexact_family_json_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "generate", "--family-json", spec, "--depth", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("invalid family: ")

    def test_family_json_missing_field_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "--family-json", '{"family": "power"}', "--depth", "1")
        assert (code, out) == (2, "")
        assert err == "invalid family: family JSON has no 'n' key: {'family': 'power'}\n"

    def test_svg_deterministic(self, capsys):
        args = ("generate", "--family", "proportional", "--alpha", "1/3",
                "--depth", "4", "--format", "svg")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.startswith("<svg ")
        assert first.count("<rect") == 1 + 2 + 4 + 8 + 16

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_go_out_in_bounded_chunks(self, monkeypatch, fmt):
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert main(["generate", "--family", "power", "--n", "4", "--depth", "13",
                     "--format", fmt]) == 0
        text = "".join(log.writes)
        rows = json.loads(text) if fmt == "json" else text.splitlines()
        assert len(rows) == 2**13
        assert 3 <= len(log.writes) < 10  # 8192 rows in chunks of 4096, not one write per row

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("flags", [("--depth", "1", "--format", "csv"),
                                       ("--depth", "1", "--format", "json", "--decimal"),
                                       ("--depth", "3", "--format", "json")])
    def test_stage_too_large_to_print_exits_2_before_any_output(self, capsys, flags):
        # The stage denominators of lambda 1e-4400 have over 4300 digits: the
        # row template (depth 1) or the first block's rows (depth 3) are
        # refused before the JSON writer's "[".
        code, out, err = run(capsys, "generate", "--family", "lambda", "--lambda", "1e-4400",
                             *flags)
        assert (code, out) == (2, "")
        assert err == (f"result too large to print: an integer has over {_digit_limit()} digits "
                       "(sys.get_int_max_str_digits())\n")


class TestAnalyze:
    def test_volterra_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "power", "--n", "4", "--kmax", "3")
        report = json.loads(out)
        assert code == 0
        assert report["limit_measure"] == "1/2"
        seq = report["dimension_estimates"]["sequence"]
        assert seq[0][0] == 1
        assert seq[0][1] == pytest.approx(0.706695, abs=1e-6)

    def test_lambda_report(self, capsys):
        _, out, _ = run(capsys, "analyze", "--family", "lambda", "--lambda", "1/2")
        report = json.loads(out)
        assert report["limit_measure"] == "1/2"
        assert report["similarity_dimension"]["kind"] == "estimate_sequence"

    def test_proportional_half_dimension(self, capsys):
        _, out, _ = run(capsys, "analyze", "--family", "proportional", "--alpha", "1/2")
        report = json.loads(out)
        assert report["similarity_dimension"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert report["similarity_dimension"]["kind"] == "exact_similarity"

    def test_power_two_report_has_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "power", "--n", "2", "--depth", "3")
        report = json.loads(out)
        assert code == 0
        assert report["measure_at_depth"] == "0/1"
        assert "dimension_note" in report

    def test_power_two_collapse_report_golden(self, capsys):
        # The whole report, which has no floats: four points of length 0 from stage 2 on.
        assert run(capsys, "analyze", "--family", "power", "--n", "2", "--depth", "3") == (0, (
            '{"family": {"family": "power", "n": 2}, "depth": 3, "measure_at_depth": "0/1", '
            '"limit_measure": "0/1", "level_stats": {"count": 4, "min_length": "0/1", '
            '"max_length": "0/1"}, "dimension_note": "power n=2 collapses to finitely many points; '
            'no dimension"}\n'), "")

    @pytest.mark.parametrize("flags", [("--depth", "-1"), ("--kmax", "0"), ("--kmax", "-3")])
    def test_out_of_range_argument_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "analyze", "--family", "power", "--n", "4", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and f"{flags[0]} must be >=" in err

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("flags, depth", [(("--family", "power", "--n", "4", "--depth", "8000"), 8000),
                                              (("--family", "lambda", "--lambda", "1e-4400"), 8)])
    def test_result_too_large_to_print_exits_2(self, capsys, flags, depth):
        code, out, err = run(capsys, "analyze", *flags)
        assert (code, out) == (2, "")
        assert err == (f"result too large to print: the stage-{depth} length has over {_digit_limit()} "
                       "digits (sys.get_int_max_str_digits())\n")

    def test_depth_2000_still_answers(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "power", "--n", "4",
                           "--depth", "2000", "--kmax", "3")
        assert code == 0 and json.loads(out)["depth"] == 2000

    def test_measure_decimal_matches_exact_measure(self, capsys):
        _, out, _ = run(capsys, "analyze", "--family", "power", "--n", "4", "--depth", "2",
                        "--decimal")
        report = json.loads(out)
        assert report["measure_at_depth"] == "5/8"
        assert report["measure_at_depth_decimal"] == "0.625"


class TestMember:
    def test_limit_membership_with_witness(self, capsys):
        code, out, _ = run(capsys, "member", "--x", "1/4", "--family", "digit",
                           "--n", "3", "--digits", "0,2", "--limit")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "true"
        witness = json.loads(lines[1].removeprefix("witness: "))
        assert witness == {"base": 3, "preperiod": [], "period": [0, 2]}

    def test_depth_membership_false(self, capsys):
        code, out, _ = run(capsys, "member", "--x", "1/2", "--family", "proportional",
                           "--alpha", "1/3", "--depth", "1")
        assert code == 0
        assert out.strip() == "false"

    def test_volterra_stage_two(self, capsys):
        code, out, _ = run(capsys, "member", "--x", "7/32", "--family", "power",
                           "--n", "4", "--depth", "2")
        assert out.strip() == "true"

    def test_limit_via_digit_equivalent(self, capsys):
        code, out, _ = run(capsys, "member", "--x", "1/4", "--family", "proportional",
                           "--alpha", "1/3", "--limit")
        assert code == 0
        assert out.strip().splitlines()[0] == "true"

    @pytest.mark.parametrize("flags", [("--limit", "--depth", "5"), ("--depth", "5", "--limit")])
    def test_depth_with_limit_exits_2(self, capsys, flags):
        # --limit decides the limit set, so a --depth beside it went unanswered.
        code, out, err = run(capsys, "member", "--family", "digit", "--n", "3", "--digits", "0,2",
                             "--x", "1/4", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.count("error: ") == 1
        assert " not allowed with argument --" in err.splitlines()[-1]

    def test_limit_without_digit_form_exits_4(self, capsys):
        code, _, err = run(capsys, "member", "--x", "1/4", "--family", "power",
                           "--n", "4", "--limit")
        assert code == 4
        assert "digit" in err

    @pytest.mark.parametrize("flags", [("power", "--n", "3"), ("lambda", "--lambda", "1")],
                             ids=["power-3", "lambda-1"])
    def test_limit_reads_the_ternary_digit_form_of_middle_thirds_removals(self, capsys, flags):
        # Power(3) and Lambda(1) remove the middle third of every interval; they
        # exited 4 when only r = 0 rows were read as self-similar.
        code, out, err = run(capsys, "member", "--x", "1/4", "--family", *flags, "--limit")
        assert (code, out, err) == (0, 'true\nwitness: {"base": 3, "preperiod": [], "period": [0, 2]}\n', "")

    def test_malformed_rational_exits_2(self, capsys):
        code, _, _ = run(capsys, "member", "--x", "pi/4", "--family", "proportional",
                         "--alpha", "1/3", "--depth", "2")
        assert code == 2

    def test_negative_depth_exits_2(self, capsys):
        code, out, err = run(capsys, "member", "--x", "1/4", "--family", "proportional",
                             "--alpha", "1/3", "--depth", "-1")
        assert code == 2
        assert out == ""
        assert err == "--depth must be >= 0, got -1\n"

    @pytest.mark.parametrize("flags", [
        ("--x", "1e-3000000", "--family", "power", "--n", "4"),
        ("--x", "1/4", "--family", "lambda", "--lambda", "1E-1_000_000"),
    ])
    def test_huge_decimal_exponent_exits_2_at_once(self, capsys, flags):
        start = time.perf_counter()
        code, out, err = run(capsys, "member", *flags, "--depth", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "exceeds 100000" in err


class TestExpansion:
    def test_ternary_quarter(self, capsys):
        code, out, _ = run(capsys, "expansion", "--x", "1/4", "--base", "3")
        obj = json.loads(out)
        assert code == 0
        assert obj["base"] == 3 and obj["preperiod"] == [] and obj["period"] == [0, 2]

    def test_terminating_reports_alternate(self, capsys):
        _, out, _ = run(capsys, "expansion", "--x", "1/3", "--base", "3")
        obj = json.loads(out)
        assert obj["preperiod"] == [1] and obj["period"] == []
        assert obj["alternate_tail"] == {"base": 3, "preperiod": [0], "period": [2]}

    @pytest.mark.parametrize("base", ["0", "1", "-5"])
    def test_base_below_two_exits_2(self, capsys, base):
        code, out, err = run(capsys, "expansion", "--x", "1/4", "--base", base)
        assert code == 2
        assert out == ""
        assert err == f"--base must be >= 2, got {base}\n"


class TestCantorFn:
    def test_pinned_value(self, capsys):
        code, out, _ = run(capsys, "cantor-fn", "--x", "1/4")
        assert code == 0
        assert out.strip() == "1/3"

    def test_non_member_fails(self, capsys):
        code, _, err = run(capsys, "cantor-fn", "--x", "1/2")
        assert code == 1
        assert "Cantor" in err

    def test_non_member_with_a_huge_period_fails_at_once(self, capsys):
        # The ternary period of 1/1000000007 can run to 10^9 digits; the
        # verdict must come from the first digit 1, not the whole expansion.
        start = time.perf_counter()
        code, out, err = run(capsys, "cantor-fn", "--x", "1/1000000007")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", "1/1000000007 is not in the ternary Cantor set\n")


class TestCounterexample:
    def test_default_volterra_table(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--n-max", "7")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,sum_removed,tail,tail_decimal"
        assert lines[1] == "0,0/1,1/2,0.5"
        assert lines[2].split(",")[2] == "1/4"
        assert lines[8].split(",")[2] == "1/16"  # end of generation 3

    def test_negative_n_max_exits_2(self, capsys):
        code, out, err = run(capsys, "counterexample", "--n-max", "-1")
        assert (code, out, err) == (2, "", "--n-max must be >= 0, got -1\n")

    def test_rows_go_out_in_bounded_chunks(self, monkeypatch):
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert main(["counterexample", "--n-max", "10000"]) == 0
        assert "".join(log.writes) == tail_table_csv(Power(4), 10000)
        assert 3 <= len(log.writes) < 10  # 10,002 lines in chunks of 4096, not one write per row


class TestRender:
    def test_svg_goes_out_in_bounded_slices(self, monkeypatch):
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert main(["render", "--family", "power", "--n", "4", "--depth", "14"]) == 0
        assert "".join(log.writes) == render_svg(Power(4), 14)
        assert max(text.count("<rect") for text in log.writes) <= 4096
        assert len(log.writes) >= 8  # 32,767 rects, not one write for the document

    def test_deterministic_and_sized(self, capsys):
        args = ("render", "--family", "power", "--n", "4", "--depth", "3",
                "--width", "400", "--row-height", "20")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert 'width="400"' in first and 'height="80"' in first

    @pytest.mark.parametrize("flags", [("--depth", "-1"), ("--width", "0"), ("--row-height", "0"),
                                       ("--width", "-3")])
    def test_out_of_range_argument_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "render", "--family", "power", "--n", "4", *flags)
        assert code == 2
        assert out == ""
        assert err == f"{flags[0]} must be >= {0 if flags[0] == '--depth' else 1}, got {flags[1]}\n"

    def test_depth_over_cap_exits_3(self, capsys):
        code, out, err = run(capsys, "render", "--family", "power", "--n", "4",
                             "--depth", "25")
        assert (code, out, err) == (3, "", "stage 25 exceeds depth cap 24\n")

    def test_depth_over_cap_builds_no_stage(self, capsys, monkeypatch):
        from cantorlike import sets

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage was built before the cap check")

        monkeypatch.setattr(sets, "iterate", no_stage)
        code, out, err = run(capsys, "render", "--family", "power", "--n", "4", "--depth", "30")
        assert (code, out, err) == (3, "", "stage 30 exceeds depth cap 24\n")


def src_env(**extra):
    """os.environ with this checkout's src/ first on PYTHONPATH, and ``extra``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))), **extra)


def launch(*argv, code=""):
    """Run the CLI as a subprocess, after ``code`` in the same interpreter;
    return its exit code, stdout and stderr."""
    program = f"{code}\nimport sys\nfrom cantorlike.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# The counterexample tables of the benchmark's removal-tails workload, with
# their recorded exit code and stdout sha256.
RECORDED_TAILS = {key: value for key, value in json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()).items()
    if key.startswith("cli counterexample ")}


def usage(*command):
    """The usage text that argparse prints for ``cantorlike *command``, wrapped
    to the width of this terminal as the CLI's own errors are."""
    parser = cli_module.build_parser()
    if command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command[0]]
    return parser.format_usage()


class TestCaps:
    # Uncapped, each request below runs for seconds to hours.

    @pytest.mark.parametrize("argv", [
        ("generate", "--format", "csv"), ("generate", "--format", "svg"), ("render",)])
    def test_stage_over_the_size_cap_exits_3(self, argv):
        code, out, err = launch(*argv, "--family", "lambda", "--lambda", "1e-200",
                                "--depth", "16")
        assert (code, out) == (3, "")
        assert err == "stage 16 exceeds the stage size cap of 134217728 (intervals x denominator bits)\n"

    def test_a_tail_table_over_the_size_cap_exits_3_before_any_row(self, capsys, monkeypatch):
        # Uncapped, the table streamed rows until it was killed (1,024,000 rows in 3 s).
        def refuse(text):
            raise AssertionError(f"counterexample wrote {text[:40]!r} before its refusal")

        monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=refuse, flush=lambda: None))
        code, _, err = run(capsys, "counterexample", "--n-max", "1000000000000")
        assert (code, err) == (3, "the tail table to n = 1000000000000 exceeds the table size cap of "
                                  "134217728 (rows x cell bits)\n")

    def test_a_tail_table_is_charged_its_reduced_cells(self, capsys):
        # The gcds cancel 10^100 factors from each generation's denominator: the
        # rows x cell bits of this table are under the cap, whose unreduced bound
        # tq * D_j refused it.
        code, out, err = run(capsys, "counterexample", "--family", "lambda", "--lambda", "1e-100",
                             "--n-max", "25068")
        assert (code, err) == (0, "")
        assert out.count("\n") == 25070
        # Lambda(1e-4000) to n = 1000: a 146,191-bit bound a row, against 13,304
        # bits for the widest cell printed. Its header comes at once (no cell can
        # pass the digit limit); a table far past the cap is still refused first.
        assert next(tail_table_rows(LambdaFamily(F(1, 10**4000)), 1000)) == "n,sum_removed,tail,tail_decimal"
        code, out, err = run(capsys, "counterexample", "--family", "lambda", "--lambda", "1e-4000",
                             "--n-max", "1000000000000")
        assert (code, out, err) == (3, "", "the tail table to n = 1000000000000 exceeds the table size cap "
                                           "of 134217728 (rows x cell bits)\n")

    def test_a_big_parameter_tail_table_keeps_its_bytes(self, capsys):
        # Each generation is carried divided by its gcd; the rows are the bytes
        # formatted from the unreduced prefix sums, as recorded before that change.
        code, out, err = run(capsys, "counterexample", "--family", "lambda", "--lambda", "1e-400",
                             "--n-max", "300")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2892a3f82d5540e4c4875304ea2f2fa8b507ebade0f25475ac1b1c0abf296970")

    @pytest.mark.parametrize("argv", [key.split()[1:] for key in RECORDED_TAILS],
                             ids=[key.split()[3] for key in RECORDED_TAILS])
    def test_the_benchmark_tail_tables_keep_their_recorded_bytes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        recorded = RECORDED_TAILS[" ".join(("cli", *argv))]
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == recorded
        assert err == ""

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("n", [10**320, 10**340], ids=["1e320", "1e340"])
    def test_a_tail_table_too_large_to_print_exits_2_before_any_row(self, capsys, n):
        # Generation 13 of Power(10^320) is the first with cells over 4300 digits:
        # the table used to write its first 4,096-row chunk (rows 0..4094 and the
        # header) before the exit. With 10^340 the first chunk already failed.
        code, out, err = run(capsys, "counterexample", "--family", "power", "--n", str(n),
                             "--n-max", "5000")
        assert (code, out) == (2, "")
        assert err == (f"result too large to print: an integer has over {_digit_limit()} digits "
                       "(sys.get_int_max_str_digits())\n")

    def test_stage_at_the_parse_limit_exits_3(self, capsys):
        # Refused off the Moran row, before any step of the length recurrence.
        code, out, err = run(capsys, "generate", "--family", "lambda", "--lambda", "1e-100000",
                             "--depth", "20")
        assert (code, out) == (3, "")
        assert err == "stage 20 exceeds the stage size cap of 134217728 (intervals x denominator bits)\n"

    def test_period_over_the_work_cap_exits_3(self):
        # 10^100000 has 332,193 bits and no factor 3, so the work cap allows
        # 2^32 // 332193 = 12,929 digits of its ternary period; before that cap
        # the launch ran 10.3 s to the 10^6-digit cap.
        code, out, err = launch("expansion", "--x", "1e-100000", "--base", "3")
        assert (code, out, err) == (3, "", "the base-3 period exceeds the period work cap of 4294967296 "
                                           "(digits x denominator bits): over 12929 digits of a "
                                           "332193-bit denominator\n")

    def test_a_points_leading_zeros_are_free_of_the_period_work_cap(self):
        # 1e-26000's first nonzero ternary digit is its 54,494th, past the
        # 49,726 digits that the work cap allows its 86,371-bit q': charged
        # for its zeros, it exited 3 before reading that digit, a 1.
        assert 3**54_493 < 10**26_000 <= 3**54_494 < 2 * 10**26_000
        code, out, err = launch("cantor-fn", "--x", "1e-26000")
        assert (code, out) == (1, "") and err.endswith(" is not in the ternary Cantor set\n")

    def test_period_over_the_cap_exits_3(self):
        # The ternary period of 1/1000000007 is 500000003 digits long.
        code, out, err = launch("expansion", "--x", "1/1000000007", "--base", "3")
        assert (code, out, err) == (3, "", "the base-3 period exceeds the period cap of 1000000 digits\n")

    @pytest.mark.parametrize("argv", [
        ("cantor-fn",), ("member", "--family", "digit", "--n", "3", "--digits", "0,2", "--limit")])
    def test_member_with_a_period_over_the_cap_exits_3(self, argv):
        # A ternary-set member with period 101 beside a cap of 100 digits: no
        # member reaches the real cap with an --x short enough for a command line.
        x = f"2/{3**101 - 1}"
        lowered = "import cantorlike.analysis as a; a.MAX_PERIOD_DIGITS = {}"
        assert launch(*argv, "--x", x, code=lowered.format(101))[0] == 0
        code, out, err = launch(*argv, "--x", x, code=lowered.format(100))
        assert (code, out, err) == (3, "", "the base-3 period exceeds the period cap of 100 digits\n")

    @pytest.mark.parametrize("argv, steps, bits", [
        (("member", "--family", "proportional", "--alpha", "1e-1000", "--x", "1/3",
          "--depth", "2000"), 2000, 6_646_002),
        (("analyze", "--family", "lambda", "--lambda", "1e-1000", "--depth", "10",
          "--kmax", "200"), 200, 665_001),
    ])
    def test_walk_over_the_bits_cap_exits_3(self, capsys, argv, steps, bits):
        # Uncapped, these walked the length recurrence for 76 s and 2.2 s.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"a walk of {steps} steps may reach {bits}-bit integers, "
                       "over the walk cap of 16384 bits\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    def test_stage_length_too_large_to_print_exits_2_before_it_is_computed(self, capsys,
                                                                          monkeypatch):
        # (1e-1000 / 2)^2000 used to take 1.9 s in level_stats before the same exit 2.
        def forbidden(*args, **kwargs):
            raise AssertionError("analyze computed a length it cannot print")

        monkeypatch.setattr(cli_module, "level_stats", forbidden)
        monkeypatch.setattr(cli_module, "measure_at_depth", forbidden)
        code, out, err = run(capsys, "analyze", "--family", "proportional", "--alpha", "1e-1000",
                             "--depth", "2000")
        assert (code, out) == (2, "")
        assert err == (f"result too large to print: the stage-2000 length has over {_digit_limit()} "
                       "digits (sys.get_int_max_str_digits())\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("alpha", ["1/3", "1/2", "7/1000003", "999999/1000003"])
    def test_length_guard_refuses_only_what_cannot_be_printed(self, capsys, alpha):
        # The stage-k length is (c/s)^k, whose denominator is t^k. The first
        # depth refused is the first whose t^k has more digits than Python
        # converts, and the depth before it is printed.
        row = moran_row(Proportional(F(alpha)))
        t, limit = row.s // math.gcd(row.c, row.s), sys.get_int_max_str_digits()
        k = math.ceil(limit / math.log10(t))
        assert t ** (k - 1) < 10**limit <= t**k
        code, out, err = run(capsys, "analyze", "--family", "proportional", "--alpha", alpha,
                             "--depth", str(k), "--kmax", "1")
        assert (code, out, err) == (2, "", f"result too large to print: the stage-{k} length has "
                                           f"over {limit} digits (sys.get_int_max_str_digits())\n")
        code, out, err = run(capsys, "analyze", "--family", "proportional", "--alpha", alpha,
                             "--depth", str(k - 1), "--kmax", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["level_stats"]["min_length"].endswith(f"/{t ** (k - 1)}")

    # The count m^j of a Power or Lambda row (m = 2) is printed at any depth;
    # unguarded, Power(4) at depth 10^6 spent 11 s in level_stats before the
    # same exit 2.
    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("family, what", [(Power(4), "count"), (LambdaFamily(F(1, 2)), "count"),
                                              (DigitSet(5, (0, 1, 4)), "length")], ids=repr)
    def test_stage_count_too_large_to_print_exits_2_before_it_is_computed(self, capsys,
                                                                         monkeypatch, family, what):
        def forbidden(*args, **kwargs):
            raise AssertionError("analyze computed a count it cannot print")

        monkeypatch.setattr(cli_module, "level_stats", forbidden)
        monkeypatch.setattr(cli_module, "measure_at_depth", forbidden)
        code, out, err = run(capsys, "analyze", "--family-json", json.dumps(family_to_json(family)),
                             "--depth", "10000000")
        assert (code, out) == (2, "")
        assert err == (f"result too large to print: the stage-10000000 {what} has over "
                       f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("family", [Power(3), Power(4), LambdaFamily(F(1, 2)),
                                        LambdaFamily(F(1))], ids=repr)
    def test_count_guard_refuses_only_what_cannot_be_printed(self, capsys, family):
        # The first depth the count guard refuses has a count m^k with more
        # digits than Python converts. The depth before it passes the guard,
        # and is refused by the exact check of the stage length, whose
        # denominator is at least the count (m^k L_k, the measure, is at most 1).
        m, limit = moran_row(family).m, sys.get_int_max_str_digits()
        k = int(3.33 * limit / (m.bit_length() - 1)) + 1
        assert m**k >= 10**limit
        spec = json.dumps(family_to_json(family))
        for depth, what in ((k, "count"), (k - 1, "length")):
            code, out, err = run(capsys, "analyze", "--family-json", spec, "--depth", str(depth),
                                 "--kmax", "1")
            assert (code, out, err) == (2, "", f"result too large to print: the stage-{depth} {what} "
                                               f"has over {limit} digits (sys.get_int_max_str_digits())\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("argv", [
        ("--family", "lambda", "--lambda", "1/2", "--depth", "9000"),
        ("--family", "power", "--n", "4", "--depth", "8000")], ids=["lambda", "power"])
    def test_a_length_past_the_bit_guard_and_too_long_to_print_gets_the_guards_line(self, capsys,
                                                                                   argv):
        # _length_bits is a floor: these lengths pass it, and the interpreter's
        # "Exceeds the limit" error used to be the message.
        code, out, err = run(capsys, "analyze", *argv, "--kmax", "1")
        limit = sys.get_int_max_str_digits()
        assert (code, out, err) == (2, "", f"result too large to print: the stage-{argv[-1]} length "
                                           f"has over {limit} digits (sys.get_int_max_str_digits())\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter prints integers of any length")
    @pytest.mark.parametrize("argv, code, message", [
        (("cantor-fn", "--x", "1e-4400"), 1, "{} is not in the ternary Cantor set"),
        (("analyze", "--family", "proportional", "--alpha", "1e4400"), 2,
         "invalid family: proportional removal must satisfy 0 < alpha < 1, got {}"),
        (("analyze", "--family", "lambda", "--lambda", "2e4400"), 2,
         "invalid family: lambda family needs 0 < lambda <= 1, got {}"),
    ], ids=["cantor-fn", "proportional", "lambda"])
    def test_a_value_too_large_to_print_is_described_in_its_message(self, capsys, argv, code,
                                                                     message):
        # str() of these values raises, and its error used to replace the message.
        shown = f"a rational of over {sys.get_int_max_str_digits()} digits"
        assert run(capsys, *argv) == (code, "", message.format(shown) + "\n")

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter reads integers of any length")
    @pytest.mark.parametrize("text, argv, prefix", [
        ("1" + "0" * 4400 + "/1", ("analyze", "--family", "proportional", "--alpha", "{}"),
         "invalid family: "),
        ("1/3" + "0" * 4400, ("member", "--family", "proportional", "--alpha", "1/3", "--x", "{}",
                              "--depth", "3"), ""),
        ("1" + "0" * 4400 + "/3", ("analyze", "--family-json",
                                   '{{"family": "proportional", "alpha": "{}"}}'), "invalid family: "),
    ], ids=["alpha", "x", "family-json"])
    def test_a_well_formed_rational_past_the_digit_limit_is_named_not_malformed(self, capsys, text,
                                                                              argv, prefix):
        # Fraction(text) raises int()'s digit-limit error; it used to be
        # reported as a malformed rational, echoing every digit.
        argv = [arg.format(text) for arg in argv]
        limit = sys.get_int_max_str_digits()
        message = (f"{prefix}rational {text[:40]!r} has a run of over {limit} digits, "
                   f"the limit of sys.get_int_max_str_digits()\n")
        assert run(capsys, *argv) == (2, "", message)

    @pytest.mark.skipif(not _digit_limit(),
                        reason="this interpreter reads integers of any length")
    @pytest.mark.parametrize("argv, line", [
        (("analyze", "--family", "power", "--n", "{}"), "cantorlike analyze: error: argument --n: {}"),
        (("generate", "--family", "power", "--n", "4", "--depth", "{}"),
         "cantorlike generate: error: argument --depth: {}"),
        (("analyze", "--family", "power", "--n", "4", "--kmax", "{}"),
         "cantorlike analyze: error: argument --kmax: {}"),
        (("expansion", "--x", "1/3", "--base", "{}"), "cantorlike expansion: error: argument --base: {}"),
        (("counterexample", "--n-max", "{}"), "cantorlike counterexample: error: argument --n-max: {}"),
        (("generate", "--family", "power", "--n", "4", "--depth", "1", "--format", "svg", "--width", "{}"),
         "cantorlike generate: error: argument --width: {}"),
        (("render", "--family", "power", "--n", "4", "--row-height", "{}"),
         "cantorlike render: error: argument --row-height: {}"),
        (("analyze", "--family", "digit", "--n", "5", "--digits", "0,{},4"), "invalid family: {}"),
        (("analyze", "--family-json", '{{"family": "power", "n": {}}}'), "invalid family: {}"),
    ], ids=["n", "depth", "kmax", "base", "n-max", "width", "row-height", "digits", "family-json"])
    def test_an_integer_reader_names_the_digit_limit_or_calls_its_input_invalid(self, capsys, argv,
                                                                                line):
        # int() raises its digit-limit error, which a flag used to report as an
        # invalid int value and a --digits entry or JSON number in the
        # interpreter's own words. exact._read_int reads all of them.
        limit = _digit_limit()
        over, bad = "1" * (limit + 700), "1" * limit + "x"
        code, out, err = run(capsys, *(arg.format(over) for arg in argv))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == line.format(
            f"int value {over[:40]!r} has a run of over {limit} digits, the limit of "
            "sys.get_int_max_str_digits()")
        code, out, err = run(capsys, *(arg.format(bad) for arg in argv))
        assert (code, out) == (2, "")
        if "--family-json" in argv:  # a JSON number is whole digits: the document is malformed
            assert err == f"invalid family: malformed family JSON {argv[-1].format(bad)[:40]!r}\n"
        else:
            assert err.splitlines()[-1] == line.format(f"invalid int value: {bad[:40]!r}")

    @pytest.mark.parametrize("argv, code, message", [
        (("member", "--family", "proportional", "--alpha", "1/3", "--depth", "2",
          "--x", "1/3" + "x" * 4997), 2, "malformed rational '1/3" + "x" * 37 + "'"),
        (("member", "--family", "proportional", "--alpha", "1/3", "--depth", "2",
          "--x", "2" + "0" * 4000), 2, "x must lie in [0,1], got 2" + "0" * 39),
        (("analyze", "--family", "power", "--n", "4", "--depth", "-1" + "0" * 4000), 2,
         "--depth must be >= 0, got -1" + "0" * 38),
        (("analyze", "--family-json", json.dumps([0] * 3000)), 2,
         "invalid family: family JSON must be an object, got [" + "0, " * 13),
        (("analyze", "--family-json", json.dumps({"family": "power", "extra": "x" * 3000})), 2,
         "invalid family: family JSON has no 'n' key: {'family': 'power', 'extra': '" + "x" * 10),
        (("analyze", "--family-json", json.dumps({"family": "power", "n": "x" * 3000})), 2,
         "invalid family: n must be an integer or a 'p/q' string, got '" + "x" * 40 + "'"),
        (("analyze", "--family-json", json.dumps({"family": "power", "n": "1/" + "3" * 3000})), 2,
         "invalid family: n must be an integer, got '1/" + "3" * 38 + "'"),
        (("analyze", "--family-json", json.dumps({"family": "x" * 3000})), 2,
         "invalid family: unknown family kind: '" + "x" * 40 + "'"),
        (("analyze", "--family-json", json.dumps({"family": "x" * 40})), 2,
         "invalid family: unknown family kind: '" + "x" * 40 + "'"),
        (("analyze", "--family", "proportional", "--alpha", "2" + "0" * 4000), 2,
         "invalid family: proportional removal must satisfy 0 < alpha < 1, got 2" + "0" * 39),
        (("analyze", "--family", "lambda", "--lambda", "2" + "0" * 4000), 2,
         "invalid family: lambda family needs 0 < lambda <= 1, got 2" + "0" * 39),
        (("analyze", "--family", "power", "--n", "-1" + "0" * 4000), 2,
         "invalid family: power construction needs n >= 2, got -1" + "0" * 38),
        (("analyze", "--family", "digit", "--n", "-1" + "0" * 4000, "--digits", "0,2"), 2,
         "invalid family: digit construction needs base n >= 3, got -1" + "0" * 38),
        (("analyze", "--family", "digit", "--n", "1" + "0" * 4000, "--digits", "0,0"), 2,
         "invalid family: digits must be distinct values in 0.." + "9" * 40),
        (("generate", "--family", "power", "--n", "4", "--depth", "1" + "0" * 4000), 3,
         "stage 1" + "0" * 39 + " exceeds depth cap 24"),
        (("render", "--family", "power", "--n", "4", "--depth", "1" + "0" * 4000), 3,
         "stage 1" + "0" * 39 + " exceeds depth cap 24"),
        (("member", "--family", "power", "--n", "4", "--x", "1/3", "--depth", "1" + "0" * 4000), 3,
         "a walk of 1" + "0" * 39 + " steps may reach 4" + "0" * 39
         + "-bit integers, over the walk cap of 16384 bits"),
        (("analyze", "--family", "power", "--n", "4", "--kmax", "1" + "0" * 4000), 3,
         "a walk of 1" + "0" * 39 + " steps may reach 4" + "0" * 39
         + "-bit integers, over the walk cap of 16384 bits"),
        pytest.param(
            ("analyze", "--family", "lambda", "--lambda", "1/2", "--depth", "1" + "0" * 4000), 2,
            "result too large to print: the stage-1" + "0" * 39 + " count has over "
            f"{getattr(sys, 'get_int_max_str_digits', int)()} digits (sys.get_int_max_str_digits())",
            marks=pytest.mark.skipif(not _digit_limit(),
                                     reason="this interpreter prints integers of any length")),
        (("expansion", "--x", "1/3", "--base", "x" * 5000), 2,
         "usage: cantorlike expansion [-h] --x X [--base BASE]\n"
         "cantorlike expansion: error: argument --base: invalid int value: '" + "x" * 40 + "'"),
        (("analyze", "--family-json", "[" * 100_000), 2,
         "invalid family: malformed family JSON '" + "[" * 40 + "'"),
        (("analyze", "--family-json", '{"a": ' * 100_000), 2,
         "invalid family: malformed family JSON '" + '{"a": ' * 6 + "{\"a\"'"),
        (("analyze", "--family-json", "{"), 2, "invalid family: malformed family JSON '{'"),
        (("analyze", "--family", "digit", "--n", "5", "--digits", "0," + "x" * 5000), 2,
         "invalid family: invalid int value: '" + "x" * 40 + "'"),
        (("analyze", "--family", "x" * 5000), 2,
         usage("analyze") + "cantorlike analyze: error: argument --family: invalid choice: '"
         + "x" * 40 + "' (choose from 'proportional', 'power', 'digit', 'lambda')"),
        (("generate", "--family", "power", "--n", "4", "--depth", "1", "--format", "z" * 5000), 2,
         usage("generate") + "cantorlike generate: error: argument --format: invalid choice: '"
         + "z" * 40 + "' (choose from 'json', 'csv', 'svg')"),
        (("analyze", "--family", "power", "--n", "4", "s" * 5000), 2,
         usage() + "cantorlike: error: unrecognized arguments: " + "s" * 40),
    ], ids=["malformed-x", "x-range", "depth", "json-shape", "json-missing-key", "json-rational",
            "json-int", "family-kind", "family-kind-of-40", "alpha-range", "lambda-range", "power-n",
            "digit-n", "digit-values", "generate-stage", "render-stage", "member-walk",
            "analyze-walk", "analyze-print-guard", "int-flag", "deep-json", "deep-json-object",
            "unclosed-json", "digit-literal",
            "family-choice", "format-choice", "stray-argument"])
    def test_an_error_echoes_at_most_40_characters_of_its_input(self, capsys, argv, code, message):
        # One short line however long the input; an input of 40 characters or
        # fewer is still echoed whole.
        assert run(capsys, *argv) == (code, "", message + "\n")

    @pytest.mark.parametrize("flags", [("--family", "power", "--n", "2", "--depth", "10000000"),
                                       ("--family", "lambda", "--lambda", "1/2", "--depth", "2000")])
    def test_printable_counts_still_answer(self, capsys, flags):
        # Power(2) stops changing at step 2, so its count is 4 at every depth.
        code, out, err = run(capsys, "analyze", *flags, "--kmax", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["level_stats"]["count"] == (4 if "power" in flags else 2**2000)


class TestFamilyFlags:
    def test_family_choices_are_the_family_table(self):
        sub = next(a for a in cli_module.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        with_family = {name for name, p in sub.choices.items()
                       for a in p._actions if a.dest == "family" and a.choices == list(_FAMILY_FIELDS)}
        assert with_family == {"generate", "analyze", "member", "counterexample", "render"}

    @pytest.mark.parametrize("flags, message", [
        ((), "no family given (use --family or --family-json)"),
        (("--family", "proportional"), "--family proportional requires --alpha"),
        (("--family", "power", "--alpha", "1/3"), "--family power requires --n"),
        (("--family", "digit", "--n", "5"), "--family digit requires --n and --digits"),
        (("--family", "digit", "--digits", "0,4"), "--family digit requires --n and --digits"),
        (("--family", "lambda"), "--family lambda requires --lambda"),
        (("--family", "digit", "--n", "5", "--digits", "0,x"), "invalid int value: 'x'"),
    ])
    def test_family_flag_errors_exit_2(self, capsys, flags, message):
        code, out, err = run(capsys, "generate", *flags, "--depth", "1")
        assert (code, out, err) == (2, "", f"invalid family: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("generate", "--family", "power", "--n", "4", "--alpha", "1/3", "--depth", "1"),
         "family flags have a flag --alpha that family 'power' does not read"),
        (("analyze", "--family", "proportional", "--alpha", "1/3", "--n", "4", "--lambda", "1/2"),
         "family flags have a flag --n that family 'proportional' does not read"),
        (("member", "--family", "lambda", "--lambda", "1/2", "--digits", "0,2", "--x", "0",
          "--depth", "1"), "family flags have a flag --digits that family 'lambda' does not read"),
        (("render", "--family", "digit", "--n", "5", "--digits", "0,4", "--lambda", "1/2"),
         "family flags have a flag --lambda that family 'digit' does not read"),
        (("counterexample", "--n", "5", "--n-max", "3"), "no family given (use --family or --family-json)"),
        (("counterexample", "--n", "5"), "no family given (use --family or --family-json)"),
    ], ids=["power-alpha", "proportional-n", "lambda-digits", "digit-lambda", "counterexample-n",
            "counterexample-n-alone"])
    def test_a_family_flag_the_kind_does_not_read_exits_2(self, capsys, argv, message):
        # These flags used to be ignored: counterexample --n 5 printed Power(4)'s table.
        assert run(capsys, *argv) == (2, "", f"invalid family: {message}\n")

    def test_family_json_overrides_the_flags_and_counterexample_defaults_to_power_4(self, capsys):
        flags = ("--family", "power", "--n", "4", "--depth", "2")
        assert (run(capsys, "generate", "--family-json", '{"family": "power", "n": 4}', "--alpha", "1/3",
                    "--n", "9", "--depth", "2") == run(capsys, "generate", *flags))
        assert (run(capsys, "counterexample", "--n-max", "15")
                == run(capsys, "counterexample", "--family", "power", "--n", "4", "--n-max", "15"))


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("generate", "--family", "power", "--n", "4", "--depth", "16", "--format", "csv"),
        ("render", "--family", "power", "--n", "4", "--depth", "14"),
        ("counterexample", "--n-max", "30000"),
    ], ids=["generate", "render", "counterexample"])
    def test_broken_pipe_exits_141_without_stderr(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes a byte
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cantorlike.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestProcessEntry:
    """cli.run() is the entry of both launchers: main() on sys.argv, then
    gc.freeze() so that the interpreter's teardown collections skip what the
    command left alive. main() itself never touches the collector."""

    @pytest.mark.parametrize("argv, code", [
        (("--help",), 0),
        (("generate", "--family", "proportional", "--alpha", "1/3", "--depth", "3", "--format", "csv"), 0),
        (("cantor-fn", "--x", "1/2"), 1),
        (("analyze", "--family", "x"), 2),
        (("member", "--family", "power", "--n", "4", "--x", "2", "--depth", "1"), 2),
        (("generate", "--family", "power", "--n", "4", "--depth", "30"), 3),
        (("member", "--family", "power", "--n", "4", "--x", "1/3", "--limit"), 4),
    ], ids=["help", "generate", "cantor-fn", "argparse-error", "fail", "depth-cap", "no-digit-form"])
    def test_the_module_launcher_gives_mains_outcome_byte_for_byte(self, capsys, monkeypatch, argv,
                                                                  code):
        # Exit 141 goes through the module launcher in TestClosedStdout. argparse
        # wraps usage and help to COLUMNS, so both sides read the same width.
        monkeypatch.setenv("COLUMNS", "80")
        expected = run(capsys, *argv)
        assert expected[0] == code
        proc = subprocess.run([sys.executable, "-m", "cantorlike.cli", *argv], capture_output=True,
                              env=src_env(COLUMNS="80"), timeout=60)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected

    @pytest.mark.parametrize("argv", [("expansion", "--x", "1/4"), ("analyze", "--family", "x"),
                                      ("cantor-fn", "--x", "1/2")])
    def test_main_in_process_leaves_the_collector_unfrozen(self, capsys, argv):
        before = gc.get_freeze_count()
        run(capsys, *argv)
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("launcher", [
        "from cantorlike import cli\nraise SystemExit(cli.run())",
        "import runpy\nrunpy.run_module('cantorlike.cli', run_name='__main__', alter_sys=True)",
    ], ids=["run", "module-main"])
    @pytest.mark.parametrize("argv, code, out", [
        (("expansion", "--x", "1/4", "--base", "3"), 0, '{"base": 3, "preperiod": [], "period": [0, 2]}\n'),
        (("cantor-fn", "--x", "1/2"), 1, ""),
    ], ids=["exit-0", "exit-1"])
    def test_the_atexit_handlers_run_after_the_freeze(self, launcher, argv, code, out):
        # Teardown still runs them, which is why the entry does not end the
        # process with os._exit. runpy runs the module's __main__ block as -m does.
        program = ("import atexit, gc, sys\n"
                   "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0,"
                   " file=sys.stderr))\n"
                   f"{launcher}\n")
        proc = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True, text=True,
                              env=src_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr.splitlines()[-1] == "frozen at exit: True"

    @pytest.mark.parametrize("argv, code, executed", [
        (("--help",), 0, "[] json False"),
        (("generate", "--family", "power", "--n", "4", "--depth", "3", "--format", "csv"), 0,
         "['render'] json False"),
        (("generate", "--family", "power", "--n", "4", "--depth", "3", "--format", "json"), 0,
         "['render'] json False"),
        (("member", "--family", "power", "--n", "4", "--x", "1/3", "--depth", "5"), 0, "[] json False"),
        (("render", "--family", "power", "--n", "4", "--depth", "2"), 0, "['render', 'sets'] json False"),
        (("generate", "--family", "power", "--n", "4", "--depth", "2", "--format", "svg"), 0,
         "['render', 'sets'] json False"),
        (("counterexample", "--n-max", "3"), 0, "['counterexample'] json False"),
        (("analyze", "--family", "power", "--n", "4", "--depth", "2"), 0, "['analysis'] json True"),
    ], ids=["help", "generate-csv", "generate-json", "member-depth", "render", "generate-svg", "counterexample",
            "analyze"])
    def test_a_launch_executes_only_the_modules_its_command_reads(self, argv, code, executed):
        # analysis, counterexample, render and sets are registered at import but run
        # on first use: until then sys.modules holds the lazy module type, not ModuleType.
        program = ("import atexit, sys, types\n"
                   "def executed():\n"
                   "    names = [name for name in ('analysis', 'counterexample', 'render', 'sets')\n"
                   "             if type(sys.modules[f'cantorlike.{name}']) is types.ModuleType]\n"
                   "    print(names, 'json', 'json' in sys.modules, file=sys.stderr)\n"
                   "atexit.register(executed)\n"
                   "import runpy\nrunpy.run_module('cantorlike.cli', run_name='__main__', alter_sys=True)\n")
        proc = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True, text=True,
                              env=src_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (code, executed + "\n")
