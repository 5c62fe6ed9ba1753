"""CLI surface: flags, CSV shape, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import cli_record
from agecompat import cli
from agecompat.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    # child interpreters import the package from this checkout's src/
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=str(src))


def _run_module(argv):
    """Exit code, stdout, stderr and newly loaded modules of a fresh
    ``python -m agecompat`` run of argv."""
    script = (
        "import json, runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['agecompat', *json.loads(sys.argv[1])]\n"
        "try:\n"
        "    runpy.run_module('agecompat', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stdout.flush()\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=_src_env(),
                          capture_output=True, text=True)
    err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    code, loaded = json.loads(last)
    return code, proc.stdout, err + "\n" if err else "", set(loaded)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in data]


class TestCompatCommand:
    def test_high_school_pair(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--s1", "0.1", "--s2", "0.1", "--t", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p"]) == pytest.approx(0.118, abs=5e-4)
        assert float(rows[0]["d"]) == pytest.approx(1.4)

    def test_benchmark_pair(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "20", "--age2", "16",
                               "--s1", "0.15", "--s2", "0.15", "--t", "1.1284")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p"]) == pytest.approx(0.33, abs=5e-3)

    def test_zero_window(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "20", "--age2", "20",
                               "--s1", "0.1", "--s2", "0.1", "--d", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p"]) == 0.0

    def test_default_t_is_benchmark(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "20", "--age2", "16")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["t"]) == pytest.approx(1.12838, abs=1e-5)

    def test_normalized_columns(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--s1", "0.1", "--s2", "0.1", "--d", "1.4",
                               "--normalized")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-3:] == ["p0", "p0_denominator", "p0_swapped"]
        assert float(rows[0]["p0"]) == pytest.approx(0.227, abs=1e-3)
        assert rows[0]["p0_swapped"] == "false"

    def test_normalized_underflow_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "compat", "--age1", "30", "--age2", "35",
                                 "--d", "5e-324", "--normalized")
        assert (code, out) == (2, "")
        assert err == ("error: d=5e-324 is too small to normalize by: the younger "
                       "cohort's same-age probability underflows to 0\n")

    def test_error_budget_column(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--s1", "0.1", "--s2", "0.1", "--d", "1.4",
                               "--error-budget", "0.1,0.05,0.05")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["delta_p"]) > 0.0

    def test_overflowing_error_budget_exits_2(self, capsys):
        # dd / R * 2 pdf(b) with dd = 1e308, R = 0.025 and b = 0.80 leaves the float range
        code, out, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "18",
                                 "--s1", "0.001", "--s2", "0.001",
                                 "--error-budget", "1e308,0,0")
        assert (code, out) == (2, "")
        assert err == "error: uncertainty of p is inf, not finite: the inputs are too extreme\n"

    @pytest.mark.parametrize("args, p, delta_p", [
        # sigmas whose squares underflow: both densities are 0 at z+- ~ 1e201
        (("--age1", "18", "--age2", "14", "--s1", "1e-202", "--s2", "1e-202"), "0", "0"),
        # ages whose squares overflow: the same query as 1.1 vs 1 with a 1e-201 budget
        (("--age1", "1e200", "--age2", "1.1e200"), "0.508317", "4.78784e-201"),
        # g + d overflows, while p and delta_p do not
        (("--age1", "1.7e308", "--age2", "1", "--s1", "0.588235", "--s2", "1e308",
          "--d", "1e308"), "0.28219", "3.46763e-310"),
    ])
    def test_error_budget_at_extreme_scales(self, capsys, args, p, delta_p):
        code, out, err = run_cli(capsys, "compat", *args, "--error-budget", "0.1,0.1,0.1")
        assert (code, err) == (0, "")
        row = parse_csv(out)[1][0]
        assert (row["p"], row["delta_p"]) == (p, delta_p)

    def test_both_d_and_t_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--d", "1", "--t", "1")
        assert code == 2
        assert "error" in err

    def test_t_whose_d_overflows_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                                 "--t", "1e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: t=1e+308 is too large: d = t * min(sigma1, sigma2)")

    def test_d_whose_t_overflows_exits_2(self, capsys):
        # p = 1, but t = d / min sigma overflows, and the t column would read inf
        code, out, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                                 "--s1", "1e-300", "--s2", "1", "--d", "1e10")
        assert (code, out) == (2, "")
        assert err.startswith("error: d=10000000000.0 is too large: "
                              "t = d / min(sigma1, sigma2)")

    @pytest.mark.parametrize("command", [
        ("compat",), ("expect", "--n1", "10", "--n2", "10")])
    @pytest.mark.parametrize("args, message", [
        (("--age1", "18", "--age2", "14", "--s1", "1e-300", "--s2", "1", "--d", "1e10"),
         "d=10000000000.0 is too large: t = d / min(sigma1, sigma2) = 10000000000.0 / "
         "1.8e-299 overflows, and t must be finite (sigma1 = s1 * age1 = 1e-300 * 18.0)"),
        (("--age1", "18", "--age2", "14", "--t", "1e308"),
         "t=1e+308 is too large: d = t * min(sigma1, sigma2) = 1e+308 * 2.1 overflows, "
         "and d must be finite (sigma2 = s2 * age2 = 0.15 * 14.0)"),
        # equal sigmas: the anchor is sigma1, as in CompatQuery
        (("--age1", "20", "--age2", "20", "--s1", "1e-300", "--s2", "1e-300", "--d", "1e10"),
         "d=10000000000.0 is too large: t = d / min(sigma1, sigma2) = 10000000000.0 / "
         "2e-299 overflows, and t must be finite (sigma1 = s1 * age1 = 1e-300 * 20.0)"),
    ], ids=["d", "t", "tie"])
    def test_overflow_names_the_flags_of_the_smaller_sigma(self, capsys, command, args,
                                                           message):
        code, out, err = run_cli(capsys, *command, *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("args, message", [
        (("--d", "1", "--t", "1"), "give exactly one of d (years) or t (sigma multiple)"),
        (("--t", "-1"), "t must be finite and nonnegative, got -1.0"),
        (("--d", "nan"), "d must be finite and nonnegative, got nan"),
    ], ids=["both", "bad-t", "bad-d"])
    def test_other_query_messages_pass_unchanged(self, capsys, args, message):
        code, out, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "14", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("args, reason", [
        (("--age1", "5e-324", "--age2", "5e-324"),
         "sigma1 = s1 * age1 = 0.15 * 5e-324: sigma must be finite and positive, got 0.0"),
        (("--age1", "18", "--age2", "14", "--s1", "1e308", "--s2", "1"),
         "sigma1 = s1 * age1 = 1e+308 * 18.0: sigma must be finite and positive, got inf"),
        (("--age1", "18", "--age2", "14", "--s2", "1e308"),
         "sigma2 = s2 * age2 = 1e+308 * 14.0: sigma must be finite and positive, got inf"),
        (("--age1", "1e308", "--age2", "1e308", "--s1", "1.5", "--s2", "1.5"),
         "sigma1 = s1 * age1 = 1.5 * 1e+308: sigma must be at most 1.271161006153646e+308 "
         "(the float maximum over sqrt(2)), got 1.5e+308"),
    ])
    def test_sigma_product_outside_range_names_its_flags(self, capsys, args, reason):
        # each flag passes its own check; the product s * age under- or overflows
        code, out, err = run_cli(capsys, "compat", *args)
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    @pytest.mark.parametrize("command", [
        ("compat",), ("expect", "--n1", "10", "--n2", "10")])
    @pytest.mark.parametrize("flag", ["--d", "--t"])
    def test_signed_zero_difference_prints_0(self, capsys, command, flag):
        code, out, _ = run_cli(capsys, *command, "--age1", "18", "--age2", "14",
                               flag, "-0.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["d"] == "0" and rows[0]["p"] == "0"
        assert rows[0].get("t", "0") == "0"


class TestExpectCommand:
    def test_cohort_bullets(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "3780000",
                               "--n2", "3780000", "--p", "0.111111")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["pairs"]) == pytest.approx(1.5876e12, rel=5e-3)
        assert float(row["mean_counterparts_1"]) == pytest.approx(420000, rel=1e-5)
        assert float(row["with_match_1"]) == pytest.approx(3.78e6, rel=1e-6)
        assert "note" not in parse_csv(out)[0]  # 1.59e12 fits in exact floats

    def test_precision_note_above_float_exact_range(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "1000000000",
                               "--n2", "1000000000", "--p", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "note"
        assert rows[0]["note"].startswith("pairs exceed 2^53")

    def test_overflowing_pair_count_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "expect", "--n1", str(10 ** 200),
                                 "--n2", str(10 ** 200), "--p", "0.5")
        assert (code, out) == (2, "")
        assert err == ("error: expected pair count is inf, not finite: the inputs "
                       "are too extreme\n")

    def test_hand_case(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "10", "--n2", "3",
                               "--p", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["with_match_1"]) == pytest.approx(8.75)

    def test_empty_cohort(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "0", "--n2", "5",
                               "--p", "0.3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["pairs"]) == 0.0
        assert float(rows[0]["with_match_1"]) == 0.0

    def test_probability_from_ages(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "100", "--n2", "100",
                               "--age1", "18", "--age2", "14",
                               "--s1", "0.1", "--s2", "0.1", "--t", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p"]) == pytest.approx(0.118, abs=5e-4)

    def test_at_least_k_both_paths(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "50", "--n2", "200",
                               "--p", "0.1", "--at-least-k", "15")
        assert code == 0
        header, rows = parse_csv(out)
        row = rows[0]
        assert {"k_tail_exact_1", "k_tail_normal_1",
                "normal_valid_1"} <= set(header)
        # member of cohort 1 faces the 200 members of cohort 2
        from agecompat.expect import at_least_k_exact
        assert float(row["k_tail_exact_1"]) == pytest.approx(
            at_least_k_exact(15, 200, 0.1), rel=1e-5)
        assert row["normal_valid_1"] == "true"
        # cohort 2 members face only 50 candidates: condition 50 > 81 fails
        assert row["normal_valid_2"] == "false"

    def test_exact_only_path(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "50", "--n2", "200",
                               "--p", "0.1", "--at-least-k", "15", "--exact")
        assert code == 0
        header, _ = parse_csv(out)
        assert "k_tail_exact_1" in header
        assert "k_tail_normal_1" not in header

    @pytest.mark.parametrize("args, message", [
        # p underflows to 0 for these ages; --exact prints the row
        (("--n1", "10", "--n2", "10", "--age1", "80", "--age2", "15", "--s1", "0.01",
          "--s2", "0.01", "--at-least-k", "1"),
         "the normal tail needs 0 < p < 1, and p is 0.0 here; --exact prints the exact tail alone"),
        (("--n1", "10", "--n2", "10", "--p", "1", "--at-least-k", "1"),
         "the normal tail needs 0 < p < 1, and p is 1.0 here; --exact prints the exact tail alone"),
        (("--n1", "3", "--n2", "500", "--p", "0.5", "--at-least-k", "4"),
         "--at-least-k 4 is above --n1 3, the candidates a member of cohort 2 faces"),
        (("--n1", "500", "--n2", "3", "--p", "0.5", "--at-least-k", "4", "--exact"),
         "--at-least-k 4 is above --n2 3, the candidates a member of cohort 1 faces"),
    ])
    def test_tail_it_cannot_compute_names_its_flags(self, capsys, args, message):
        code, out, err = run_cli(capsys, "expect", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_p_and_ages_conflict(self, capsys):
        code, _, err = run_cli(capsys, "expect", "--n1", "10", "--n2", "10",
                               "--p", "0.5", "--age1", "18", "--age2", "14")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag, value", [
        ("--s1", "-1"), ("--s1", "0.15"), ("--s2", "0.2"), ("--d", "3"), ("--t", "1.5"),
    ])
    def test_p_rejects_each_model_flag_by_name(self, capsys, flag, value):
        # with --p the model flags have no effect, so giving one is an error
        code, out, err = run_cli(capsys, "expect", "--n1", "100", "--n2", "100",
                                 "--p", "0.1", flag, value)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error:") and err.rstrip().endswith(flag)

    def test_s_flags_default_when_ages_given(self, capsys):
        _, implicit, _ = run_cli(capsys, "expect", "--n1", "100", "--n2", "100",
                                 "--age1", "18", "--age2", "14")
        _, explicit, _ = run_cli(capsys, "expect", "--n1", "100", "--n2", "100",
                                 "--age1", "18", "--age2", "14",
                                 "--s1", "0.15", "--s2", "0.15")
        assert implicit == explicit
        _, rows = parse_csv(implicit)
        assert rows[0]["s1"] == rows[0]["s2"] == "0.15"


class TestLimitsCommand:
    def test_half_probability_identity(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--kind", "min",
                               "--mental", "18", "--p", "0.5", "--s", "0.15")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["chrono_age"]) == 18.0

    def test_senior_limit_to_mental(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--kind", "max",
                               "--chrono", "60", "--p", "0.8413", "--s", "0.2")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["mental_limit"]) == pytest.approx(72.0, abs=5e-3)

    def test_mental_upper_limit_to_chrono(self, capsys):
        code, out, err = run_cli(capsys, "limits", "--kind", "max",
                                 "--mental", "40", "--p", "0.3")
        assert (code, out, err) == (
            0, "kind,mental_limit,p_limit,s,chrono_age\nmax,40,0.3,0.15,43.415\n", "")

    def test_lower_limit_below_float_complement(self, capsys):
        # 1 - 1e-17 rounds to 1.0, so the lower limit must not be taken from it
        code, out, err = run_cli(capsys, "limits", "--kind", "min",
                                 "--chrono", "18", "--p", "1e-17", "--s", "0.1")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["mental_limit"]) == pytest.approx(33.2888, abs=5e-5)

    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--kind", "min",
                               "--chrono", "18", "--sweep", "0.05:0.95:0.05",
                               "--s", "0.1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_limit", "s", "mental_limit"]
        assert len(rows) == 19

    def test_sweep_is_byte_deterministic(self, capsys):
        args = ("limits", "--kind", "min", "--chrono", "18",
                "--sweep", "0.05:0.95:0.05", "--s", "0.1")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert "\r" not in out1

    def test_requires_one_of_mental_chrono(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--kind", "min", "--p", "0.5")
        assert code == 2
        assert "error" in err

    def test_sweep_rejects_p(self, capsys):
        # the sweep supplies its own limit probabilities, so --p has no effect
        code, out, err = run_cli(capsys, "limits", "--kind", "min", "--chrono", "18",
                                 "--sweep", "0.1:0.2:0.1", "--p", "0.3")
        assert (code, out) == (2, "")
        assert err == "error: --sweep takes no single limit probability: got --p\n"

    @pytest.mark.parametrize("argv, message", [
        # 1 + s * quantile <= 0 at p = 0.7, 0.8 and 0.9: no row may print, and
        # the message names the first failing point
        (("--kind", "min", "--chrono", "18", "--sweep", "0.5:0.999:0.1", "--s", "2"),
         "limit probability too extreme for the given s "
         "(1 + s*quantile = -0.048801025416081334 <= 0) at p_limit=0.7"),
        (("--kind", "max", "--chrono", "18", "--p", "0.001", "--s", "2"),
         "limit probability too extreme for the given s "
         "(1 + s*quantile = -5.180464612335627 <= 0) at p_limit=0.001"),
        (("--kind", "min", "--chrono", "1e308", "--p", "0.01", "--s", "10"),
         "mental age limit is inf, not a finite positive age: the inputs are too extreme"),
        (("--kind", "min", "--mental", "1e308", "--p", "0.84", "--s", "1"),
         "chronological age limit is inf, not a finite positive age: "
         "the inputs are too extreme"),
    ], ids=["sweep-factor", "single-factor", "mental-overflow", "chrono-overflow"])
    def test_impossible_limit_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "limits", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestRuleCommand:
    def test_solve_m_reference_cell(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--solve-m", "--p", "0.05",
                               "--s1", "0.1", "--s2", "0.1", "--t", "1.1284")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["m"]) == pytest.approx(0.39, abs=0.01)

    def test_solve_m_tail_target(self, capsys):
        # the root lies past m = 64, where p has fallen to 1.08e-11
        code, out, _ = run_cli(capsys, "--digits", "17", "rule", "--solve-m", "--p", "1e-11",
                               "--s1", "0.15", "--s2", "0.15", "--t", "1.981")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        m = float(rows[0]["m"])
        assert m > 64.0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            s1, s2, t = (mpmath.mpf(x) for x in (0.15, 0.15, 1.981))
            den = mpmath.sqrt(s1 ** 2 + (s2 * (1 + m)) ** 2)
            p = mpmath.ncdf((m + t * s1) / den) - mpmath.ncdf((m - t * s1) / den)
            assert float(abs(p - 1e-11) / 1e-11) <= 1e-14

    def test_audit_grid(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--mu-grid", "15:80:1",
                               "--s1", "0.15", "--s2", "0.15", "--t", "1.1284")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mu", "delta", "delta_over_mu", "p_min",
                          "err_term", "flagged"]
        assert len(rows) == 66
        values = [float(r["p_min"]) for r in rows]
        assert max(values) - min(values) > 0.1

    def test_fixed_point_skipped_with_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "rule", "--mu-grid", "14:20:1",
                                 "--s1", "0.15", "--s2", "0.15")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6  # 15 .. 20
        assert "14" in err and "skipping" in err

    def test_audit_rejects_bad_s1_whatever_the_grid(self, capsys):
        # every age of this grid is skipped, and the bad --s1 still exits 2
        code, out, err = run_cli(capsys, "rule", "--mu-grid", "10:14:1",
                                 "--s1", "-1", "--t", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: s1 must be finite and positive, got -1.0\n"

    def test_solve_m_needs_target(self, capsys):
        code, _, err = run_cli(capsys, "rule", "--solve-m")
        assert code == 2
        assert "error" in err

    # each mode rejects the other mode's flag instead of ignoring it
    def test_audit_rejects_p(self, capsys):
        code, out, err = run_cli(capsys, "rule", "--mu-grid", "15:17:1", "--p", "0.05")
        assert (code, out) == (2, "")
        assert err == ("error: audit mode takes no target probability "
                       "(that is for --solve-m): got --p\n")

    def test_solve_m_rejects_mu_grid(self, capsys):
        code, out, err = run_cli(capsys, "rule", "--solve-m", "--p", "0.05",
                                 "--mu-grid", "15:17:1")
        assert (code, out) == (2, "")
        assert err == "error: --solve-m takes no audit grid: got --mu-grid\n"


class TestTablesCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        same_age_line = next(l for l in out.splitlines() if l.startswith("  p:"))
        for cell in ("0.52", "0.58", "0.68", "0.84"):
            assert cell in same_age_line
        assert "0.39" in out and "0.51" in out and "0.92" in out

    def test_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "tables")
        _, out2, _ = run_cli(capsys, "tables")
        assert out1 == out2


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "compat", "--age1", "18")[0] == 2
        assert run_cli(capsys, "no-such-command")[0] == 2

    def test_overflow_is_a_domain_error(self, capsys):
        # a count past the float range raises OverflowError naming it, which
        # exits 2 like a ValueError
        code, out, err = run_cli(capsys, "expect", "--n1", "1" + "0" * 400, "--n2", "1",
                                 "--p", "0.5")
        assert code == 2 and out == ""
        assert err == ("error: need n1 < 1.8e308 to stay in the float range, "
                       "got n1 of about 10**400.00\n")

    def test_empty_cohort_at_least_zero(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n1", "0", "--n2", "0",
                               "--p", "0.5", "--at-least-k", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["k_tail_normal_1"]) == 1.0

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--s1", "-0.1", "--t", "1")
        assert code == 2
        assert "error" in err

    def test_digits_override(self, capsys):
        _, coarse, _ = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                               "--s1", "0.1", "--s2", "0.1", "--t", "1")
        _, fine, _ = run_cli(capsys, "--digits", "12", "compat", "--age1", "18",
                             "--age2", "14", "--s1", "0.1", "--s2", "0.1",
                             "--t", "1")
        p_coarse = parse_csv(coarse)[1][0]["p"]
        p_fine = parse_csv(fine)[1][0]["p"]
        assert len(p_fine) > len(p_coarse)

    def test_numeric_output_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "compat", "--age1", "18", "--age2", "14",
                            "--s1", "0.1", "--s2", "0.1", "--t", "1")
        row = parse_csv(out)[1][0]
        from agecompat.compat import CompatQuery, compat_prob
        from agecompat.model import Gaussian
        p = compat_prob(CompatQuery(Gaussian(18, 1.8), Gaussian(14, 1.4),
                                    d=float(row["d"])))
        assert format(p, ".6g") == row["p"]

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "agecompat", "tables"],
                              env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert "0.52" in proc.stdout

    def test_import_and_cli_run_without_numpy(self):
        # `import agecompat` and `python -m agecompat compat ...` must not
        # load numpy; only mc_oracle imports it, on call
        script = (
            "import runpy, sys\n"
            "import agecompat\n"
            "assert 'numpy' not in sys.modules, 'import agecompat loaded numpy'\n"
            "sys.argv = ['agecompat', 'compat', '--age1', '30', '--age2', '32']\n"
            "try:\n"
            "    runpy.run_module('agecompat', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'numpy' not in sys.modules, 'the compat command loaded numpy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("age1,")

    # CI's five smoke vectors and a plain compat: the module each runs, the
    # package modules it must leave alone.  New modules are compared, not
    # absent ones, because a site .pth file may preload typing.
    @pytest.mark.parametrize("argv, runs, skips", [
        ("compat --age1 30 --age2 32", "compat", {"verify", "expect", "policy"}),
        ("compat --age1 18 --age2 14 --error-budget 0.1,0.1,0.1", "verify",
         {"expect", "policy"}),
        ("expect --n1 50 --n2 200 --age1 20 --age2 16 --at-least-k 15", "expect",
         {"verify", "policy"}),
        ("limits --kind min --chrono 18 --sweep 0.05:0.95:0.05", "policy",
         {"verify", "expect"}),
        ("rule --mu-grid 15:80:5", "policy", {"verify", "expect"}),
        ("tables", "policy", {"verify", "expect"}),
    ], ids=["compat", "compat-error-budget", "expect", "limits", "rule", "tables"])
    def test_subcommand_loads_only_what_it_runs(self, argv, runs, skips):
        # a well-formed argv is read without argparse (and the gettext and
        # locale it imports), and no command needs the dataclasses/typing
        # machinery (which pulls in inspect, ast, dis and tokenize)
        code, out, err, loaded = _run_module(argv.split())
        assert code == 0 and out, err
        assert f"agecompat.{runs}" in loaded
        assert not loaded & {f"agecompat.{name}" for name in skips}
        assert not loaded & {"argparse", "gettext", "locale", "dataclasses", "inspect",
                             "typing"}

    def test_help_and_usage_errors_come_from_argparse(self):
        code, out, err, loaded = _run_module(["compat", "--help"])
        assert (code, err) == (0, "") and "argparse" in loaded
        assert out.startswith("usage: agecompat compat [-h] [--age1 AGE1]")
        assert "--error-budget DD,DS1,DS2" in out
        code, out, err, loaded = _run_module(["compat", "--age1"])
        assert (code, out) == (2, "") and "argparse" in loaded
        assert err.startswith("usage: agecompat compat [-h] [--age1 AGE1]")
        assert err.endswith("agecompat compat: error: argument --age1: expected one argument\n")

    @pytest.mark.parametrize("argv, expected", [
        (("compat", "--age1", "18", "--age2", "14", "--s1", "0.1", "--s2", "0.1",
          "--t", "1", "--error-budget", "0.1,0.05,0.05"),
         "age1,age2,s1,s2,d,t,p,delta_p\n18,14,0.1,0.1,1.4,1,0.118166,0.0157385\n"),
        (("expect", "--n1", "50", "--n2", "200", "--age1", "20", "--age2", "16",
          "--at-least-k", "15"),
         "n1,n2,age1,age2,s1,s2,d,p,pairs,mean_counterparts_1,mean_counterparts_2,"
         "with_match_1,with_match_2,k,k_tail_exact_1,k_tail_exact_2,k_tail_normal_1,"
         "k_tail_normal_2,normal_valid_1,normal_valid_2\n"
         "50,200,20,16,0.15,0.15,2.70811,0.327934,3279.34,16.3967,65.5869,50,200,15,"
         "1,0.711859,1,0.663031,true,true\n"),
    ], ids=["compat-error-budget", "expect-at-least-k"])
    def test_lazily_imported_paths_keep_their_bytes(self, argv, expected):
        # verify (for --error-budget) and expect load inside the command
        proc = subprocess.run([sys.executable, "-m", "agecompat", *argv],
                              env=_src_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_seed_flag_rejected(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "7", "tables")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("rule", "--mu-grid", "15:inf:1"),
        ("rule", "--mu-grid", "15:1e12:1"),  # ~1e12 points: rejected before any list
        ("limits", "--kind", "min", "--chrono", "18", "--sweep", "0.05:inf:0.05"),
    ])
    def test_unbounded_grid_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("limits", "--kind", "min", "--chrono", "nan", "--p", "0.3"),
        ("limits", "--kind", "min", "--mental", "18", "--p", "0.3", "--s", "nan"),
        ("compat", "--age1", "18", "--age2", "14", "--error-budget", "nan,0.1,0.1"),
    ])
    def test_nan_argument_rejected(self, capsys, argv):
        # NaN fails every comparison, so the shared checks test `not 0 < x < inf`
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv, name", [
        (("limits", "--kind", "max", "--chrono", "inf", "--p", "0.3"), "mu_limit"),
        (("limits", "--kind", "min", "--mental", "18", "--p", "0.3", "--s", "inf"), "s"),
        (("limits", "--kind", "min", "--mental", "inf", "--p", "0.3"), "x_limit"),
        (("limits", "--kind", "min", "--chrono", "18", "--sweep", "0.1:0.2:0.1",
          "--s", "inf"), "s"),
        (("rule", "--mu-grid", "15:17:1", "--s2", "inf"), "s2"),
        (("rule", "--solve-m", "--p", "0.05", "--s1", "inf"), "s1"),
        (("compat", "--age1", "18", "--age2", "14", "--error-budget", "0.1,0.1,inf"),
         "sigma2_err"),
    ])
    def test_infinite_argument_rejected_by_name(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {name} must be finite and positive, got inf\n" or \
            err == f"error: {name} must be finite and nonnegative, got inf\n"

    @pytest.mark.parametrize("argv, message", [
        (("compat", "--age1", "-1", "--age2", "14"),
         "age1 must be finite and positive, got -1.0"),
        (("compat", "--age1", "18", "--age2", "nan"),
         "age2 must be finite and positive, got nan"),
        (("compat", "--age1", "18", "--age2", "14", "--s1", "-0.1"),
         "s1 must be finite and positive, got -0.1"),
        # a negative age times a negative s used to make a positive sigma
        (("compat", "--age1", "-10", "--age2", "14", "--s1", "-0.1"),
         "age1 must be finite and positive, got -10.0"),
        (("expect", "--n1", "100", "--n2", "100", "--age1", "-30", "--age2", "-30",
          "--s1", "-0.1", "--s2", "-0.1"), "age1 must be finite and positive, got -30.0"),
        (("expect", "--n1", "100", "--n2", "100", "--age1", "30", "--age2", "30",
          "--s2", "0"), "s2 must be finite and positive, got 0.0"),
        (("compat", "--age1", "18"), "need both --age1 and --age2"),
        (("compat", "--age2", "14", "--s1", "nan"), "need both --age1 and --age2"),
        # the limit probability is checked by name, not as the quantile's 1 - p
        (("limits", "--kind", "min", "--chrono", "18", "--p", "1.5"),
         "p_limit must lie strictly inside (0, 1), got 1.5"),
        (("limits", "--kind", "min", "--chrono", "18", "--p", "0"),
         "p_limit must lie strictly inside (0, 1), got 0.0"),
        (("limits", "--kind", "min", "--chrono", "18", "--sweep", "0.5:1.5:0.5"),
         "p_limit must lie strictly inside (0, 1), got 1.0"),
        (("limits", "--kind", "max", "--chrono", "18", "--sweep", "1:2"),
         "expected lo:hi:step, got '1:2'"),
        (("compat", "--age1", "18", "--age2", "14", "--error-budget", "0.1,0.1"),
         "expected dd,dsigma1,dsigma2, got '0.1,0.1'"),
        (("expect", "--n1", "5", "--n2", "5", "--age1", "20"),
         "need --p or both --age1 and --age2"),
        (("limits", "--kind", "min", "--mental", "18", "--sweep", "0.1:0.9:0.1"),
         "--sweep converts a chronological limit; give --chrono"),
        # a part that is no number is named, not just float()'s "could not convert"
        (("compat", "--age1", "18", "--age2", "14", "--error-budget", "0.1,0.1,x"),
         "--error-budget takes three numbers dd,dsigma1,dsigma2, got '0.1,0.1,x'"),
        (("limits", "--kind", "min", "--chrono", "18", "--sweep", "0.1:x:0.1"),
         "lo:hi:step must be three numbers, got '0.1:x:0.1'"),
        (("rule", "--mu-grid", "15:80:y"), "lo:hi:step must be three numbers, got '15:80:y'"),
    ])
    def test_age_and_ratio_flags_rejected_by_name(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_grid_point_cap_is_inclusive(self):
        from agecompat.cli import _MAX_GRID_POINTS, _parse_range
        assert len(_parse_range(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
        with pytest.raises(ValueError):
            _parse_range(f"0:{_MAX_GRID_POINTS}:1")

    @pytest.mark.parametrize("digits", ["-3", "0"])
    def test_digits_below_one_rejected(self, capsys, digits):
        code, out, _ = run_cli(capsys, "--digits", digits, "compat",
                               "--age1", "18", "--age2", "14")
        assert code == 2 and out == ""

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        from agecompat import cli as cli_mod
        from agecompat.verify import QuadratureError

        def boom(args):
            raise QuadratureError("refinement exhausted")

        monkeypatch.setattr(cli_mod, "_cmd_tables", boom)
        code, _, err = run_cli(capsys, "tables")
        assert code == 3
        assert "numerical failure" in err

    def test_failure_after_first_table_writes_nothing(self, capsys, monkeypatch):
        # the same-age table is complete before the gap-slope table calls solve_m
        from agecompat import policy

        def boom(*args):
            raise ValueError("no root")

        monkeypatch.setattr(policy, "solve_m", boom)
        assert run_cli(capsys, "tables") == (2, "", "error: no root\n")


# help, a usage error, a domain error, both expect inputs and a global flag
_ORDER_VECTORS = [
    ["--help"],
    ["compat", "--help"],
    ["compat", "--age1"],
    ["compat", "--age1", "-1", "--age2", "14"],
    ["expect", "--n1", "5", "--n2", "5", "--p", "0.1"],
    ["expect", "--n1", "5", "--n2", "5", "--age1", "20", "--age2", "16"],
    ["--digits", "17", "compat", "--age1", "18", "--age2", "14"],
]


class TestParserCache:
    def test_only_fallbacks_build_the_parser_and_only_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        assert main(["compat", "--age1", "18", "--age2", "14"]) == 0
        assert built == []  # a well-formed argv builds no parser
        assert main(["compat", "--age1", "-1", "--age2", "14"]) == 2
        assert built[:1] == ["agecompat"]  # the first fallback builds it
        built.clear()
        assert main(["compat", "--age1"]) == 2
        assert main(["--help"]) == 0
        assert built == []  # later fallbacks reuse it
        argparse.ArgumentParser(prog="probe")  # the wrapper counts
        assert built == ["probe"]
        capsys.readouterr()

    def test_calls_give_the_same_output_in_either_order(self):
        # in a fresh process, so the forward pass's first call builds the
        # parser and every later fallback, backward pass included, reuses it
        script = (
            "import io, json, sys\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "from agecompat.cli import main\n"
            "def run(argv):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with redirect_stdout(out), redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    return [code, out.getvalue(), err.getvalue()]\n"
            "vectors = json.loads(sys.argv[1])\n"
            "forward = [run(v) for v in vectors]\n"
            "backward = [run(v) for v in reversed(vectors)][::-1]\n"
            "print(json.dumps([forward, backward]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(_ORDER_VECTORS)],
                              env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        forward, backward = json.loads(proc.stdout)
        assert [code for code, _, _ in forward] == [0, 0, 2, 2, 0, 0, 0]
        for argv, first, second in zip(_ORDER_VECTORS, forward, backward):
            assert first == second, argv


def _action_row(action):
    """An argparse action as (option, class, dest, nargs, type, default,
    required, choices, const)."""
    return (action.option_strings[0], type(action).__name__, action.dest, action.nargs,
            action.type, action.default, action.required, action.choices, action.const)


def _table_row(flag, kind, default):
    """The same row for one entry of cli._FLAGS."""
    takes = isinstance(kind, tuple) or callable(kind)
    action = ("_StoreAction" if takes else
              "_StoreTrueAction" if kind is True else "_StoreConstAction")
    return (flag, action, cli._dest(flag), None if takes else 0,
            kind if kind in (float, int) else None, None if default is ... else default,
            default is ..., kind if isinstance(kind, tuple) else None,
            None if takes else kind)


def _same_values(fast, parsed):
    """vars of two namespaces equal, a NaN equal to a NaN."""
    fast, parsed = vars(fast), vars(parsed)
    return fast.keys() == parsed.keys() and all(
        a == b or a != a and b != b for a, b in ((fast[k], parsed[k]) for k in fast))


def _check_fast_against_argparse(argv):
    """Assert that _fast_args(argv) is None or argparse's namespace, and None
    where argparse exits; return the fast namespace."""
    fast = cli._fast_args(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert fast is None, argv
        return fast
    assert fast is None or _same_values(fast, parsed), (argv, fast, parsed)
    return fast


# Tokens for the differential test: every value type argparse converts, and
# values that int() or float() read in ways a shortcut might not (digit
# separators, padding, other scripts' digits, superscripts).
_FAST_VALUES = ["0", "1", "18", "14", "0.1", "2", "1e400", "nan", "inf", "1_000", " 5 ",
                "\u00b2", "\u0663", "", "+3", "0x10", "min", "max", "0.1,0.1,0.1", "15:80:5",
                "-0.0", "-1e5", "-1", "-"]
_FAST_TOKENS = sorted({flag for flags in cli._FLAGS.values() for flag in flags}
                      | set(cli._FLAGS) | set(_FAST_VALUES)
                      | {"--digits", "--age", "--norm", "--n", "--e", "--dig", "--mu",
                         "--solve", "--exa", "--age1=18", "--digits=3", "--kind=min",
                         "-h", "--help", "--"})


# valid values by the kind of flag they are given to
_KIND_VALUES = {
    float: ["18", "14", "0.1", "1e5", "1e400", "nan", "inf", "1_000", " 5 ", "+3", "\u0663"],
    int: ["0", "15", "50", "200", "1_000", " 5 ", "+3", "\u0663"],
    str: ["0.1,0.1,0.1", "15:80:5", "x", " 5 ", ""],
    tuple: ["min", "max"],
}


@st.composite
def _fast_argv(draw):
    """Any tokens one time in three; else [--digits V]... COMMAND, then some
    of its flags in any order (a required one four times in five, one of
    them twice at times), each value of the flag's kind four times in five,
    and one stray token one time in five."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.lists(st.sampled_from(_FAST_TOKENS), max_size=8))

    def value(kind):
        pool = _KIND_VALUES[tuple if isinstance(kind, tuple) else kind]
        return draw(st.sampled_from(pool if draw(st.integers(0, 4)) else _FAST_VALUES))

    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--digits", value(int)]
    command = draw(st.sampled_from(sorted(cli._FLAGS)))
    flags = cli._FLAGS[command]
    chosen = draw(st.permutations(sorted(flags)))[:draw(st.integers(0, len(flags)))]
    chosen += [flag for flag, (_, default) in flags.items()
               if default is ... and flag not in chosen and draw(st.integers(0, 4))]
    if chosen and draw(st.integers(0, 4)) == 0:
        chosen.append(draw(st.sampled_from(chosen)))
    argv.append(command)
    for flag in chosen:
        argv.append(flag)
        kind = flags[flag][0]
        if isinstance(kind, tuple) or callable(kind):
            argv.append(value(kind))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_FAST_TOKENS)))
    return argv


class TestFastPath:
    def test_table_matches_the_parser(self):
        parser = cli.build_parser()
        top = [a for a in parser._actions if a.dest != "help"]
        digits, commands = top
        assert _action_row(digits) == ("--digits", "_StoreAction", "digits", None, cli._digits,
                                       cli.DEFAULT_DIGITS, False, None, None)
        assert list(commands.choices) == list(cli._FLAGS)
        for name, sub in commands.choices.items():
            rows = [_action_row(a) for a in sub._actions if a.dest != "help"]
            assert rows == [_table_row(flag, *spec) for flag, spec in cli._FLAGS[name].items()]
            groups = [[a.option_strings[0] for a in g._group_actions]
                      for g in sub._mutually_exclusive_groups]
            assert groups == ([["--exact", "--normal"]] if name == "expect" else [])

    def test_digits_rule(self):
        # the fast path reads --digits as int(text) >= 1, which is _digits
        for text in ("1", "17", "\u0663", "1_0", " 2 "):
            assert cli._fast_args(["--digits", text, "tables"]).digits == cli._digits(text)
        for text in ("0", "\u00b2", "1.5", "x"):
            assert cli._fast_args(["--digits", text, "tables"]) is None

    @pytest.mark.parametrize("argv", [
        [], ["--digits", "3"], ["-h"], ["tables", "--help"], ["tables", "compat"],
        ["compat", "--age1", "18", "--age2", "14", "tables"],
        ["compat", "--age1", "18", "--age2", "14", "--digits", "3"],
        ["--digits", "0", "--digits", "3", "tables"], ["--dig", "3", "tables"],
        ["compat", "--age", "18"], ["compat", "--age1=18", "--age2", "14"],
        ["compat", "--age1", "18", "--age2"], ["compat", "--error-budget"],
        ["compat", "--", "--age1", "18"],
        ["compat", "--age1", "18", "--age2", "-14"], ["compat", "--normalized", "yes"],
        ["expect", "--n1", "5", "--n2", "5", "--p", "0.1", "--exact", "--normal"],
        ["expect", "--n1", "5", "--p", "0.1"], ["expect", "--n1", "5", "--n2", "²"],
        ["limits", "--kind", "mid", "--chrono", "18"], ["limits", "--chrono", "18"],
    ])
    def test_every_other_argv_goes_to_argparse(self, argv):
        assert cli._fast_args(argv) is None
        _check_fast_against_argparse(argv)

    @seed(20261022)
    @settings(max_examples=300, derandomize=False, database=None)
    @given(argv=_fast_argv())
    def test_fast_namespace_is_argparse_namespace(self, argv):
        _check_fast_against_argparse(argv)

    def test_record_vectors(self):
        # every record vector takes the fast path but those holding a
        # negative value, which only argparse parses
        for entry in cli_record.load():
            argv = entry["argv"]
            fast = _check_fast_against_argparse(argv)
            negative = any(token[:1] == "-" and token[1:2] != "-" for token in argv)
            assert (fast is None) == negative, argv


# Values for numeric flags: ordinary, negative, zero, huge and non-finite.
_NUMBER = st.one_of(st.floats(min_value=-100.0, max_value=200.0),
                    st.sampled_from([0.0, 1e300, -1e300, math.nan, math.inf,
                                     -math.inf]))
_RATIO = st.one_of(st.floats(min_value=-0.5, max_value=1.5),
                   st.sampled_from([0.0, 1.0, math.nan, math.inf]))
_COUNT = st.one_of(st.integers(min_value=-3, max_value=300),
                   st.sampled_from([10 ** 6, 10 ** 7 + 1, 8 * 10 ** 7]))


@st.composite
def _grid(draw, lo, step):
    """lo:hi:step with at most 200 points, or an infinite upper bound."""
    lo, step = draw(lo), draw(step)
    points = draw(st.integers(min_value=0, max_value=199))
    hi = draw(st.sampled_from([lo + points * abs(step), math.inf, -math.inf]))
    return f"{lo!r}:{hi!r}:{step!r}"


def _flags(**choices):
    """argv fragment from optional flags; None omits a flag, True is a switch."""
    def render(values):
        argv = []
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not None and value is not False:
                argv.append(f"{flag}={value!r}" if isinstance(value, float)
                            else f"{flag}={value}")
        return argv
    return st.fixed_dictionaries(
        {name: st.none() | strategy for name, strategy in choices.items()}
    ).map(render)


_COMMANDS = st.one_of(
    _flags(age1=_NUMBER, age2=_NUMBER, s1=_RATIO, s2=_RATIO, d=_NUMBER,
           t=_NUMBER, normalized=st.booleans(),
           error_budget=st.tuples(_RATIO, _RATIO, _RATIO).map(
               lambda b: ",".join(map(repr, b)))).map(lambda a: ["compat", *a]),
    _flags(n1=_COUNT, n2=_COUNT, p=_RATIO, age1=_NUMBER, age2=_NUMBER,
           s1=_RATIO, s2=_RATIO, d=_NUMBER, t=_NUMBER, at_least_k=_COUNT,
           exact=st.booleans()).map(lambda a: ["expect", *a]),
    _flags(kind=st.sampled_from(["min", "max"]), mental=_NUMBER, chrono=_NUMBER,
           p=_RATIO, s=_RATIO, sweep=_grid(_RATIO, _RATIO)).map(
               lambda a: ["limits", *a]),
    _flags(mu_grid=_grid(_NUMBER, _NUMBER), s1=_RATIO, s2=_RATIO, t=_NUMBER,
           solve_m=st.booleans(), p=_RATIO).map(lambda a: ["rule", *a]),
    st.just(["tables"]),
)


class TestExitContract:
    # more examples than the profile's 60: five subcommands share the budget
    @settings(max_examples=150)
    @given(digits=st.none() | st.integers(min_value=-3, max_value=15),
           command=_COMMANDS)
    def test_exit_zero_or_two_and_no_partial_output(self, digits, command):
        argv = ([] if digits is None else [f"--digits={digits}"]) + command
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code != 0:
            assert out.getvalue() == "", argv
