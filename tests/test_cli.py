"""Command-line surface: schemas, golden outputs, exit codes; and the
public Python names, with README's API example run as written."""

import contextlib
import enum
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torustc
from torustc import AlgebraSignature, Turn, cli, sample
from torustc.algebra import shown
from torustc.cli import (
    CSV_HEADER,
    MAX_CERTIFICATE_WORK,
    MAX_CONTINUITY_PROBES,
    MAX_DENOMINATOR_BOUND,
    MAX_GRID_PAIRS,
    MAX_PLAN_WORK,
    MAX_QUERIES,
    MAX_SIMULATION_WORK,
    MAX_STEPS,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# past Python's 4,300-digit limit for converting digits to an int
NINES = "9" * 4400
# below that limit: converts, but is still too long to repeat in a message
SHORT_NINES = "9" * 4000


def assert_short_refusal(capsys, *argv):
    """The argument vector exits 2 with a short message that repeats no
    argument and names no interpreter setting."""
    code, out, err = run(capsys, *argv)
    assert code == 2, argv[:3]
    assert out == ""
    assert len(err) < 300 and "9" * 40 not in err and "0" * 40 not in err, argv[:3]
    assert "int_max_str_digits" not in err and "Traceback" not in err


class TestTc:
    def test_single_signature_table(self, capsys):
        code, out, _ = run(capsys, "tc", "3", "2")
        assert code == 0
        assert "4" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "tc", "5", "2", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {
                "n": 5,
                "r": 2,
                "lower": 4,
                "upper_constructive": 6,
                "upper_dimension": 4,
                "tc": 4,
                "constructive_tight": False,
            }
        ]

    def test_non_tight_constructive_marked_in_table(self, capsys):
        code, out, _ = run(capsys, "tc", "5", "2")
        assert code == 0
        assert "*" in out
        assert "not optimal" in out

    def test_csv_header_and_grid(self, capsys):
        code, out, _ = run(capsys, "tc", "--grid", "n=1..6,r=1..n", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER == "n,r,lower,upper_constructive,upper_dimension,tc"
        assert len(lines) == 1 + 21
        assert lines[1] == "1,1,2,2,2,2"
        assert lines[-1] == "6,6,7,7,12,7"

    def test_grid_json_values_match_formula(self, capsys):
        code, out, _ = run(capsys, "tc", "--grid", "n=1..8,r=1..n", "--json")
        assert code == 0
        for row in json.loads(out):
            assert row["tc"] == min(row["n"] + 1, 2 * row["r"])

    def test_invalid_signature_exits_2(self, capsys):
        code, _, err = run(capsys, "tc", "2", "3")
        assert code == 2
        assert err == "error: invalid signature (n=2, r=3): r exceeds n\n"
        assert_short_refusal(capsys, "tc", NINES, "1")
        assert_short_refusal(capsys, "tc", "1", NINES, "--json")
        # below the digit limit the signature converts, and its message
        # shows the first digits and the length instead of the whole value
        assert_short_refusal(capsys, "tc", "2", SHORT_NINES)
        _, _, err = run(capsys, "tc", "2", SHORT_NINES)
        assert err == ("error: invalid signature (n=2, r=999999999999... (4000 digits)): "
                       "r exceeds n\n")

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "tc")
        assert code == 2
        assert "grid" in err

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "tc", "--grid", "n=1..3")
        assert code == 2
        # r up to n over an n range that runs backwards names no signature
        code, out, err = run(capsys, "tc", "--grid", "n=3..2,r=1..n")
        assert (code, out) == (2, "")
        assert "is empty" in err

    @pytest.mark.parametrize("grid, message", [
        ("x" * 4000, "grid must look like n=1..6,r=1..n, got {}"),
        ("n=5..9,r=7..3" + " " * 4000, "grid {} is empty"),
    ], ids=["malformed", "empty"])
    def test_long_grid_is_named_not_repeated(self, capsys, grid, message):
        code, out, err = run(capsys, "tc", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(shown(grid))}\n"
        assert len(err.encode()) < 300 and "characters)" in err

    def test_signature_with_grid_is_usage_error(self, capsys):
        code, out, err = run(capsys, "tc", "3", "2", "--grid", "n=1..2,r=1..n")
        assert code == 2
        assert out == ""
        assert "not both" in err
        assert "Traceback" not in err

    def test_json_with_csv_is_usage_error(self, capsys):
        code, out, err = run(capsys, "tc", "--grid", "n=1..3,r=1..n", "--json", "--csv")
        assert code == 2
        assert out == ""
        assert "cannot be combined" in err
        assert "Traceback" not in err

    def test_grid_above_cap_is_usage_error(self, capsys):
        assert MAX_GRID_PAIRS == 5_000
        code, out, _ = run(capsys, "tc", "--grid", f"n=1..{MAX_GRID_PAIRS},r=1..1", "--csv")
        assert code == 0
        assert len(out.splitlines()) == MAX_GRID_PAIRS + 1
        # refused before any row is built: one huge row, many rows, a huge
        # span of empty rows, and a bound past Python's 4,300-digit limit for
        # converting digits to an int all answer at once, in one line
        for grid in (f"n=1..{MAX_GRID_PAIRS + 1},r=1..1", "n=1000000000..1000000000,r=1..n",
                     "n=1..1000000000,r=1..n", "n=1..1000000000,r=5..3",
                     f"n=1..{'9' * 4400},r=1..n"):
            start = time.perf_counter()
            code, out, err = run(capsys, "tc", "--grid", grid)
            assert time.perf_counter() - start < 1.0, grid
            assert code == 2, grid
            assert out == ""
            assert "Traceback" not in err
            assert "int_max_str_digits" not in err and err.count("\n") == 1
        assert "--grid must name at most 5000 signatures" in run(
            capsys, "tc", "--grid", f"n=1..{MAX_GRID_PAIRS + 1},r=1..1")[2]

    def test_certificate_work_above_budget_is_usage_error(self, capsys):
        assert MAX_CERTIFICATE_WORK == 20_000_000
        # work is min(n, 2r-1) factors times n, summed over rows: 4472 * 4472
        # and 20,000,000 * 1 fit the budget, one more n does not
        for argv in (("tc", "4472", "4472"), ("tc", "20000000", "1", "--json"),
                     ("verify-lower-bound", "20000000", "1")):
            assert run(capsys, *argv)[0] == 0, argv
        # refused before any certificate product is formed; the grid is
        # 2,001 rows near n = 1000, under the pair cap
        for argv in (("tc", "4473", "4473"), ("tc", "20000001", "1"),
                     ("tc", "128000", "64000"), ("verify-lower-bound", "4473", "4473"),
                     ("verify-lower-bound", "15000", "7500"),
                     ("tc", "--grid", "n=1000..1001,r=1..n", "--json")):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 2, argv
            assert out == ""
            assert f"capped at {MAX_CERTIFICATE_WORK}" in err, argv

    @pytest.mark.parametrize("n,r", [(30, 15), (2000, 1000)])
    def test_large_signature_answers_within_budget(self, capsys, n, r):
        start = time.perf_counter()
        code, out, err = run(capsys, "tc", str(n), str(r), "--json")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        (row,) = json.loads(out)
        assert row["tc"] == row["lower"] == min(n + 1, 2 * r)
        assert elapsed < 2.0


class TestVerifyLowerBound:
    def test_default_index_set(self, capsys):
        code, out, _ = run(capsys, "verify-lower-bound", "4", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 3
        assert doc["factor_count"] == 4
        assert doc["index_set"] == [1, 2, 3]
        assert doc["component_terms"] == doc["expected_terms"] == 3
        assert doc["ok"] is True

    def test_custom_index_set(self, capsys):
        code, out, _ = run(capsys, "verify-lower-bound", "5", "2", "--set", "2,4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["index_set"] == [2, 4]
        assert doc["component_terms"] == doc["expected_terms"]

    def test_wrong_size_set_exits_2(self, capsys):
        code, _, err = run(capsys, "verify-lower-bound", "5", "2", "--set", "1,2,3")
        assert code == 2
        assert "size" in err
        # the size is checked before the range, which is empty for n = 1
        for n, r, indices, size in (("1", "1", "1", 0), ("3", "1", "5", 0), ("5", "2", "0", 2)):
            code, out, err = run(capsys, "verify-lower-bound", n, r, "--set", indices)
            assert (code, out) == (2, "")
            assert err == (f"error: certificate index set must have size {size} "
                           f"for this signature, got 1\n")
        assert_short_refusal(capsys, "verify-lower-bound", "5", "2", "--set", f"1,{NINES}")
        assert_short_refusal(capsys, "verify-lower-bound", NINES, "2")

    def test_repeated_set_exits_2(self, capsys):
        code, out, err = run(capsys, "verify-lower-bound", "5", "3", "--set", "1,1,2,3")
        assert (code, out) == (2, "")
        assert err == "error: certificate index set has repeats\n"

    def test_text_output_mentions_certificate(self, capsys):
        code, out, _ = run(capsys, "verify-lower-bound", "3", "2")
        assert code == 0
        assert "nonzero" in out

    def test_reports_frozen(self, capsys):
        # every n <= 15 payload, captured before the expansion was pruned
        frozen = json.loads((Path(__file__).parent / "data" / "certificate_frozen.json").read_text())
        assert len(frozen) == 120
        for want in frozen:
            code, out, _ = run(
                capsys, "verify-lower-bound", str(want["n"]), str(want["r"]), "--json"
            )
            assert code == 0
            assert json.loads(out) == want

    def test_oversized_slice_is_usage_error(self, capsys):
        # C(14999, 7499) and C(13999, 6999) have about 4,500 and 4,200 digits;
        # both are refused with a one-line message that prints neither
        for n, r in [(30, 15), (15000, 7500), (14000, 7000)]:
            code, out, err = run(capsys, "verify-lower-bound", str(n), str(r))
            assert code == 2
            assert out == ""
            assert "capped" in err
            assert "Traceback" not in err
            assert len(err) < 200 and "int_max_str_digits" not in err


class TestPlan:
    def test_worked_example_golden(self, capsys):
        code, out, _ = run(
            capsys, "plan", "3", "2", "--from", "0,1/4", "--to", "1/2,0", "--steps", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "skeleton"
        assert doc["domain"] == 0
        assert doc["agreement"] == []
        by_t = {s["t"]: s["coords"] for s in doc["samples"]}
        assert by_t["0"] == ["0", "1/4"]
        assert by_t["1"] == ["1/2", "0"]
        quarter = by_t["1/4"]
        assert quarter[0] == "0"
        assert quarter[1]["approx"] == pytest.approx(0.625, abs=1e-12)
        three_quarter = by_t["3/4"]
        assert three_quarter[0]["approx"] == pytest.approx(0.25, abs=1e-12)
        assert three_quarter[1] == "0"

    def test_product_mode_circle_first(self, capsys):
        code, out, _ = run(
            capsys, "plan", "2", "2", "--product",
            "--from", "1/4,0", "--to", "3/4,0", "--steps", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "product"
        assert doc["domain"] == 2  # base agrees (1) + antipodal circle (1)
        by_t = {s["t"]: s["coords"] for s in doc["samples"]}
        assert by_t["0"] == ["1/4", "0"]
        assert by_t["1"] == ["3/4", "0"]
        assert by_t["1/2"][0]["approx"] == pytest.approx(0.5, abs=1e-15)

    def test_membership_violation_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "plan", "3", "2", "--from", "1/4,1/4", "--to", "0,0")
        assert code == 2
        assert "support" in err

    def test_membership_violation_names_few_labels(self, capsys):
        # a small support is named whole, a large one by its size and its
        # first five labels, so the message stays short for any n
        code, _, err = run(capsys, "plan", "3", "1", "--from", "1/2,1/3", "--to", "0,0")
        assert code == 2
        assert err == ("error: start endpoint has support [1, 2] of size 2, but at most 0 "
                       "coordinates may be away from the basepoint\n")
        halves, zeros = ",".join(["1/2"] * 499), ",".join(["0"] * 499)
        code, out, err = run(capsys, "plan", "500", "2", "--steps", "1",
                             "--from", zeros, "--to", halves)
        assert code == 2
        assert out == ""
        assert err == ("error: end endpoint has support [1, 2, 3, 4, 5, ...] of size 499, "
                       "but at most 1 coordinates may be away from the basepoint\n")

    def test_work_budget(self, capsys):
        # at most n coordinates at steps + 1 grid times and 2(n - 1) phase
        # boundaries, refused before any point is parsed; the README's
        # 65,536-step (9,6) plans fit in both modes
        assert MAX_PLAN_WORK == 600_000
        assert 9 * (MAX_STEPS + 2 * 9 - 1) <= MAX_PLAN_WORK
        zeros = ",".join(["0"] * 546)
        code, out, _ = run(capsys, "plan", "547", "2", "--steps", "1", "--from", zeros,
                           "--to", zeros)
        assert code == 0
        assert json.loads(out)["domain"] == 546
        for n, steps in (("548", "1"), ("10", str(MAX_STEPS)), ("200", str(MAX_STEPS))):
            code, out, err = run(capsys, "plan", n, "2", "--steps", steps, "--from", "x",
                                 "--to", "x")
            assert code == 2
            assert out == ""
            assert err == "error: n times (--steps + 2n - 1) must be at most 600000\n"

    def test_float_input_rejected(self, capsys):
        code, _, err = run(capsys, "plan", "3", "2", "--from", "0.5,0", "--to", "0,0")
        assert code == 2
        assert err == "error: expected an exact rational like 3/4 or 0, got '0.5'\n"
        assert_short_refusal(capsys, "plan", "3", "2", "--from", "0,x" + SHORT_NINES,
                             "--to", "0,0")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_is_usage_error(self, capsys, steps):
        code, out, err = run(
            capsys, "plan", "3", "2", "--from", "0,1/4", "--to", "1/2,0", "--steps", steps
        )
        assert code == 2
        assert out == ""
        assert "--steps must be at least 1" in err
        assert "Traceback" not in err

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run(capsys, "plan", "3", "2", "--from", "0,1/0", "--to", "0,0")
        assert code == 2
        assert out == ""
        assert err == "error: zero denominator in '1/0'\n"
        assert_short_refusal(capsys, "plan", "3", "2", "--from", "0,1/" + "0" * 4000,
                             "--to", "0,0")
        # a numerator or denominator past the digit limit
        for coord in (f"{NINES}/{NINES}1", f"1/{NINES}", NINES):
            assert_short_refusal(capsys, "plan", "3", "2", "--from", f"0,{coord}", "--to", "0,0")

    def test_denominator_past_bound_is_usage_error(self, capsys):
        # the reduced denominator counts: 2/2000000 is 1/1000000
        for coord in (f"1/{MAX_DENOMINATOR_BOUND}", f"2/{2 * MAX_DENOMINATOR_BOUND}",
                      f"{MAX_DENOMINATOR_BOUND + 1}/{2 * MAX_DENOMINATOR_BOUND + 2}"):
            code, _, _ = run(capsys, "plan", "3", "2", "--from", f"0,{coord}", "--to", "0,0")
            assert code == 0, coord
        for flag, other in (("--from", "--to"), ("--to", "--from")):
            code, out, err = run(capsys, "plan", "3", "2", flag, f"0,1/{MAX_DENOMINATOR_BOUND + 1}",
                                 other, "0,0")
            assert code == 2
            assert out == ""
            assert err == (f"error: {flag} coordinates need reduced denominators at most "
                           f"{MAX_DENOMINATOR_BOUND}\n")
        # 1/7...7 with 4,000 digits, in a plan well inside the cell budget
        sevens = ",".join(["1/" + "7" * 4000] * 2)
        assert_short_refusal(capsys, "plan", "9", "3", "--steps", "65536",
                             "--from", f"0,{sevens},0,0,0,0,0", "--to", ",".join(["0"] * 8))
        assert_short_refusal(capsys, "plan", "3", "2", "--product",
                             "--from", "1/" + SHORT_NINES + ",0,0", "--to", "0,0,0")

    def test_outputs_frozen(self, capsys):
        # plan prints json.dumps(doc, indent=2); the file stores each doc
        # compactly, and its indent=2 rendering is the frozen stdout
        frozen = json.loads((Path(__file__).parent / "data" / "plan_frozen.json").read_text())
        for case in frozen:
            code, out, _ = run(capsys, *case["argv"])
            assert code == case["exit"], case["argv"]
            assert out == json.dumps(case["stdout"], indent=2) + "\n", case["argv"]

    def test_frozen_times_follow_the_dwell_formula(self):
        # each frozen plan's times are the grid and, for every moving base
        # coordinate, the dwell of its start and 1 minus the dwell of its
        # end, with dwell(x) = max(0, 1/2 - 2 d(x)) worked out here from the
        # argv alone
        def dwell(text):
            x = Fraction(text) % 1
            return max(Fraction(0), Fraction(1, 2) - 2 * min(x, 1 - x))

        frozen = json.loads((Path(__file__).parent / "data" / "plan_frozen.json").read_text())
        for case in frozen:
            argv = case["argv"]
            steps = int(argv[argv.index("--steps") + 1]) if "--steps" in argv else 256
            base = slice(1 if "--product" in argv else 0, None)
            start = argv[argv.index("--from") + 1].split(",")[base]
            end = argv[argv.index("--to") + 1].split(",")[base]
            want = {Fraction(k, steps) for k in range(steps + 1)}
            for u, v in zip(start, end):
                if Fraction(u) % 1 != Fraction(v) % 1:
                    want |= {dwell(u), 1 - dwell(v)}
            assert {Fraction(s["t"]) for s in case["stdout"]["samples"]} == want, argv

    def test_point_without_coordinates(self, capsys):
        # in the n = 1 skeleton "" is the only point; the product still
        # needs its circle coordinate
        code, out, _ = run(capsys, "plan", "1", "1", "--from", "", "--to", "")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"][0] == {"t": "0", "coords": []}
        assert doc["samples"][-1] == {"t": "1", "coords": []}
        code, out, err = run(capsys, "plan", "1", "1", "--product", "--from", "", "--to", "")
        assert code == 2
        assert out == ""
        assert err == "error: --from takes 1 coordinates (the circle first), got 0\n"

    @pytest.mark.parametrize("argv, message", [
        (("3", "2", "--product", "--from", "1/2,0", "--to", "0,0"),
         "--from takes 3 coordinates (the circle first), got 2"),
        (("3", "2", "--product", "--from", "1/2,0,0", "--to", "0,0,0,0"),
         "--to takes 3 coordinates (the circle first), got 4"),
        (("3", "2", "--from", "1/2,0,0", "--to", "0,0"),
         "--from takes 2 coordinates, got 3"),
        (("3", "2", "--from", "1/2,0", "--to", "0"),
         "--to takes 2 coordinates, got 1"),
        # counted before parsing, so a bad value in a miscounted point
        # does not hide the count
        (("4", "2", "--from", "1/2,x", "--to", "0,0,0"),
         "--from takes 3 coordinates, got 2"),
    ])
    def test_miscounted_point_states_both_counts(self, capsys, argv, message):
        code, out, err = run(capsys, "plan", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert len(err.encode()) < 300

    def test_samples_include_phase_boundaries(self, capsys):
        code, out, _ = run(
            capsys, "plan", "2", "2", "--from", "1/8", "--to", "5/8", "--steps", "2"
        )
        assert code == 0
        doc = json.loads(out)
        times = [s["t"] for s in doc["samples"]]
        assert "0" in times and "1/2" in times and "1" in times
        assert len(times) > 3  # the dwell boundaries of 1/8 and 5/8 are inside

    def test_steps_above_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "plan", "3", "2", "--from", "0,1/4", "--to", "1/2,0",
            "--steps", str(MAX_STEPS + 1),
        )
        assert MAX_STEPS == 65_536
        assert code == 2
        assert out == ""
        assert "--steps must be at most 65536" in err
        assert "Traceback" not in err
        for argv in (("--steps", NINES), ("--steps", "9" * 4000)):
            assert_short_refusal(capsys, "plan", "3", "2", "--from", "0,1/4", "--to", "1/2,0",
                                 *argv)
        assert_short_refusal(capsys, "plan", NINES, "2", "--from", "0,1/4", "--to", "1/2,0")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.booleans(), st.integers(1, 40),
           st.integers(0, 10**6))
    def test_output_is_the_indent_2_rendering(self, n, r, product, steps, seed):
        # plan writes its JSON itself; it must be the text json.dumps gives
        sig = AlgebraSignature(max(n, r), min(n, r))
        rng = random.Random(seed)
        a, b = (sample(sig, rng, with_circle=product) for _ in range(2))
        text = [",".join(str(t) for t in ((p.circle,) if product else ()) + p.base)
                for p in (a, b)]
        argv = ["plan", str(sig.n), str(sig.r), "--from", text[0], "--to", text[1],
                "--steps", str(steps)] + (["--product"] if product else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"


class TestSimulate:
    def test_clean_simulation_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "3", "2", "--queries", "40", "--steps", "64",
            "--seed", "7", "--continuity-probes", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["queries"] == 40
        assert doc["membership_violations"] == 0
        assert doc["endpoint_violations"] == 0
        assert sum(doc["domain_histogram"].values()) == 40
        assert doc["max_continuity_ratio"] is not None

    def test_product_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "2", "2", "--product", "--queries", "30",
            "--steps", "32", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "product"

    def test_report_keys_in_order(self, capsys):
        code, out, _ = run(capsys, "simulate", "3", "2", "--queries", "4", "--steps", "8")
        assert code == 0
        assert list(json.loads(out)) == [
            "n", "r", "mode", "queries", "steps", "seed", "domain_histogram",
            "endpoint_violations", "membership_violations", "domain_violations",
            "continuity_probes", "max_continuity_ratio", "wall_time_s", "ok", "failures",
        ]

    def test_seeded_reports_frozen(self, capsys):
        # exact reports, max_continuity_ratio included, with wall_time_s
        # dropped; the wrap file covers both branches of the wrap probes
        # (r = 1 in product mode, and r >= 2 in both modes)
        data = Path(__file__).parent / "data"
        frozen = [case for name in ("simulate_seed11.json", "simulate_wrap_seed11.json")
                  for case in json.loads((data / name).read_text())]
        assert len(frozen) == 6
        for case in frozen:
            code, out, _ = run(capsys, *case["argv"])
            doc = json.loads(out)
            del doc["wall_time_s"]
            assert code == case["exit"], case["argv"]
            assert list(doc.items()) == list(case["report"].items()), case["argv"]

    def test_steps_above_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "3", "2", "--queries", "2", "--steps", str(MAX_STEPS + 1)
        )
        assert code == 2
        assert out == ""
        assert "--steps must be at most 65536" in err
        assert "Traceback" not in err
        # every integer argument, past the digit limit; a capped one just
        # under the limit is refused without being repeated
        for flag in ("--steps", "--queries", "--seed", "--denominator-bound",
                     "--continuity-probes"):
            assert_short_refusal(capsys, "simulate", "3", "2", flag, NINES)
        assert_short_refusal(capsys, "simulate", NINES, "2")
        assert_short_refusal(capsys, "simulate", "3", NINES)
        assert_short_refusal(capsys, "simulate", "3", "2", "--steps", "9" * 4000)
        code, out, _ = run(
            capsys, "simulate", "3", "2", "--queries", "2", "--steps", str(MAX_STEPS)
        )
        assert code == 0
        assert json.loads(out)["steps"] == MAX_STEPS

    @pytest.mark.parametrize("flag, cap", [("--queries", MAX_QUERIES),
                                           ("--continuity-probes", MAX_CONTINUITY_PROBES)])
    def test_counts_above_cap_are_usage_errors(self, capsys, flag, cap):
        assert (MAX_QUERIES, MAX_CONTINUITY_PROBES) == (1_000, 500)
        code, out, err = run(capsys, "simulate", "2", "2", "--queries", "1", "--steps", "4",
                             flag, str(cap + 1))
        assert code == 2
        assert out == ""
        assert f"{flag} must be at most {cap}" in err
        assert "Traceback" not in err
        code, out, _ = run(capsys, "simulate", "2", "2", "--queries", "1", "--steps", "4",
                           flag, str(cap))
        assert code == 0
        # a probe whose query admits no perturbation is not counted
        assert 0 < json.loads(out)[flag[2:].replace("-", "_")] <= cap

    def test_denominator_bound_above_cap_is_usage_error(self, capsys):
        assert MAX_DENOMINATOR_BOUND == 1_000_000
        code, out, err = run(capsys, "simulate", "2", "2", "--queries", "1", "--steps", "4",
                             "--denominator-bound", str(MAX_DENOMINATOR_BOUND + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --denominator-bound must be at most {MAX_DENOMINATOR_BOUND}\n"
        assert_short_refusal(capsys, "simulate", "3", "2", "--denominator-bound", SHORT_NINES)
        code, out, _ = run(capsys, "simulate", "2", "2", "--queries", "1", "--steps", "4",
                           "--denominator-bound", str(MAX_DENOMINATOR_BOUND))
        assert code == 0 and json.loads(out)["ok"]

    def test_simulation_work_above_budget_is_usage_error(self, capsys):
        assert MAX_SIMULATION_WORK == 50_000
        # work is n (queries + continuity probes): 50000 * 1 fits the budget,
        # and so does simulate 33 33 at the query and probe caps
        code, out, _ = run(capsys, "simulate", "50000", "2", "--queries", "1", "--steps", "4")
        assert code == 0 and json.loads(out)["ok"]
        assert 33 * (MAX_QUERIES + MAX_CONTINUITY_PROBES) <= MAX_SIMULATION_WORK
        # the old budget, n^2 (queries + probes) <= 1,500,000, admitted at
        # most min(1,500,000 / n, n * 1500) <= sqrt(1,500,000 * 1500) of
        # this work, so everything it admitted is still admitted
        assert math.isqrt(1_500_000 * (MAX_QUERIES + MAX_CONTINUITY_PROBES)) < MAX_SIMULATION_WORK
        for argv in (("simulate", "50001", "2", "--queries", "1"),
                     ("simulate", "50000", "2", "--queries", "1", "--continuity-probes", "1"),
                     ("simulate", "34", "34", "--product", "--queries", str(MAX_QUERIES),
                      "--continuity-probes", str(MAX_CONTINUITY_PROBES)),
                     ("simulate", "20000", "2", "--queries", "10")):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 2, argv
            assert out == ""
            assert err == ("error: n times (--queries + --continuity-probes) must be at most "
                           f"{MAX_SIMULATION_WORK}\n"), argv

    def test_zero_queries_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "3", "2", "--queries", "0")
        assert code == 2
        assert "--queries must be at least 1" in err

    def test_negative_continuity_probes_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "3", "2", "--queries", "2", "--continuity-probes", "-5"
        )
        assert code == 2
        assert out == ""
        assert "--continuity-probes must be at least 0" in err

    @pytest.mark.parametrize("flag, floor", [("--steps", 1), ("--queries", 1),
                                             ("--continuity-probes", 0),
                                             ("--denominator-bound", 2)])
    def test_values_below_floor_name_their_flag(self, capsys, flag, floor):
        code, out, err = run(capsys, "simulate", "3", "2", flag, str(floor - 1))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be at least {floor}\n" and len(err) < 300
        code, out, _ = run(capsys, "simulate", "3", "2", "--queries", "1", "--steps", "4",
                           flag, str(floor))
        assert code == 0 and json.loads(out)["ok"]


class TestSearchZdcl:
    def test_degree_one_consistency(self, capsys):
        code, out, _ = run(capsys, "search-zdcl", "8", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree_one_length"] == 5
        assert doc["certified_minimum"] == 5
        assert doc["tc"] == 6
        assert doc["conjecture"] == "consistent"

    def test_brute_force_small(self, capsys):
        code, out, _ = run(capsys, "search-zdcl", "4", "3", "--brute", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["brute_force_length"] == 4
        assert doc["cup_length"] == 4
        assert doc["conjecture"] == "consistent"

    def test_oversized_chain_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "search-zdcl", "30", "15")
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert "capped" in err
        assert "Traceback" not in err
        assert_short_refusal(capsys, "search-zdcl", NINES, "2")

    def test_chain_over_cap_is_usage_error(self, capsys):
        # (20, 11): the e0 chain's next product would have 272,272 terms
        code, out, err = run(capsys, "search-zdcl", "20", "11")
        assert code == 2
        assert out == ""
        assert "capped" in err
        assert "Traceback" not in err

    def test_chain_key_bits_over_budget_is_usage_error(self, capsys):
        # large n: the chain's 2n-bit keys pass CHAIN_KEY_BIT_CAP long before
        # the term cap, at r = n/2 and at small r alike
        for n, r in (("8000", "4000"), ("100000", "9")):
            start = time.perf_counter()
            code, out, err = run(capsys, "search-zdcl", n, r)
            assert time.perf_counter() - start < 1.0, (n, r)
            assert code == 2, (n, r)
            assert out == ""
            assert "CHAIN_KEY_BIT_CAP = 64000000" in err
            assert "Traceback" not in err

    def test_huge_n_refused_before_any_product(self, capsys):
        assert_short_refusal(capsys, "search-zdcl", SHORT_NINES, "2")
        _, _, err = run(capsys, "search-zdcl", SHORT_NINES, "2")
        assert "CHAIN_KEY_BIT_CAP" in err

    def test_brute_force_disagreement_is_inconsistent(self, capsys, monkeypatch):
        # --brute cross-checks the chain: a different length fails the check
        search = cli.zdcl_brute_force

        def one_short(sig):
            rep = search(sig)
            return rep._replace(searched_length=rep.searched_length - 1)

        monkeypatch.setattr(cli, "zdcl_brute_force", one_short)
        code, out, _ = run(capsys, "search-zdcl", "4", "3", "--brute", "--json")
        assert code == 1
        doc = json.loads(out)
        assert (doc["degree_one_length"], doc["brute_force_length"]) == (4, 3)
        assert doc["cup_length"] == 4
        assert doc["conjecture"] == "inconsistent"

    def test_brute_force_limit_ignores_the_environment(self, capsys, monkeypatch):
        # n <= 8 is a constant: no environment variable raises it
        monkeypatch.setenv("TC_BRUTE_CAP", "99")
        code, out, err = run(capsys, "search-zdcl", "9", "2", "--brute")
        assert (code, out) == (2, "")
        assert err == "error: brute-force search is limited to n <= 8; got n = 9\n"
        monkeypatch.delenv("TC_BRUTE_CAP")
        code, out, _ = run(capsys, "search-zdcl", "8", "3", "--brute", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["brute_force_length"] == doc["degree_one_length"] == 5
        assert doc["conjecture"] == "consistent"

    def test_invalid_signature_below_digit_limit_is_not_echoed(self, capsys):
        assert_short_refusal(capsys, "search-zdcl", "1", SHORT_NINES)


class TestParseArgs:
    """parse_args reads one table, _COMMANDS; the argvs recorded from the
    argparse parser it replaced parse to the fields argparse gave them."""

    FROZEN = json.loads((Path(__file__).parent / "data" / "parse_frozen.json").read_text())
    # cheap to run; each prints something different
    ARGVS = [
        ["tc", "3", "2", "--json"],
        ["tc", "3", "2"],
        ["tc", "3", "2", "--csv"],
        ["search-zdcl", "3", "2"],
        ["verify-lower-bound", "5", "2", "--s=2,4", "--j"],
        ["plan", "--steps", "2", "3", "2", "--to", "0,0", "--from", "1/2,0"],
    ]

    @staticmethod
    def fields(argv):
        ns = cli.parse_args(argv)
        return json.loads(json.dumps(dict(vars(ns), func=ns.func.__name__)))

    def test_fields_match_argparse(self):
        # recorded with the argparse parser this table replaced: every option
        # of every command and the defaults, --flag=value, unique prefixes,
        # options around the positionals, repeated options, negative values
        # and "--"
        assert len(self.FROZEN) == 46
        for case in self.FROZEN:
            assert self.fields(case["argv"]) == case["fields"], case["argv"]
        # in reverse order too: no call leaves state for the next
        for case in reversed(self.FROZEN):
            assert self.fields(case["argv"]) == case["fields"], case["argv"]

    def test_no_option_leaks_into_the_next_call(self, capsys):
        forwards = [run(capsys, *argv) for argv in self.ARGVS]
        backwards = [run(capsys, *argv) for argv in reversed(self.ARGVS)]
        assert forwards == backwards[::-1]
        assert [code for code, _, _ in forwards] == [0] * len(self.ARGVS)
        assert len({out for _, out, _ in forwards}) == len(self.ARGVS)

    def test_values_that_argparse_refused(self):
        # an option's value may start with "-", and an option may split
        # tc's two optional positionals
        assert self.fields(["plan", "3", "2", "--from", "-1/3,0", "--to", "0,0"]) == {
            "command": "plan", "func": "cmd_plan", "n": 3, "r": 2, "from": "-1/3,0",
            "to": "0,0", "steps": 256, "product": False}
        fields = self.fields(["tc", "3", "--json", "2"])
        assert (fields["n"], fields["r"], fields["json"]) == (3, 2, True)

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "3", "2", "--s", "4"), "ambiguous option --s could match --steps, --seed"),
        (("tc", "3", "2", "--json=1"), "--json takes no value"),
        (("simulate", "3", "2", "--seed"), "argument --seed: expected one argument"),
        (("plan", "3", "2"), "the following arguments are required: --from, --to"),
        (("simulate", "3"), "the following arguments are required: r"),
        (("tc", "3", "2", "-j"), "unknown option '-j' for tc"),
        (("tc", "3", "2", "4"), "unexpected argument '4' for tc"),
        (("tc", "x"), "argument n: expected a decimal integer"),
        (("verify-lower-bound", "5", "2", "--set", "1,x"), "argument --set: expected a decimal integer"),
        # argparse gave r an empty list here, and simulate crashed on it
        (("simulate", "--", "3", "--"), "argument r: expected a decimal integer"),
    ])
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_long_arguments_are_named_not_repeated(self, capsys):
        word = "9" * 3999 + "x"
        assert_short_refusal(capsys, "tc", word, "1")
        assert "argument n: expected a decimal integer" in run(capsys, "tc", word, "1")[2]
        for argv, token in ((("tc", "3", "2", "--" + word), "--" + word),
                            ((word, "3", "2"), word)):
            assert_short_refusal(capsys, *argv)
            assert shown(token) in run(capsys, *argv)[2], argv[:1]

    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_help_names_every_command_and_flag(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for command, (_, summary, _, options) in cli._COMMANDS.items():
            assert f"torustc {command} " in out and summary in out, command
            code, text, err = run(capsys, command, flag)
            assert (code, err) == (0, "")
            assert text.startswith(f"usage: torustc {command} ")
            for option in [*options, "--help"]:
                assert option in text, (command, option)

    # each ranged command, cheap to run at either end of every range; a
    # ranged option given after it overrides its value here
    CHEAP = {"plan": ["plan", "1", "1", "--from", "", "--to", ""],
             "simulate": ["simulate", "2", "2", "--queries", "1", "--steps", "4"]}

    def test_ranges_come_from_the_table(self, capsys):
        ranged = [(command, flag, *bounds) for command, (_, _, _, options) in cli._COMMANDS.items()
                  for flag, (_, _, _, *bounds) in options.items() if bounds]
        assert {command for command, *_ in ranged} == set(self.CHEAP) and len(ranged) == 5
        for command, flag, floor, cap in ranged:
            help_lines = run(capsys, command, "--help")[1].splitlines()
            line, = [line for line in help_lines if line.startswith(f"  {flag} INT ")]
            assert line.endswith(f", range {floor}..{cap})"), line
            for value in (floor, cap):
                code, _, err = run(capsys, *self.CHEAP[command], flag, str(value))
                assert (code, err) == (0, ""), (flag, value)
            assert run(capsys, *self.CHEAP[command], flag, str(floor - 1)) == (
                2, "", f"error: {flag} must be at least {floor}\n")
            assert run(capsys, *self.CHEAP[command], flag, str(cap + 1)) == (
                2, "", f"error: {flag} must be at most {cap}\n")
        # of two values out of range, the one given first is named
        assert run(capsys, "simulate", "3", "2", "--queries", "0", "--steps", "0") == (
            2, "", "error: --queries must be at least 1\n")

    def test_bare_command_line_names_the_commands(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (2, "")
        assert err == f"error: give a command: {', '.join(cli._COMMANDS)}\n"
        assert len(err) < 300


_SIZES = st.sampled_from(["1", "2", "3", "4", "5", "6"] * 3 + ["-1", "0", "30", "x", "2.5", ""])
_COORDS = st.sampled_from(
    ["0", "0", "1/2", "3/4", "7/8", "1/3", "1", "5/4", "-1/3", "+2/5", " 1/3", "1/0", "0/0",
     "0.5", "1e3", "abc", "", "99999999999999999999/7"]
)
_POINTS = st.lists(_COORDS, max_size=6).map(",".join)
# 4,000 characters each, refused without being repeated: a malformed
# --grid, and a non-integer for an integer option
_LONG_GRID = "x" * 4000
_LONG_WORD = "9" * 3999 + "x"
_COUNTS = st.sampled_from(["-1", "0", "1", "2", "4", "x", _LONG_WORD])
# each capped count is drawn at, just below and just above its cap
_QUERIES = st.sampled_from(["-1", "0", "1", "2", "4", "x",
                            *(str(MAX_QUERIES + d) for d in (-1, 0, 1)), "1000000000"])
_PROBES = st.sampled_from(["-1", "0", "1", "2", "4", "x",
                           *(str(MAX_CONTINUITY_PROBES + d) for d in (-1, 0, 1)), "1000000000"])
# signatures at and just past each work budget, for the commands it guards
_ROOT = math.isqrt(MAX_CERTIFICATE_WORK)
_AT_CERTIFICATE_BUDGET = [(_ROOT, _ROOT), (_ROOT + 1, _ROOT + 1),
                          (MAX_CERTIFICATE_WORK, 1), (MAX_CERTIFICATE_WORK + 1, 1)]
_AT_BUDGET = {
    "tc": _AT_CERTIFICATE_BUDGET,
    "verify-lower-bound": _AT_CERTIFICATE_BUDGET,
    # n times the default 100 queries, and times one query
    "simulate": [(n, 2) for most in (MAX_SIMULATION_WORK // 100, MAX_SIMULATION_WORK)
                 for n in (most, most + 1)],
}
_STEPS = st.sampled_from(["-1", "0", "1", "2", "7", "64", str(MAX_STEPS + 1), "1000000000",
                          "1.5", _LONG_WORD])
_FLAGS = {
    "tc": [("--grid", st.sampled_from(["n=1..4,r=1..n", "n=2..3,r=1..2", "n=3..1,r=1..n",
                                       "n=0..2,r=0..n", "n=1..30,r=1..n", "n=1..3", "x",
                                       *(f"n=1..{MAX_GRID_PAIRS + d},r=1..1"
                                         for d in (-1, 0, 1)),
                                       "n=1..1000000000,r=1..n", "n=9..1000000000,r=9..3",
                                       _LONG_GRID, "n=5..9,r=7..3" + " " * 3987])),
           ("--json", None), ("--csv", None)],
    "verify-lower-bound": [("--set", st.sampled_from(["1", "1,2", "2,4", "0", "-1", "", "1,,2",
                                                      "a", "1,1", "9"])),
                           ("--json", None)],
    "plan": [("--steps", _STEPS), ("--product", None), ("--from", _POINTS), ("--to", _POINTS)],
    "simulate": [("--queries", _QUERIES), ("--steps", _STEPS), ("--seed", _COUNTS),
                 ("--product", None),
                 ("--denominator-bound", st.sampled_from(["-1", "1", "2", "8", "1000"])),
                 ("--continuity-probes", _PROBES)],
    "search-zdcl": [("--brute", None), ("--json", None)],
}


@st.composite
def _argvs(draw):
    """Argument vectors, mostly well formed enough to reach the subcommand."""
    command = draw(st.sampled_from([*_FLAGS, *_FLAGS, *_FLAGS, "bogus", ""]))
    argv = [command] if command else []
    count = 2 if draw(st.integers(0, 9)) else draw(st.integers(0, 3))
    argv += draw(st.lists(_SIZES, min_size=count, max_size=count))
    if command in _AT_BUDGET and count == 2 and not draw(st.integers(0, 3)):
        argv[1:] = map(str, draw(st.sampled_from(_AT_BUDGET[command])))
    flags = draw(st.lists(st.sampled_from(_FLAGS.get(command, [])), max_size=5)
                 if command in _FLAGS else st.just([]))
    if command == "plan" and draw(st.integers(0, 4)):
        flags += [("--from", _POINTS), ("--to", _POINTS)]
    if draw(st.integers(0, 19)) == 0:
        flags.append((draw(st.sampled_from(["--help", "--bogus"])), None))
    for flag, values in flags:
        argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    return argv


class TestFuzzedArgv:
    """Every argument vector gets an answer or a usage error, never a crash."""

    @settings(max_examples=250, deadline=None)
    @given(_argvs())
    @example(["tc", "--grid", _LONG_GRID])
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert len(err.getvalue().encode()) < 300, argv


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
                | st.floats() | st.text())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=30)


class TestJsonOutput:
    """Every command prints its JSON through one writer, cli._json, whose
    text is json.dumps(doc, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    @example({"floats": [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324, 0.1],
              "caf\u00e9 \x00\x1f\u2028\U0001f600\"\\/": ["\x7f", "\ud800", "tab\there"],
              "flags": [True, 1, False, 0, None], "big": [10**400, -(10**400)],
              "empty": [{}, [], (), ""], "nested": ((1, (2, [])), {"a": {"b": {}}})})
    def test_writer_is_the_indent_2_rendering(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    class Color(enum.IntEnum):
        RED = 1
        HUGE = 2**70

    class Label(str):
        def __str__(self):
            return "not what json renders"

    @pytest.mark.parametrize("value", [
        {"color": Color.RED, "huge": Color.HUGE, "colors": [Color.RED]},
        {"label": Label("caf\u00e9 \"x\""), "key": "plain", "labels": (Label("y"),)},
        {"yes": True, "no": False, "one": 1, "zero": 0, "none": None},
        {"big": 2**64, "past": 2**64 + 1, "negative": -(2**70), "tiny": -1, "f": 0.5},
        {"nested": {"color": Color.HUGE, "label": Label(""), "flag": True, "big": 10**30}},
    ], ids=["intenum", "str-subclass", "bools", "big-ints", "nested"])
    def test_dict_values_render_as_json_renders_them(self, value):
        # exact ints and strs in a dict are rendered inline; a bool, an int
        # or str subclass and anything else go through the writer's own cases
        assert cli._json(value) == json.dumps(value, indent=2)
        assert cli._json([value]) == json.dumps([value], indent=2)

    @pytest.mark.parametrize("value", [
        {1: 2}, {"a": {None: 1}}, {True: 0}, Fraction(1, 3), {"t": Fraction(1, 3)},
        [Turn.parse("1/3")], {1, 2}, b"bytes",
    ], ids=["int-key", "nested-none-key", "bool-key", "fraction", "fraction-value",
            "turn", "set", "bytes"])
    def test_writer_refuses_what_json_would_render_otherwise(self, value):
        # json.dumps turns int, bool and None keys into strings; the writer
        # takes str keys only, and raises instead of rendering differently
        with pytest.raises(TypeError):
            cli._json(value)

    @pytest.mark.parametrize("argv", [
        ["tc", "9", "4", "--json"],
        ["tc", "--grid", "n=1..8,r=1..n", "--json"],
        ["verify-lower-bound", "9", "5", "--json"],
        ["verify-lower-bound", "10", "4", "--set", "9,2,7,4,1,5", "--json"],
        ["simulate", "5", "3", "--product", "--queries", "20", "--continuity-probes", "8"],
        ["simulate", "4", "3", "--queries", "20", "--continuity-probes", "8"],
        ["search-zdcl", "6", "3", "--json", "--brute"],
        ["search-zdcl", "6", "3", "--json"],
    ], ids=" ".join)
    def test_output_is_the_indent_2_rendering(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    CONSOLE = "import sys; from torustc.cli import main; sys.exit(main())"

    @staticmethod
    def console_env():
        # stdout block-buffered, as by default, so that main's flush is reached
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        return env

    @pytest.mark.parametrize("argv", [
        ["tc", "--grid", "n=1..60,r=1..n", "--json"],
        ["plan", "9", "3", "--steps", "1500", "--from", "0,1/2,1/3,0,0,0,0,0",
         "--to", "0,0,0,0,0,0,0,0"],
    ], ids=["tc-grid", "plan"])
    def test_reader_closing_after_one_byte_exits_1_without_stderr(self, argv):
        # each prints about 300 kB, more than a pipe holds, so the close
        # meets a write under way
        with subprocess.Popen([sys.executable, "-c", self.CONSOLE, *argv],
                              env=self.console_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, bufsize=0) as proc:
            assert proc.stdout.read(1) in (b"[", b"{")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_reader_gone_before_the_flush_exits_1_without_stderr(self):
        # a short output waits in stdout's buffer until main's flush, which
        # meets a pipe whose reader closed before the command started
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-c", self.CONSOLE, "tc", "3", "2", "--json"],
                                  env=self.console_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestPublicSurface:
    """The supported Python API: exactly these names, each importable."""

    KEPT = [
        "AlgebraElement", "AlgebraSignature", "BoundMismatch",
        "CertificateFailure", "CoordinateRule", "InstanceTooLarge",
        "InvalidEndpoint", "InvalidSignature", "LowerBoundCertificate",
        "PlannerPath", "PlannerQuery", "SimulationReport", "SkeletonPoint", "TcBounds",
        "TensorElement", "Turn", "ZdclSearchReport", "apply_multiplication_map", "classify",
        "compute_bounds", "continuity_ratio", "dwell_time", "lower_bound_certificate",
        "membership", "path_deviation", "perturb_query", "plan_product", "plan_skeleton",
        "random_turn", "run_simulation", "sample", "zdcl_brute_force",
        "zdcl_degree_one", "zero_divisor",
    ]

    def test_all_is_pinned_and_resolves(self):
        assert sorted(torustc.__all__) == self.KEPT
        for name in self.KEPT:
            assert hasattr(torustc, name), name

    def test_usage_errors_are_value_errors(self):
        # main exits 2 on every ValueError, so these need no entry of their own
        for cls in (torustc.InvalidSignature, torustc.InvalidEndpoint, torustc.InstanceTooLarge):
            assert issubclass(cls, ValueError), cls
        # a failed check is no usage error: it exits 1
        for cls in (torustc.CertificateFailure, torustc.BoundMismatch):
            assert not issubclass(cls, ValueError), cls

    def test_readme_python_api_example(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Python API\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        # the commented values: tc 6; 5 factors and a C(4, 2) = 6 term slice
        assert lines[:2] == ["6", "5 6"]
        assert lines[2].startswith("(Turn(0), ")
