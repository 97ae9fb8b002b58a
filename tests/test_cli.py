"""Command-line surface: schemas, golden outputs, exit codes."""

import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustc import AlgebraSignature, cli, sample
from torustc.cli import (
    CSV_HEADER,
    MAX_CONTINUITY_PROBES,
    MAX_GRID_PAIRS,
    MAX_QUERIES,
    MAX_STEPS,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "r exceeds n" in err

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "tc")
        assert code == 2
        assert "grid" in err

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "tc", "--grid", "n=1..3")
        assert code == 2

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
        # refused before any row is built: one huge row, many rows, and a
        # huge span of empty rows all answer at once
        for grid in (f"n=1..{MAX_GRID_PAIRS + 1},r=1..1", "n=1000000000..1000000000,r=1..n",
                     "n=1..1000000000,r=1..n", "n=1..1000000000,r=5..3"):
            start = time.perf_counter()
            code, out, err = run(capsys, "tc", "--grid", grid)
            assert time.perf_counter() - start < 1.0, grid
            assert code == 2, grid
            assert out == ""
            assert "Traceback" not in err
        assert "--grid must name at most 5000 signatures" in run(
            capsys, "tc", "--grid", f"n=1..{MAX_GRID_PAIRS + 1},r=1..1")[2]

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
        code, out, err = run(capsys, "verify-lower-bound", "30", "15")
        assert code == 2
        assert out == ""
        assert "capped" in err
        assert "Traceback" not in err


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

    def test_float_input_rejected(self, capsys):
        code, _, err = run(capsys, "plan", "3", "2", "--from", "0.5,0", "--to", "0,0")
        assert code == 2
        assert "exact rational" in err

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
        assert "zero denominator" in err
        assert "Traceback" not in err

    def test_outputs_frozen(self, capsys):
        # plan prints json.dumps(doc, indent=2); the file stores each doc
        # compactly, and its indent=2 rendering is the frozen stdout
        frozen = json.loads((Path(__file__).parent / "data" / "plan_frozen.json").read_text())
        for case in frozen:
            code, out, _ = run(capsys, *case["argv"])
            assert code == case["exit"], case["argv"]
            assert out == json.dumps(case["stdout"], indent=2) + "\n", case["argv"]

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
        assert "product points need at least the circle coordinate" in err

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

    def test_zero_queries_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "3", "2", "--queries", "0")
        assert code == 2
        assert "positive" in err

    def test_negative_continuity_probes_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "3", "2", "--queries", "2", "--continuity-probes", "-5"
        )
        assert code == 2
        assert out == ""
        assert "continuity_probes must not be negative" in err


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

    def test_chain_over_cap_is_usage_error(self, capsys):
        # (20, 11): the e0 chain's next product would have 272,272 terms
        code, out, err = run(capsys, "search-zdcl", "20", "11")
        assert code == 2
        assert out == ""
        assert "capped" in err
        assert "Traceback" not in err

    def test_brute_force_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TC_BRUTE_CAP", "3")
        code, _, err = run(capsys, "search-zdcl", "4", "2", "--brute")
        assert code == 2
        assert "capped" in err
        monkeypatch.setenv("TC_BRUTE_CAP", "4")
        code, out, _ = run(capsys, "search-zdcl", "4", "2", "--brute", "--json")
        assert code == 0
        assert json.loads(out)["brute_force_length"] == 3


class TestParserReuse:
    ARGVS = [
        ["tc", "3", "2", "--json"],
        ["tc", "3", "2"],
        ["tc", "3", "2", "--csv"],
        ["search-zdcl", "3", "2"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_cached_parser_matches_fresh_parser(self, capsys, monkeypatch):
        # no option of one call may leak into the next through the shared parser
        cached = [run(capsys, *argv) for argv in self.ARGVS]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in self.ARGVS]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 0, 0]
        assert cached[0][1] != cached[1][1] != cached[2][1]


_SIZES = st.sampled_from(["1", "2", "3", "4", "5", "6"] * 3 + ["-1", "0", "30", "x", "2.5", ""])
_COORDS = st.sampled_from(
    ["0", "0", "1/2", "3/4", "7/8", "1/3", "1", "5/4", "-1/3", "+2/5", " 1/3", "1/0", "0/0",
     "0.5", "1e3", "abc", "", "99999999999999999999/7"]
)
_POINTS = st.lists(_COORDS, max_size=6).map(",".join)
_COUNTS = st.sampled_from(["-1", "0", "1", "2", "4", "x"])
# each capped count is drawn at, just below and just above its cap
_QUERIES = st.sampled_from(["-1", "0", "1", "2", "4", "x",
                            *(str(MAX_QUERIES + d) for d in (-1, 0, 1)), "1000000000"])
_PROBES = st.sampled_from(["-1", "0", "1", "2", "4", "x",
                           *(str(MAX_CONTINUITY_PROBES + d) for d in (-1, 0, 1)), "1000000000"])
_STEPS = st.sampled_from(["-1", "0", "1", "2", "7", "64", str(MAX_STEPS + 1), "1000000000",
                          "1.5"])
_FLAGS = {
    "tc": [("--grid", st.sampled_from(["n=1..4,r=1..n", "n=2..3,r=1..2", "n=3..1,r=1..n",
                                       "n=0..2,r=0..n", "n=1..30,r=1..n", "n=1..3", "x",
                                       *(f"n=1..{MAX_GRID_PAIRS + d},r=1..1"
                                         for d in (-1, 0, 1)),
                                       "n=1..1000000000,r=1..n", "n=9..1000000000,r=9..3"])),
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
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert time.perf_counter() - start < 5.0, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
