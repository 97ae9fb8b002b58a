"""Command-line interface.

Subcommands:
  tc                  reconciled complexity bounds, one signature or a grid
  verify-lower-bound  expand and check the zero-divisor product certificate
  plan                plan one path and print sampled coordinates as JSON
  simulate            randomized verification of the planner invariants
  search-zdcl         zero-divisor cup-length along one chain of generator
                      zero-divisors, optionally cross-checked by brute force
                      over the full spanning family

The algebra is generated in degree one, so its zero-divisor cup-length is
the longest nonzero product of distinct generator zero-divisors, and
search-zdcl multiplies them along one chain; --brute must find the same
length over the whole spanning family.

Exit status is 0 exactly when every mathematical check performed by the
invocation passes; bad arguments exit 2, failed checks exit 1.  A reader
that closes stdout before the output ends (as head does) also gives exit
1, with nothing on stderr.  All coordinate input is exact rational text
like 3/4 (floats are rejected).
"""

from __future__ import annotations

import os
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .algebra import (
    AlgebraSignature,
    CertificateFailure,
    BRUTE_FORCE_MAX_N,
    InstanceTooLarge,
    lower_bound_certificate,
    shown,
    zdcl_brute_force,
    zdcl_degree_one,
)
from .bounds import BoundMismatch, TcBounds, compute_bounds
from .planner import PlannerQuery, plan_product, plan_skeleton
from .skeleton import SkeletonPoint, Turn
from .verify import run_simulation

CSV_HEADER = ",".join(TcBounds._fields)
# plan and simulate refuse finer time grids: time, memory and output grow
# linearly with --steps
MAX_STEPS = 65_536
# plan refuses more than MAX_PLAN_WORK sample cells, checked before any point
# is parsed: at most n coordinates at each of the steps + 1 grid times and
# the at most 2(n - 1) phase boundaries, n times (steps + 2n - 1) in all.
# Time, memory and output grow linearly with the cells.  The budget admits
# the 65,536-step (9,6) plans with all eight base coordinates moving
# (589,977 cells): 26 MB in about 1.0 s and 148 MB of RSS, and with
# --product and the circle moving too 30 MB, 1.1 s and 163 MB,
# whole-process on a 2-core x86-64 VM.  Counting the grid alone would
# admit plan 1000 1000 --steps 1, which prints 80 MB
MAX_PLAN_WORK = 600_000
# simulate refuses more queries or probes, and tc larger grids: each is
# linear in its count (README gives the measured worst cases)
MAX_QUERIES = 1_000
MAX_CONTINUITY_PROBES = 500
MAX_GRID_PAIRS = 5_000
# simulate refuses a larger --denominator-bound: a run's cost grows with the
# bound's digit count (simulate 38 20 --product --queries 100
# --continuity-probes 38 --steps 4096 takes 0.85 s with a 7-digit bound,
# 1.6 s with a 1,000-digit one and 9.7 s with a 4,000-digit one on a 2-core
# x86-64 VM).  plan refuses a coordinate with a larger reduced denominator:
# a resting coordinate prints whole in every sample cell, so two 1,000-digit
# ones in a 65,536-step (9,3) plan printed 77 MB and peaked at 326 MB of RSS
MAX_DENOMINATOR_BOUND = 1_000_000
# a certificate multiplies min(n, 2r-1) zero-divisors whose packed keys are
# 2n bits wide: tc and verify-lower-bound refuse more factors times n,
# summed over the rows of one invocation, before forming any product
MAX_CERTIFICATE_WORK = 20_000_000
# simulate refuses a larger n times (queries + continuity probes): a query
# and a probe each cost time and memory linear in n, and this budget bounds
# that part of a run.  It does not bound the grid check, which visits
# --steps + 1 times per query, so the slowest admitted run sits at all
# three caps: simulate 33 33 --product --queries 1000 --continuity-probes
# 500 --steps 65536 takes 3.4-5.6 s, and simulate 50 2 --queries 1000
# --steps 65536 3.0-3.7 s.  At the budget with every coordinate moving,
# simulate 100 100 --product --queries 1 --continuity-probes 499 takes
# 1.3-1.8 s and simulate 25000 25000 --product --queries 1
# --continuity-probes 1 0.9-1.7 s in 46 MB.  All whole-process on a shared
# 2-core x86-64 VM.  Every input the older budget, n squared times
# (queries + probes) at most 1,500,000, admitted still fits
MAX_SIMULATION_WORK = 50_000
_GRID_RE = re.compile(r"^n=(\d+)\.\.(\d+),r=(\d+)\.\.(\d+|n)$")
# json's spellings of the floats outside JSON proper, keyed by their repr()
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def parse_integer(text: str) -> int:
    """Every integer the command line takes: n, r, the integer options, the
    --set entries and the --grid bounds.

    int()'s own messages repeat a rejected argument whole, or name
    sys.set_int_max_str_digits() for digits past the interpreter's limit;
    neither message here repeats the argument.  Past the limit it raises
    OverflowError, which parse_args lets through to main unchanged.
    """
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise OverflowError(f"integer arguments must have at most "
                                f"{sys.get_int_max_str_digits()} digits") from None
        raise ValueError("expected a decimal integer") from None


def _parse_grid(text: str) -> list[tuple[int, int]]:
    m = _GRID_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"grid must look like n=1..6,r=1..n, got {shown(text)}")
    n_lo, n_hi, r_lo = map(parse_integer, m.group(1, 2, 3))
    r_top = None if m.group(4) == "n" else parse_integer(m.group(4))
    if r_top is not None and r_top < r_lo:
        raise ValueError(f"grid {shown(text)} is empty")
    pairs = []
    # rows with n < r_lo are empty and every later row holds a pair, so the
    # loop stops within MAX_GRID_PAIRS + 1 rows
    for n in range(max(n_lo, r_lo), n_hi + 1):
        r_hi = n if r_top is None else min(r_top, n)
        if len(pairs) + r_hi - r_lo + 1 > MAX_GRID_PAIRS:
            raise ValueError(f"--grid must name at most {MAX_GRID_PAIRS} signatures")
        pairs += [(n, r) for r in range(r_lo, r_hi + 1)]
    if not pairs:
        raise ValueError(f"grid {shown(text)} is empty")
    return pairs


def _check_certificate_work(sigs) -> None:
    work = 0
    for n, r in sigs:
        work += min(n, 2 * r - 1) * n
    if work > MAX_CERTIFICATE_WORK:
        raise InstanceTooLarge(f"certificate work (factors times n, summed over rows) "
                               f"is capped at {MAX_CERTIFICATE_WORK}")


def _parse_point(text: str, flag: str, sig, product: bool) -> SkeletonPoint:
    """The point typed after flag: n coordinates with --product, the circle
    first, and n - 1 without it, counted before any is parsed, each with a
    reduced denominator at most MAX_DENOMINATOR_BOUND."""
    # "" is the point with no coordinates, the only point when n = 1
    parts = text.split(",") if text else []
    want = sig.n if product else sig.n - 1
    if len(parts) != want:
        circle = " (the circle first)" if product else ""
        raise ValueError(f"{flag} takes {want} coordinates{circle}, got {len(parts)}")
    turns = [Turn.parse(p) for p in parts]
    if any(turn.den > MAX_DENOMINATOR_BOUND for turn in turns):
        raise ValueError(f"{flag} coordinates need reduced denominators at most "
                         f"{MAX_DENOMINATOR_BOUND}")
    if product:
        return SkeletonPoint(tuple(turns[1:]), turns[0])
    return SkeletonPoint(tuple(turns), None)


def _json(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2), for dicts with str keys,
    lists, tuples, str, int, float, bool and None; indent is the newline
    and spaces before value's closing bracket.

    json.dumps takes its pure-Python encoder whenever it indents; here
    every string and key goes through json's C string encoder.  A key that
    is not a str, or a value of any other type, raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        cells = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(cells)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # the string encoder raises TypeError for a key that is not a str.
        # A value of exact type int or str is rendered inline, as the cases
        # above render it; a bool, a subclass or anything else recurses
        cells = [f"{encode_basestring_ascii(key)}: "
                 + (int.__repr__(item) if type(item) is int else
                    encode_basestring_ascii(item) if type(item) is str else _json(item, inner))
                 for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(cells)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_tc(args) -> int:
    if args.json and args.csv:
        raise ValueError("--json and --csv cannot be combined")
    if args.grid:
        if args.n is not None or args.r is not None:
            raise ValueError("give n and r, or --grid, not both")
        pairs = _parse_grid(args.grid)
    elif args.n is not None and args.r is not None:
        pairs = [(args.n, args.r)]
    else:
        raise ValueError("give n and r, or --grid")
    _check_certificate_work([AlgebraSignature(n, r) for n, r in pairs])
    rows = [compute_bounds(n, r) for n, r in pairs]
    if args.csv:
        print(CSV_HEADER)
        for row in rows:
            print(",".join(map(str, row)))
        return 0
    if args.json:
        print(_json([b.to_jsonable() for b in rows]))
        return 0
    print(f"{'n':>3} {'r':>3} {'lower':>6} {'constructive':>13} {'dimension':>10} {'tc':>4}")
    flagged = False
    for b in rows:
        mark = " " if b.constructive_tight else "*"
        flagged = flagged or not b.constructive_tight
        print(
            f"{b.n:>3} {b.r:>3} {b.lower:>6} {b.upper_constructive:>12}{mark} "
            f"{b.upper_dimension:>10} {b.tc:>4}"
        )
    if flagged:
        print("* planner domain count exceeds tc; the planner still runs but is not optimal there")
    return 0


def cmd_verify_lower_bound(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    _check_certificate_work([sig])
    cert = lower_bound_certificate(sig, args.set)
    payload = {
        "n": sig.n,
        "r": sig.r,
        "k": cert.k,
        "index_set": list(cert.index_set),
        "factor_count": cert.factor_count,
        "component_bidegree": list(cert.component_bidegree),
        "component_terms": cert.component_terms,
        "expected_terms": cert.expected_terms,
        "sample_term": cert.sample_term,
        "ok": cert.component_terms == cert.expected_terms,
    }
    if args.json:
        print(_json(payload))
    else:
        print(f"signature: n={sig.n} r={sig.r}")
        print(f"zero-divisor factors: {cert.factor_count} (circle generator plus {sorted(cert.index_set)})")
        print(f"checked bidegree {cert.component_bidegree}: {cert.component_terms} terms "
              f"(expected {cert.expected_terms}), sample {cert.sample_term}")
        print(f"certificate: product of {cert.factor_count} zero-divisors is nonzero")
    if cert.component_terms != cert.expected_terms:
        raise CertificateFailure(
            f"component has {cert.component_terms} terms, expected {cert.expected_terms}"
        )
    return 0


def _coord_cells(column) -> list[str]:
    """One coordinate's values, a column of PlannerPath.samples, as the
    indented JSON that plan prints for them.  A resting coordinate repeats
    one Turn object, rendered once; every travel value is a new float."""
    cells = []
    last = cell = None
    for value in column:
        if value is last:
            cells.append(cell)
        elif type(value) is float:
            cells.append(f'        {{\n          "approx": {value!r}\n        }}')
        else:
            last, cell = value, f"        {encode_basestring_ascii(str(value))}"
            cells.append(cell)
    return cells


def cmd_plan(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    if sig.n * (args.steps + 2 * sig.n - 1) > MAX_PLAN_WORK:
        raise ValueError(f"n times (--steps + 2n - 1) must be at most {MAX_PLAN_WORK}")
    start = _parse_point(getattr(args, "from"), "--from", sig, args.product)
    end = _parse_point(args.to, "--to", sig, args.product)
    query = PlannerQuery(start, end)
    path = plan_product(query, sig) if args.product else plan_skeleton(query, sig)
    times, columns = path.samples(args.steps)
    head = _json({
        "n": sig.n,
        "r": sig.r,
        "mode": path.mode,
        "domain": path.domain,
        "agreement": sorted(path.agreement),
    })
    # The text of _json(doc) for doc = head plus "samples", written here:
    # the samples are most of the document, and a resting coordinate repeats
    # one value that _coord_cells renders once, where _json would render
    # every cell.  str() of a Fraction is digits and a slash, which JSON
    # strings carry unescaped; floats render with repr(), as in _json.
    # a path without coordinates (n = 1, no circle) prints "coords": []
    rows = ["[\n" + ",\n".join(cells) + "\n      ]" for cells in zip(*map(_coord_cells, columns))]
    samples = [f'    {{\n      "t": "{t}",\n      "coords": {row}\n    }}'
               for t, row in zip(map(str, times), rows or ["[]"] * len(times))]
    print(f'{head[:-2]},\n  "samples": [\n' + ",\n".join(samples) + "\n  ]\n}")
    return 0


def cmd_simulate(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    if sig.n * (args.queries + args.continuity_probes) > MAX_SIMULATION_WORK:
        raise ValueError(f"n times (--queries + --continuity-probes) must be at most "
                         f"{MAX_SIMULATION_WORK}")
    report = run_simulation(
        sig,
        mode="product" if args.product else "skeleton",
        queries=args.queries,
        steps=args.steps,
        seed=args.seed,
        denominator_bound=args.denominator_bound,
        continuity_probes=args.continuity_probes,
    )
    print(_json(report.to_jsonable()))
    return 0 if report.ok else 1


def cmd_search_zdcl(args) -> int:
    sig = AlgebraSignature(args.n, args.r)
    cup_length = zdcl_degree_one(sig)
    bounds = compute_bounds(args.n, args.r)
    payload = {
        "n": sig.n,
        "r": sig.r,
        "degree_one_length": cup_length,
        "certified_minimum": bounds.lower - 1,
        "tc": bounds.tc,
    }
    consistent = cup_length + 1 == bounds.tc
    if args.brute:
        report = zdcl_brute_force(sig)
        payload["brute_force_length"] = report.searched_length
        payload["witness"] = list(report.witness)
        consistent = consistent and report.searched_length == cup_length
    payload["cup_length"] = cup_length
    payload["conjecture"] = "consistent" if consistent else "inconsistent"
    if args.json:
        print(_json(payload))
    else:
        print(f"signature: n={sig.n} r={sig.r}")
        print(f"longest nonzero product of generator zero-divisors: {cup_length}")
        if args.brute:
            print(f"brute-force over the spanning family: {payload['brute_force_length']} "
                  f"(witness {', '.join(payload['witness']) or 'empty'})")
        print(f"certified minimum: {payload['certified_minimum']}, tc: {bounds.tc}")
        print(f"cup-length + 1 == tc: {payload['conjecture']}")
    return 0 if consistent else 1


def _parse_index_set(text: str) -> tuple[int, ...]:
    return tuple(parse_integer(part) for part in text.split(",") if part)


# the default of an option that must be given
_REQUIRED = object()

# One row per subcommand: its handler, a one-line summary, its positionals
# and its options.  A positional is (name, required) and takes an integer;
# tc's two are optional, and None when not given.  An option maps its flag
# to (converter, default, help), and a switch has converter None and
# default False.  An integer option with a range adds its floor and cap,
# (converter, default, help, floor, cap); each default lies in its range.
# A flag sets the field named by the flag without its dashes, - read as _:
# --denominator-bound sets denominator_bound.
_COMMANDS = {
    "tc": (cmd_tc, "reconciled bounds for one signature or a grid", (("n", False), ("r", False)), {
        "--grid": (str, None, "signature grid, e.g. n=1..6,r=1..n"),
        "--json": (None, False, "print the rows as JSON"),
        "--csv": (None, False, "print the rows as CSV")}),
    "verify-lower-bound": (cmd_verify_lower_bound, "expand and check the zero-divisor certificate",
                           (("n", True), ("r", True)), {
        "--set": (_parse_index_set, None, "comma-separated positive generator indices"),
        "--json": (None, False, "print the certificate as JSON")}),
    "plan": (cmd_plan, "plan one path and print sampled coordinates as JSON",
             (("n", True), ("r", True)), {
        "--from": (str, _REQUIRED, "start point, comma-separated rationals"),
        "--to": (str, _REQUIRED, "end point, comma-separated rationals"),
        "--steps": (parse_integer, 256, "sample times k/steps", 1, MAX_STEPS),
        "--product": (None, False, "plan in the circle-times-skeleton product, the circle first")}),
    "simulate": (cmd_simulate, "randomized verification of the planner invariants",
                 (("n", True), ("r", True)), {
        "--queries": (parse_integer, 100, "random queries to plan and check", 1, MAX_QUERIES),
        "--steps": (parse_integer, 256, "grid times k/steps checked per query", 1, MAX_STEPS),
        "--seed": (parse_integer, 0, "random seed"),
        "--product": (None, False, "plan in the circle-times-skeleton product"),
        "--denominator-bound": (parse_integer, 8, "largest denominator of a sampled coordinate",
                                2, MAX_DENOMINATOR_BOUND),
        "--continuity-probes": (parse_integer, 0, "query pairs probed for continuity",
                                0, MAX_CONTINUITY_PROBES)}),
    "search-zdcl": (cmd_search_zdcl,
                    "zero-divisor cup-length along one chain of generator zero-divisors",
                    (("n", True), ("r", True)), {
        "--brute": (None, False,
                    f"also search the full spanning family (n <= {BRUTE_FORCE_MAX_N})"),
        "--json": (None, False, "print the report as JSON")}),
}
# argparse's test for an argument that reads as a negative number: a value,
# never an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _field(flag: str) -> str:
    return flag[2:].replace("-", "_")


# per command, built once: the fields parse_args starts from (positionals
# None, options their defaults), the field each flag sets and the flags
# that must be given
_FIELDS = {command: ({**dict.fromkeys(name for name, _ in positionals),
                      **{_field(flag): spec[1] for flag, spec in options.items()}},
                     {flag: _field(flag) for flag in options},
                     [flag for flag, spec in options.items() if spec[1] is _REQUIRED])
           for command, (_, _, positionals, options) in _COMMANDS.items()}


def _flag(token: str, options) -> str | None:
    """The flag of options, or --help, that token names (-h, a whole flag or
    a unique prefix of one, before any "="), or None if it names none."""
    if token == "-h":
        return "--help"
    flag = token.partition("=")[0]
    if flag in options or flag == "--help":
        return flag
    found = [name for name in (*options, "--help") if name.startswith(flag)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option {flag} could match {', '.join(found)}")
    return found[0] if found else None


def _convert(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace the handler of argv's command takes: the command, func
    (the handler, or the help printer for -h and --help) and one field per
    positional and option of the command's row in _COMMANDS.

    Options may come before, between or after the positionals, and "--"
    ends them.  An option takes its value from the next argument, whatever
    it is, or after "=", and a unique prefix names it; given twice, the
    last one counts.  An argument that names no flag and reads as a
    negative number, or holds a space, is a positional, as in argparse.
    A ranged option's last value must lie in its range, checked after
    every other usage error, in the order the options were first given.
    Every usage error raises ValueError; an integer past the
    interpreter's digit limit raises parse_integer's OverflowError.
    """
    if not argv:
        raise ValueError(f"give a command: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command not in _COMMANDS:
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            return SimpleNamespace(command=None, func=_print_help)
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}), got {shown(command)}")
    handler, _, positionals, options = _COMMANDS[command]
    defaults, names, needed = _FIELDS[command]
    fields = {"command": command, "func": handler, **defaults}
    given = 0
    ended = False
    # an unknown option or one positional too many is refused after the
    # loop, so that a later -h still prints the help
    stray = None
    # each ranged option given, checked on its last value
    ranged = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--" and not ended:
            ended = True
            continue
        option = not ended and len(token) > 1 and token[0] == "-"
        flag = _flag(token, options) if option else None
        if flag is None:
            if option and not (_NEGATIVE.match(token) or " " in token):
                stray = stray or f"unknown option {shown(token)}"
                continue
            if given == len(positionals):
                stray = stray or f"unexpected argument {shown(token)}"
                continue
            name = positionals[given][0]
            fields[name] = _convert(parse_integer, token, name)
            given += 1
            continue
        if flag == "--help":
            return SimpleNamespace(command=command, func=_print_help)
        convert = options[flag][0]
        _, equals, text = token.partition("=")
        if convert is None:
            if equals:
                raise ValueError(f"{flag} takes no value")
            fields[names[flag]] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                raise ValueError(f"argument {flag}: expected one argument")
        fields[names[flag]] = _convert(convert, text, flag)
        if len(options[flag]) > 3:
            ranged.append(flag)
    if stray:
        raise ValueError(f"{stray} for {command}")
    missing = [name for name, required in positionals[given:] if required]
    if needed:
        missing += [flag for flag in needed if fields[names[flag]] is _REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    for flag in ranged:
        floor, cap = options[flag][3:]
        if fields[names[flag]] < floor:
            raise ValueError(f"{flag} must be at least {floor}")
        if fields[names[flag]] > cap:
            raise ValueError(f"{flag} must be at most {cap}")
    return SimpleNamespace(**fields)


def _spelled(flag: str, convert) -> str:
    if convert is None:
        return flag
    return f"{flag} {'INT' if convert is parse_integer else _field(flag).upper()}"


def _usage(command: str) -> str:
    _, _, positionals, options = _COMMANDS[command]
    words = [name if required else f"[{name}]" for name, required in positionals]
    words += [_spelled(flag, convert) for flag, (convert, default, *_) in options.items()
              if default is _REQUIRED]
    return " ".join(["torustc", command, *words, "[options]"])


def _print_help(args) -> int:
    """Print every command's usage, or args.command's usage and options."""
    if args.command is None:
        lines = ["usage: torustc <command> [options]", "",
                 "Exact motion-planning complexity bounds on torus skeletons.", "", "commands:"]
        for command, (_, summary, _, _) in _COMMANDS.items():
            lines += [f"  {_usage(command)}", f"      {summary}"]
        lines += ["",
                  "Options go before, between or after n and r, as --flag value or --flag=value;",
                  "a unique prefix names a flag.  torustc <command> --help lists its options.",
                  "Exit status: 0 when every check passes, 1 when one fails, 2 on bad arguments."]
    else:
        _, summary, _, options = _COMMANDS[args.command]
        lines = [f"usage: {_usage(args.command)}", "", summary, "", "options:"]
        for flag, (convert, default, text, *bounds) in options.items():
            if convert is parse_integer:
                span = f", range {bounds[0]}..{bounds[1]}" if bounds else ""
                text += f" (default {default}{span})"
            lines.append(f"  {_spelled(flag, convert):<24} {text}")
        lines.append(f"  {'-h, --help':<24} print this help")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        # a reader that closed stdout early shows here at the latest
        sys.stdout.flush()
        return code
    # InvalidSignature, InvalidEndpoint and InstanceTooLarge are ValueErrors
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificateFailure, BoundMismatch) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is still buffered goes to the null device, so that the flush
        # at exit raises nothing and the interpreter prints nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
