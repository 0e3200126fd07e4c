"""qcovert: deterministic CSV/JSON sweep tables for the analysis library.

``COMMANDS`` is the one command table: each command's handler, one-line
help and options (``qcovert --help`` lists the commands).  A call builds
at most one parser, and a well-formed argv builds none.  An argv that
starts with a command name (or its underscore alias) and holds no ``--``
goes straight to that command; any other argv (none, ``--help``, an
unknown command, an option before the command, or one with ``--`` in it)
goes to the top-level parser, which prints the help or the error or
hands the command its options.  Options made only of ``--flag value``
pairs, with exact flag names, values that do not start with ``-`` and
each value of its option's type and choices, are read straight from the
table.  Anything else (help, an abbreviation, ``--flag=value``, a
negative number, a bad value) goes to the command's argparse parser,
which reads it or prints the help or the error.

``write_output`` writes every table through one row template.  A column
holding only floats or only ints is one ``%`` conversion of the template
(``%.12g`` or ``%d`` in CSV, ``%r`` for finite floats or ``%d`` in JSON);
any other column is converted per value, and the JSON keys are written
once per table.  The text is byte for byte what ``csv.writer`` over
``_fmt``, and ``json.dumps(indent=2)`` with non-finite floats as the CSV's
strings, write; that route is kept as the test oracle
``oracles.stdlib_table_text``.  ``--out`` gets the encoded text in one
``os.write`` (looped until every byte is out) on one ``os.open``.  In
process, a ``scenario --q 0.37 --out FILE`` call to a new file takes about
125 us: 14 us reading the argv, 27 us of closed forms, 62 us writing the
JSON text and 19 us creating and writing the file (medians of 3500
interleaved calls, one 2-core x86-64 host).  A float option and a grid
entry of -0.0 are read as 0.0, so no echoed input prints a signed zero.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .channels import ChannelSpec, Scenario, scenario_reports
from .covert import capacity_curve, check_nu, moment_curve, rate_reports, schedule_weights
from .detection import warden_errors


MAX_GRID_POINTS = 10_000
# How ``--out`` is opened: created or truncated, and written as bytes (O_BINARY on Windows).
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _float(text: str) -> float:
    """A float option's value, with -0.0 read as 0.0 so that no echoed input is a signed zero."""
    return float(text) + 0.0


_float.__name__ = "float"  # the type argparse names in "invalid float value"


def parse_grid(text: str) -> list[float]:
    """Parse a grid spec: either 'a:b:step' or a comma-separated list.

    Every entry must be finite, and -0.0 is read as 0.0 (a range's
    entries are a + k*step, so its start is too).  A range has at most
    MAX_GRID_POINTS entries; its length is checked before any list is built.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not of the form a:b:step")
        a, b, step = (float(p) for p in parts)
        if not (step > 0.0) or not all(map(math.isfinite, (a, b, step))):
            raise ValueError(f"grid {text!r} needs a finite positive step and finite ends")
        # The upper end is inclusive up to a slack of 1e-9 steps.
        span = (b - a) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} entries")
        if span < 0.0:
            raise ValueError(f"grid {text!r} is empty")
        return [a + k * step for k in range(math.floor(span) + 1)]
    values = [float(p) + 0.0 for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid {text!r} has a non-finite entry")
    return values


def parse_int_grid(text: str) -> list[int]:
    """Integer grid: accepts scientific notation entries like 1e4."""
    values = []
    for v in parse_grid(text):
        n = int(round(v))
        if abs(v - n) > 1e-6 * max(1.0, abs(v)):
            raise ValueError(f"grid entry {v!r} is not an integer")
        values.append(n)
    return values


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_value(value) -> str:
    """``_fmt(value)`` as csv.writer's QUOTE_MINIMAL writes it."""
    text = _fmt(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value, indent: str = "") -> str:
    """``value`` as json.dumps(indent=2) writes it at ``indent``, non-finite floats as strings.

    Lists and dicts nest; a float goes through ``float.__repr__`` (``repr``
    would print an ``np.float64(...)``), or, if not finite, as the string
    the CSV prints.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{_fmt(value)}"'
    inner = indent + "  "
    if isinstance(value, list):
        items = [f"\n{inner}{_json_value(v, inner)}" for v in value]
        return "[" + ",".join(items) + f"\n{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"\n{inner}{encode_basestring_ascii(k)}: {_json_value(v, inner)}"
                 for k, v in value.items()]
        return "{" + ",".join(items) + f"\n{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_cell(value) -> str:
    return _json_value(value, "      ")


def _filled(template: str, convert: list, rows: list[list], cols: list[tuple]) -> list[str]:
    """``template % row`` for each row, column ``cols[i]`` first mapped by ``convert[i]`` if set."""
    if any(convert):
        rows = zip(*[col if f is None else map(f, col) for f, col in zip(convert, cols)])
    return [template % tuple(row) for row in rows]


def _csv_text(columns: list[str], rows: list[list]) -> str:
    """The table as csv.writer writes the ``_fmt`` of each value.

    A column of floats is one ``%.12g`` and a column of ints one ``%d`` in
    the row template; any other column is ``_fmt`` and quoted per value.
    """
    cols = list(zip(*rows))
    kinds = [set(map(type, col)) for col in cols]
    template = ",".join("%.12g" if k == {float} else "%d" if k == {int} else "%s" for k in kinds)
    convert = [None if k == {float} or k == {int} else _csv_value for k in kinds]
    lines = [",".join(map(_csv_value, columns)), *_filled(template, convert, rows, cols)]
    if len(columns) == 1:  # csv.writer quotes a lone empty field
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n"


def _json_text(config: dict, columns: list[str], rows: list[list]) -> str:
    """``{"config": config, "rows": [one object per row]}`` as json.dumps(indent=2) writes it.

    Each row fills one template: the keys are written once per table, a
    column of finite floats is one ``%r`` (of exact type ``float``, so
    ``float.__repr__``) and a column of ints one ``%d``, and any other
    column is ``_json_value`` per value.
    """
    head = '{\n  "config": ' + _json_value(config, "  ") + ',\n  "rows": '
    if not rows:
        return head + "[]\n}\n"
    cols = list(zip(*rows))
    fields, convert = [], []
    for key, col in zip(columns, cols):
        kinds = set(map(type, col))
        if kinds == {float} and all(map(math.isfinite, col)):
            spec, f = "%r", None
        elif kinds == {int}:
            spec, f = "%d", None
        else:
            spec, f = "%s", encode_basestring_ascii if kinds == {str} else _json_cell
        fields.append("\n      " + encode_basestring_ascii(key).replace("%", "%%") + ": " + spec)
        convert.append(f)
    template = "    {" + ",".join(fields) + "\n    }" if fields else "    {}"
    return head + "[\n" + ",\n".join(_filled(template, convert, rows, cols)) + "\n  ]\n}\n"


def write_output(config: dict, columns: list[str], rows: list[list], args) -> None:
    text = _csv_text(columns, rows) if args.format == "csv" else _json_text(config, columns, rows)
    if args.out:
        data = text.encode()
        fd = os.open(args.out, _OUT_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    else:
        sys.stdout.write(text)


def cmd_bound_curve(args):
    q_grid = parse_grid(args.q_grid)
    config = {"command": "bound-curve", "q_grid": q_grid}
    columns = ["q", "eta", "capacity_lb"]
    rows = [[q, eta, cap] for q, (eta, cap) in zip(q_grid, capacity_curve(q_grid))]
    return config, columns, rows


def cmd_approx_check(args):
    alpha_grid = parse_grid(args.alpha_grid)
    config = {"command": "approx-check", "q": args.q, "alpha_grid": alpha_grid}
    columns = [
        "alpha", "q", "D_exact", "D_lead", "V_exact", "V_lead",
        "Q_exact", "ratio_D", "ratio_V",
    ]
    rows = [[a, args.q, *row] for a, row in zip(alpha_grid, moment_curve(alpha_grid, args.q))]
    return config, columns, rows


def cmd_rate_table(args):
    if not (0.0 < args.q < 1.0):
        raise ValueError(f"q={args.q:g} outside (0, 1)")
    n_grid = parse_int_grid(args.n_grid)
    config = {
        "command": "rate-table",
        "n_grid": n_grid,
        "nu": args.nu,
        "eps": args.eps,
        "q": args.q,
    }
    columns = [
        "n", "nu", "q", "alpha_n", "logM_lemma1", "logM_lemma2",
        "div_total", "L_n", "L_limit",
    ]
    rows = [
        [rep.n, rep.nu, rep.q, rep.alpha_n, rep.logM_finite, rep.logM_asymptotic,
         rep.willie_div_total, rep.covert_rate_L, rep.covert_rate_limit]
        for rep in rate_reports(n_grid, args.nu, args.q, args.eps)
    ]
    return config, columns, rows


def cmd_scenario(args):
    if args.format == "csv":
        raise ValueError("scenario reports are JSON only; drop --format csv")
    scenarios = [Scenario(args.scenario)] if args.scenario else list(Scenario)
    config = {
        "command": "scenario",
        "q": args.q,
        "scenarios": [int(s) for s in scenarios],
    }
    columns = [
        "scenario", "label", "q", "support_contained", "kernel_overlap",
        "trace_distance", "det_omega0", "det_omega1", "verdict", "note",
    ]
    # a report's fields after its scenario are the columns after the label, in order
    rows = [[int(rep.scenario), rep.scenario.name, *rep[1:]]
            for rep in scenario_reports(args.q, scenarios)]
    return config, columns, rows


def cmd_detect_sim(args):
    check_nu(args.nu)  # echoed in the config even when --alpha-grid replaces the schedule
    n_grid = parse_int_grid(args.n_grid)
    spec = ChannelSpec(args.q, Scenario(args.scenario))
    alpha_grid = parse_grid(args.alpha_grid) if args.alpha_grid else None
    if alpha_grid and len(n_grid) * len(alpha_grid) > MAX_GRID_POINTS:
        raise ValueError(f"the n x alpha grid has more than {MAX_GRID_POINTS} entries")
    config = {
        "command": "detect-sim",
        "n_grid": n_grid,
        "q": args.q,
        "scenario": int(spec.scenario),
        "nu": args.nu,
        "alpha_grid": alpha_grid,
    }
    columns = ["n", "alpha", "trace_dist", "E_n", "pinsker_floor", "div_total"]
    if alpha_grid is None:
        ns, alphas = n_grid, list(schedule_weights(n_grid, args.nu))
    else:
        ns = [n for n in n_grid for _ in alpha_grid]
        alphas = alpha_grid * len(n_grid)
    rows = [
        [r.n, r.alpha, r.trace_dist, r.error_prob, r.pinsker_floor, r.div_total]
        for r in warden_errors(ns, alphas, spec)
    ]
    return config, columns, rows


# Each command: its handler's name here (looked up per call, so a replaced cmd_* is what
# runs), its one-line help, and its options beyond --out and --format (see ``_OPTION_TABLES``)
# as add_argument keywords.
COMMANDS = {
    "bound-curve": ("cmd_bound_curve", "capacity lower bound and eta versus q", {
        "--q-grid": {"default": "0.05:0.95:0.05", "help": "q values: a:b:step or comma list"}}),
    "approx-check": ("cmd_approx_check", "exact vs leading-order D, V, Q over an alpha grid", {
        "--q": {"type": _float, "default": 0.5},
        "--alpha-grid": {"default": "1e-3,1e-4,1e-5,1e-6"}}),
    "rate-table": ("cmd_rate_table", "finite-blocklength covert rates under the schedule", {
        "--n-grid": {"default": "1e4,1e5,1e6"},
        "--nu": {"type": _float, "default": 0.05},
        "--eps": {"type": _float, "default": 0.05},
        "--q": {"type": _float, "default": 0.5}}),
    "scenario": ("cmd_scenario", "feasibility report per warden scenario (JSON only)", {
        "--q": {"type": _float, "default": 0.5},
        "--scenario": {"type": int, "choices": (1, 2, 3),
                       "help": "restrict to one scenario (default: all three)"}}),
    "detect-sim": ("cmd_detect_sim",
                   "exact warden detection simulation, n <= 100 (30 for scenario 1)", {
        "--n-grid": {"default": "1,2,3,4,5,6,7,8"},
        "--q": {"type": _float, "default": 0.5},
        "--scenario": {"type": int, "choices": (1, 2, 3), "default": 3},
        "--nu": {"type": _float, "default": 0.05,
                 "help": "schedule exponent setting alpha_n = n**(nu - 2/3)"},
        "--alpha-grid": {"help": "fixed alpha values instead of the schedule"}}),
}


# Every option of each command as add_argument keywords: --out, --format, its own.  Built
# once at import; callers share the dicts and change none.
_OPTION_TABLES = {
    name: {"--out": {"help": "output file path (default: stdout)"},
           "--format": {"choices": ("csv", "json"),
                        "default": "json" if name == "scenario" else "csv"},
           **options}
    for name, (_, _, options) in COMMANDS.items()
}


def _plain_options(options: dict, rest: list):
    """The Namespace argparse would read from ``rest``, or None to leave ``rest`` to argparse.

    Reads only ``--flag value`` pairs: each flag one of ``options`` exactly,
    each value not starting with "-", converted by the option's type and
    within its choices; the last of a repeated flag wins, as in argparse.
    """
    if len(rest) % 2:
        return None
    read = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        spec = options.get(flag)
        if spec is None or text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        read[flag] = value
    return argparse.Namespace(**{flag[2:].replace("-", "_"): read.get(flag, spec.get("default"))
                                 for flag, spec in options.items()})


def _top_parser() -> argparse.ArgumentParser:
    """The parser of ``qcovert [-h] command ...``: the command, then its options unread."""
    top = argparse.ArgumentParser(
        prog="qcovert", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Covert-communication analysis tables for the qubit depolarizing channel.",
        epilog="commands:\n" + "".join(f"  {n:<14}{h}\n" for n, (_, h, _) in COMMANDS.items()),
    )
    top.add_argument("command", metavar="command",
                     choices=dict.fromkeys(a for n in COMMANDS for a in (n, n.replace("-", "_"))),
                     help="one of the commands below, or its underscore alias")
    rest = top.add_argument("args", nargs=argparse.REMAINDER,
                            help="the command's options, listed by: qcovert command --help")
    rest.required = False  # with no argv, name only the missing command
    return top


def _command_parser(name: str, options: dict) -> argparse.ArgumentParser:
    """The parser of ``qcovert name [-h] [options]``, for help, abbreviations and errors."""
    parser = argparse.ArgumentParser(prog=f"qcovert {name}", description=COMMANDS[name][1])
    for flag, spec in options.items():
        parser.add_argument(flag, **spec)
    return parser


def _parse_args(argv):
    """Return the handler of argv's command and the options read for it.

    For a command-first argv the top-level parser's REMAINDER would hand the
    command argv[1:] unchanged, so it is skipped; only a "--" (which that
    REMAINDER may strip) keeps such an argv on the top-level route.  The
    command's own parser is built only when ``_plain_options`` declines.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # No command name has two hyphens, so this accepts exactly the top parser's choices.
    name = argv[0].replace("_", "-") if argv else None
    if name in COMMANDS and "--" not in argv:
        rest = argv[1:]
    else:
        head = _top_parser().parse_args(argv)
        name, rest = head.command.replace("_", "-"), head.args
    options = _OPTION_TABLES[name]
    args = _plain_options(options, rest)
    if args is None:
        args = _command_parser(name, options).parse_args(rest)
    return globals()[COMMANDS[name][0]], args


def main(argv=None) -> int:
    handler, args = _parse_args(argv)
    try:
        config, columns, rows = handler(args)
        write_output(config, columns, rows, args)
    except (ValueError, OSError) as exc:
        print(f"qcovert: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"qcovert: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
