"""qcovert: deterministic CSV/JSON sweep tables for the analysis library.

``COMMANDS`` is the one command table: each command's handler, one-line
help and options (``qcovert --help`` lists the commands), its config keys
and its output columns with their kinds (``int``, ``float``, ``str`` or
``bool``).  A handler parses its options and calls one table function.
It returns ``(values, rows)``: the config values, a tuple in the declared
keys' order, and the list the table function returned, passed through
unchanged.  Each table's rows are its command's rows: one tuple per row
(a NamedTuple is one) whose every cell is exactly its column's kind.

A call builds at most one parser, and a well-formed argv builds none and
never imports argparse.  An argv that starts with a command name (or its
underscore alias) and holds no ``--`` goes straight to that command; any
other argv (none, ``--help``, an unknown command, an option before the
command, or one with ``--`` in it) goes to the top-level parser, which
prints the help or the error or hands the command its options.  Options
made only of ``--flag value`` pairs, with exact flag names, values that
do not start with ``-`` and each value of its option's type and choices,
are read straight from the table into a copy of the command's defaults
(attribute names and defaults are built at import) and handed to the
handler as a ``SimpleNamespace`` of argparse's attributes.  Anything else
(help, an abbreviation, ``--flag=value``, a negative number, a bad value)
goes to the command's argparse parser, which reads it or prints the help
or the error.  ``decimal`` likewise loads only for an integer grid entry
such as ``1e4``, and numpy only with ``detect-sim``'s E1 block route;
``rate-table``'s Phi^{-1}(eps) is plain ``math``.

Each command's output format is built once, at import, by
``_table_format``: the CSV header and row template, the JSON row
template, and the JSON config head with the command's name written in.
A call fills one ``%`` template per row: a ``float`` column is
``%.12g`` in CSV and ``%s`` in JSON, an ``int`` column ``%d``, a ``str``
column ``"%s"`` in JSON, and only a row's ``bool`` cells are converted,
in place, one value at a time.  A float column that holds inf or nan
(each column's scan ends at its first) is converted per value in JSON,
that column only, by ``_json_float``, which writes the config's floats
too.  A table with a ``str`` or ``bool`` column has no CSV templates,
and ``main`` refuses ``--format csv`` for it before its handler runs.  A
JSON config value is a scalar or a flat, non-empty list, written by its
exact type (``int``, ``float`` or ``None``) through one dict,
``_SCALAR_TEXT``.  The writer
serves the tables the commands print: at least 2 columns, at least 1
row, tuple rows, numbers only in CSV, text (cells, column names, config
keys and the command name) that JSON writes with no escape, and config
values of an exact type in ``_SCALAR_TEXT`` or flat, non-empty lists of
them; the tests hold every command to that.  Within it, the text is byte
for byte what ``csv.writer`` (floats to 12 significant digits) and
``json.dumps(indent=2)`` (non-finite floats as the CSV's strings, booleans
in lower case) write; that route is kept as the test oracle
``oracles.stdlib_table_text``.  ``--out`` gets the encoded text in one
``os.write`` (looped until every byte is out) on one ``os.open``.
A float option and a grid entry of -0.0 are read as 0.0, so no echoed
input prints a signed zero, and an integer grid takes only exact
integers, each at its exact value (``parse_int_grid``).

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
Identical configurations produce byte-identical output files.
"""

import math
import os
import sys
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from .channels import Scenario, scenario_reports
from .covert import capacity_curve, check_nu, moment_curve, rate_reports, schedule_weights
from .detection import MAX_USES, MAX_USES_ALLENV, warden_errors


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


def _exact_int(entry: str) -> int:
    """A grid entry's exact value, by int() or else Decimal: ValueError unless an integer."""
    try:
        return int(entry)  # a plain integer, in about a quarter of the Decimal route's time
    except ValueError:
        pass
    from decimal import Decimal  # loaded only for an entry such as 1e4
    value = Decimal(entry)
    if value != value.to_integral_value():
        raise ValueError(f"grid entry {entry.strip()!r} is not an integer")
    return int(value)


def parse_int_grid(text: str) -> list[int]:
    """Integer grid: a grid of parse_grid's forms whose every entry is exactly an integer.

    parse_grid checks the grid first.  A list's entries are then each read
    by ``_exact_int``, at their exact value, so 1e4 and 2.0 are read, and
    2.5 and 1.00000000000000001 refused.  A range's start and step must be
    exact integers and its entries below 2**53, where parse_grid's floats
    a + k*step, and its count of them, are exact.
    """
    floats = parse_grid(text)
    if ":" not in text:
        return [_exact_int(p) for p in text.split(",") if p.strip()]
    a, _, step = text.split(":")
    _exact_int(a), _exact_int(step)
    if max(map(abs, floats)) >= 2.0**53:
        raise ValueError(f"grid {text.strip()!r} has an entry past 2**53")
    return list(map(int, floats))


def _json_float(value: float) -> str:
    """A float as json.dumps writes it, or, if not finite, as the string the CSV prints."""
    return float.__repr__(value) if math.isfinite(value) else f'"{value:.12g}"'


_BOOL_TEXT = {True: "true", False: "false"}.__getitem__

# A JSON config scalar's text by its exact type: every config value is of one of these types
# or a list of them.
_SCALAR_TEXT = {int: int.__repr__, float: _json_float, type(None): lambda value: "null"}


def _json_value(value) -> str:
    """A config value, a scalar or a flat non-empty list, as json.dumps(indent=2) writes it."""
    if type(value) is not list:
        return _SCALAR_TEXT[type(value)](value)
    return "[\n      " + ",\n      ".join([_SCALAR_TEXT[type(v)](v) for v in value]) + "\n    ]"


# Per column kind: its CSV field (None: the table is JSON only) and its JSON field.
_KINDS = {
    float: ("%.12g", "%s"),  # %s of an exact float is float.__repr__
    int: ("%d", "%d"),
    str: (None, '"%s"'),  # text that needs no JSON escape
    bool: (None, "%s"),  # each cell made _BOOL_TEXT first
}


class TableFormat(NamedTuple):
    """A table's output templates: per call, one ``%`` fill per row and the listed conversions."""

    csv_head: str | None  # the header line, or None for a JSON-only table
    csv_row: str | None   # one row's line, its "\r\n" included, or None for a JSON-only table
    json_head: str        # '{"config": {"command": ..., ...}, "rows": ', one %s per config value
    json_row: str         # one row's object
    json_convert: tuple   # (column index, per-cell conversion) of each bool column
    json_floats: tuple    # (column index, cell getter) of each float column


def _table_format(command: str, columns: dict, config_keys) -> TableFormat:
    """The templates of a table whose column ``name`` holds cells of kind ``columns[name]``.

    The JSON config is ``command``'s name and then a value per config key;
    the table has at least 2 columns.  A table with a ``str`` or ``bool``
    column has no CSV templates.
    """
    csv_fields, json_fields, convert, floats = [], [], [], []
    for i, (name, kind) in enumerate(columns.items()):
        csv_field, json_field = _KINDS[kind]
        csv_fields.append(csv_field)
        json_fields.append(f'\n      "{name}": {json_field}')
        if kind is bool:
            convert.append((i, _BOOL_TEXT))
        if kind is float:
            floats.append((i, itemgetter(i)))
    csv = None not in csv_fields
    config = "".join(f',\n    "{key}": %s' for key in config_keys)
    return TableFormat(
        csv_head=",".join(columns) + "\r\n" if csv else None,
        csv_row=",".join(csv_fields) + "\r\n" if csv else None,
        json_head=f'{{\n  "config": {{\n    "command": "{command}"{config}\n  }},\n  "rows": ',
        json_row="    {" + ",".join(json_fields) + "\n    }",
        json_convert=tuple(convert),
        json_floats=tuple(floats),
    )


def _filled(template: str, convert: tuple, rows: list):
    """``template % row`` per row tuple, each cell i of ``convert``'s (i, f) made f(cell) first."""
    if not convert:
        return map(template.__mod__, rows)
    lines = []
    for row in rows:
        cells = list(row)
        for i, f in convert:
            cells[i] = f(cells[i])
        lines.append(template % tuple(cells))
    return lines


def _json_text(form: TableFormat, values: tuple, rows: list) -> str:
    """``{"config": {...}, "rows": [one object per row]}`` as json.dumps(indent=2) writes it."""
    head = form.json_head % tuple(map(_json_value, values))
    convert = form.json_convert
    for i, cell in form.json_floats:  # each scan ends at its column's first inf or nan
        if not all(map(math.isfinite, map(cell, rows))):
            convert += ((i, _json_float),)
    return head + "[\n" + ",\n".join(_filled(form.json_row, convert, rows)) + "\n  ]\n}\n"


def write_output(form: TableFormat, values: tuple, rows: list, args) -> None:
    """Write the table and its config ``values`` in ``args.format`` to ``args.out`` or stdout."""
    if args.format == "csv":
        text = form.csv_head + "".join(map(form.csv_row.__mod__, rows))
    else:
        text = _json_text(form, values, rows)
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
    return (q_grid,), capacity_curve(q_grid)


def cmd_approx_check(args):
    alpha_grid = parse_grid(args.alpha_grid)
    return (args.q, alpha_grid), moment_curve(alpha_grid, args.q)


def cmd_rate_table(args):
    n_grid = parse_int_grid(args.n_grid)
    return (n_grid, args.nu, args.eps, args.q), rate_reports(n_grid, args.nu, args.q, args.eps)


_ALL_SCENARIOS = tuple(map(int, Scenario))


def cmd_scenario(args):
    scenarios = [args.scenario] if args.scenario else list(_ALL_SCENARIOS)
    return (args.q, scenarios), scenario_reports(args.q, scenarios)


def cmd_detect_sim(args):
    check_nu(args.nu)  # echoed in the config even when --alpha-grid replaces the schedule
    n_grid = parse_int_grid(args.n_grid)
    alpha_grid = None if args.alpha_grid is None else parse_grid(args.alpha_grid)
    if alpha_grid is not None and len(n_grid) * len(alpha_grid) > MAX_GRID_POINTS:
        raise ValueError(f"the n x alpha grid has more than {MAX_GRID_POINTS} entries")
    if alpha_grid is None:
        ns, alphas = n_grid, list(schedule_weights(n_grid, args.nu))
    else:
        ns = [n for n in n_grid for _ in alpha_grid]
        alphas = alpha_grid * len(n_grid)
    return ((n_grid, args.q, args.scenario, args.nu, alpha_grid),
            warden_errors(ns, alphas, args.q, args.scenario))


class Command(NamedTuple):
    """One command of ``COMMANDS``."""

    handler: str   # its cmd_* name here, looked up per call: a replaced cmd_* runs
    help: str      # one line, for qcovert --help
    options: dict  # its options beyond --out and --format's CSV default, as add_argument keywords
    config: tuple  # its config's keys after "command", in the order of its handler's values
    columns: dict  # each output column's name and the kind of its cells


COMMANDS = {
    "bound-curve": Command(
        "cmd_bound_curve", "capacity lower bound and eta versus q",
        {"--q-grid": {"default": "0.05:0.95:0.05", "help": "q values: a:b:step or comma list"}},
        ("q_grid",), {"q": float, "eta": float, "capacity_lb": float}),
    "approx-check": Command(
        "cmd_approx_check", "exact vs leading-order D, V, Q over an alpha grid",
        {"--q": {"type": _float, "default": 0.5},
         "--alpha-grid": {"default": "1e-3,1e-4,1e-5,1e-6"}},
        ("q", "alpha_grid"),
        dict.fromkeys(["alpha", "q", "D_exact", "D_lead", "V_exact", "V_lead", "Q_exact",
                       "ratio_D", "ratio_V"], float)),
    "rate-table": Command(
        "cmd_rate_table", "finite-blocklength covert rates under the schedule",
        {"--n-grid": {"default": "1e4,1e5,1e6"},
         "--nu": {"type": _float, "default": 0.05},
         "--eps": {"type": _float, "default": 0.05},
         "--q": {"type": _float, "default": 0.5}},
        ("n_grid", "nu", "eps", "q"),
        {"n": int, **dict.fromkeys(["nu", "q", "alpha_n", "logM_lemma1", "logM_lemma2",
                                    "div_total", "L_n", "L_limit"], float)}),
    "scenario": Command(
        "cmd_scenario", "feasibility report per warden scenario (JSON only)",
        {"--format": {"choices": ("csv", "json"), "default": "json"},
         "--q": {"type": _float, "default": 0.5},
         "--scenario": {"type": int, "choices": (1, 2, 3),
                        "help": "restrict to one scenario (default: all three)"}},
        ("q", "scenarios"),
        {"scenario": int, "label": str, "q": float, "support_contained": bool,
         "kernel_overlap": float, "trace_distance": float, "det_omega0": float,
         "det_omega1": float, "verdict": str, "note": str}),
    "detect-sim": Command(
        "cmd_detect_sim",
        f"exact warden detection simulation, n <= {MAX_USES} ({MAX_USES_ALLENV} for scenario 1)",
        {"--n-grid": {"default": "1,2,3,4,5,6,7,8"},
         "--q": {"type": _float, "default": 0.5},
         "--scenario": {"type": int, "choices": (1, 2, 3), "default": 3},
         "--nu": {"type": _float, "default": 0.05,
                  "help": "schedule exponent setting alpha_n = n**(nu - 2/3)"},
         "--alpha-grid": {"help": "fixed alpha values instead of the schedule"}},
        ("n_grid", "q", "scenario", "nu", "alpha_grid"),
        {"n": int, **dict.fromkeys(["alpha", "trace_dist", "E_n", "pinsker_floor",
                                    "div_total"], float)}),
}

# Built once at import; callers share them and change none.  Per command: every option as
# add_argument keywords (--out, --format, its own; a command's --format entry replaces the
# default one in second place); the direct read's flag -> (attribute, type, choices) and
# attribute -> default, in the order argparse sets them; its output format.
_OPTION_TABLES = {
    name: {"--out": {"help": "output file path (default: stdout)"},
           "--format": {"choices": ("csv", "json"), "default": "csv"},
           **command.options}
    for name, command in COMMANDS.items()
}
_PLAIN_FLAGS = {
    name: {flag: (flag[2:].replace("-", "_"), spec.get("type"), spec.get("choices"))
           for flag, spec in options.items()}
    for name, options in _OPTION_TABLES.items()
}
_DEFAULTS = {
    name: {flag[2:].replace("-", "_"): spec.get("default") for flag, spec in options.items()}
    for name, options in _OPTION_TABLES.items()
}
_FORMATS = {name: _table_format(name, command.columns, command.config)
            for name, command in COMMANDS.items()}


def _plain_options(name: str, rest: list):
    """The options argparse would read from command ``name``'s ``rest``, or None to defer to it.

    Reads only ``--flag value`` pairs: each flag one of the command's
    options exactly, each value not starting with "-", converted by the
    option's type and within its choices; the last of a repeated flag wins,
    as in argparse.  The result is a ``SimpleNamespace`` holding argparse's
    attributes, in argparse's order, with its values.
    """
    if len(rest) % 2:
        return None
    flags = _PLAIN_FLAGS[name]
    values = _DEFAULTS[name].copy()
    for flag, text in zip(rest[::2], rest[1::2]):
        option = flags.get(flag)
        if option is None or text.startswith("-"):
            return None
        attr, kind, choices = option
        if kind is not None:
            try:
                text = kind(text)
            except ValueError:
                return None
        if choices is not None and text not in choices:
            return None
        values[attr] = text
    return SimpleNamespace(**values)


def _top_parser():
    """The parser of ``qcovert [-h] command ...``: the command, then its options unread."""
    import argparse  # loaded only when an argv needs a parser

    top = argparse.ArgumentParser(
        prog="qcovert", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Covert-communication analysis tables for the qubit depolarizing channel.",
        epilog="commands:\n" + "".join(f"  {n:<14}{c.help}\n" for n, c in COMMANDS.items()),
    )
    top.add_argument("command", metavar="command",
                     choices=dict.fromkeys(a for n in COMMANDS for a in (n, n.replace("-", "_"))),
                     help="one of the commands below, or its underscore alias")
    rest = top.add_argument("args", nargs=argparse.REMAINDER,
                            help="the command's options, listed by: qcovert command --help")
    rest.required = False  # with no argv, name only the missing command
    return top


def _command_parser(name: str):
    """The parser of ``qcovert name [-h] [options]``, for help, abbreviations and errors."""
    import argparse  # loaded only when an argv needs a parser

    parser = argparse.ArgumentParser(prog=f"qcovert {name}", description=COMMANDS[name].help)
    for flag, spec in _OPTION_TABLES[name].items():
        parser.add_argument(flag, **spec)
    return parser


def _parse_args(argv):
    """Return the name of argv's command and the options read for it.

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
    args = _plain_options(name, rest)
    if args is None:
        args = _command_parser(name).parse_args(rest)
    return name, args


def main(argv=None) -> int:
    name, args = _parse_args(argv)
    try:
        if args.format == "csv" and _FORMATS[name].csv_row is None:
            raise ValueError(f"{name} reports are JSON only; drop --format csv")
        values, rows = globals()[COMMANDS[name].handler](args)
        write_output(_FORMATS[name], values, rows, args)
    except (ValueError, OSError) as exc:
        print(f"qcovert: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"qcovert: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
