"""The CLI's table writers against the standard library, byte for byte.

``cli.write_output`` fills the row templates that ``cli._table_format``
builds from each column's declared kind; the stdlib route it replaced
(``csv.writer`` over ``_fmt``, ``json.dumps(indent=2)`` with non-finite
floats as strings) is kept as ``oracles.stdlib_table_text``.  Tables are
drawn column by column: a random name and kind per column, and hostile
cells of that kind (signed zeros, infinities, nan, the smallest subnormal,
ints past 2**53, text with the CSV's and the templates' special
characters).  A float column sometimes holds inf or nan, which takes the
JSON writer's per-value fallback, and sometimes holds only finite values.

Tables stay in the writer's domain, the one every command's table is in
(``tests/test_golden.py`` checks each, and the last test here checks the
text): at least 2 columns, at least 1 row, tuple rows; only ``float`` and
``int`` columns in a CSV table; text cells of printable ASCII without
``"`` or ``\\``, which JSON writes unescaped; a command name, column names
and config keys of ``[A-Za-z][A-Za-z0-9_-]*``; and config values each of an
exact type in ``cli._SCALAR_TEXT`` or a flat, non-empty list of such values.
"""

import argparse
import contextlib
import io
import json
import math
import re

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import stdlib_table_text
from qcovert import Scenario, cli, scenario_reports

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
           2.0**53 + 2.0]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([x for x in SPECIAL if math.isfinite(x)]))
BIG = st.integers(min_value=2**53 + 1, max_value=2**80)
INTS = st.one_of(st.integers(), BIG, BIG.map(lambda n: -n))
NAME_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")  # D_exact and L_n have capitals
# at most 6 characters, so no config key is "command"
NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,5}", fullmatch=True)
# printable ASCII without '"' or '\', with the CSV's "," and a template's "%" drawn often
TEXT = st.text(st.one_of(st.sampled_from(",% "),
                         st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                       exclude_characters='"\\')), max_size=6)
# (declared kind, its cells): a float column with and without inf and nan
NUMBERS = [(float, FLOATS), (float, FINITE), (int, INTS)]
KINDS = {"csv": NUMBERS, "json": [*NUMBERS, (str, TEXT), (bool, st.booleans())]}
CONFIG_VALUES = st.one_of(FLOATS, INTS, st.none())


@st.composite
def tables(draw, fmt):
    names = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(KINDS[fmt])) for _ in names]
    n_rows = draw(st.integers(min_value=1, max_value=4))
    values = [draw(st.lists(cells, min_size=n_rows, max_size=n_rows)) for _, cells in kinds]
    rows = list(zip(*values))
    config = draw(st.dictionaries(NAMES, st.one_of(CONFIG_VALUES,
                                                   st.lists(CONFIG_VALUES, min_size=1,
                                                            max_size=3)),
                                  max_size=4))
    return draw(NAMES), config, rows, dict(zip(names, (kind for kind, _ in kinds)))


def written(command, config, rows, columns, fmt):
    form = cli._table_format(command, columns, config.keys())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_output(form, tuple(config.values()), rows,
                         argparse.Namespace(format=fmt, out=None))
    return out.getvalue()


def expected(command, config, rows, columns, fmt):
    return stdlib_table_text({"command": command, **config}, rows, columns, fmt)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_writers_match_the_stdlib(data, fmt):
    table = data.draw(tables(fmt))
    assert written(*table, fmt) == expected(*table, fmt)


def test_writers_match_the_stdlib_at_the_edges():
    # an empty text cell, None in config entries, no config beyond the command, "%" and ","
    # in text, and non-finite floats beside finite ones in one column; a table with a str or
    # bool column is JSON only, and has no CSV templates
    for table, formats in [
        (("scenario", {"a": None, "c": [None, -0.0]}, [("", True), ("x", False), ("%d,", True)],
          {"label": str, "ok": bool}), ["json"]),
        (("x", {"k": 1}, [(-0.0, 0), (math.nan, 1), (5e-324, 2)], {"f": float, "i": int}),
         ["csv", "json"]),
        (("rate-table", {"n": [2**60], "x": -math.inf},
          [(2**60, math.nan), (-(2**60), -math.inf), (0, 1.5)], {"n": int, "x": float}),
         ["csv", "json"]),
        (("e", {}, [(True, "%s", -0.0), (False, "a,b", 0.0)],
          {"b": bool, "t_1": str, "F-2": float}), ["json"]),
    ]:
        command, config, _, columns = table
        form = cli._table_format(command, columns, config.keys())
        if formats == ["json"]:
            assert form.csv_head is form.csv_row is None
        for fmt in formats:
            assert written(*table, fmt) == expected(*table, fmt), (table, fmt)


def test_every_text_the_commands_print_needs_no_json_escape():
    # every label, all four verdicts and both boundary notes, written as '"%s"'
    texts = {cell for q in (0.0, 0.5, 1.0) for row in scenario_reports(q, Scenario)
             for cell in row if type(cell) is str}
    assert {"degenerate", "impossible", "trivial", "nontrivial"} <= texts
    assert {s.name for s in Scenario} <= texts
    for text in texts:
        assert json.dumps(text) == '"' + text + '"', text
    # and every name written into a template as '"name"'
    for name, command in cli.COMMANDS.items():
        for text in (name, *command.columns, *command.config):
            assert NAME_PATTERN.fullmatch(text), text
