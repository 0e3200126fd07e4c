"""The CLI's table writers against the standard library, byte for byte.

``cli.write_output`` fills the row templates that ``cli._table_format``
builds from each column's declared kind; the stdlib route it replaced
(``csv.writer`` over ``_fmt``, ``json.dumps(indent=2)`` with non-finite
floats as strings) is kept as ``oracles.stdlib_table_text``.  Tables are
drawn column by column: a random name and kind per column, and hostile
cells of that kind (signed zeros, infinities, nan, the smallest subnormal,
ints past 2**53, text with the CSV's, JSON's and the templates' special
characters).  A float column sometimes holds inf or nan, which takes the
JSON writer's per-value fallback, and sometimes holds only finite values.
Tables stay in the writer's domain, the one every command's table is in
(``tests/test_golden.py`` checks each): at least 2 columns, at least 1
row, tuple rows, and a config of the command's name (hostile text too,
written into the JSON head at import) and then values each of an exact
type in ``cli._SCALAR_TEXT`` or a list of such values.
"""

import argparse
import contextlib
import io
import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import stdlib_table_text
from qcovert import cli

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
           2.0**53 + 2.0]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([x for x in SPECIAL if math.isfinite(x)]))
BIG = st.integers(min_value=2**53 + 1, max_value=2**80)
INTS = st.one_of(st.integers(), BIG, BIG.map(lambda n: -n))
# the CSV's and JSON's special characters, a template's "%", and non-ASCII text
TEXT = st.text(st.one_of(st.sampled_from(',"\n\r%\\ é☃ '),
                         st.characters(exclude_categories=("Cs",))), max_size=6)
# (declared kind, its cells): a float column with and without inf and nan
KINDS = [(float, FLOATS), (float, FINITE), (int, INTS), (str, TEXT), (bool, st.booleans())]
CONFIG_VALUES = st.one_of(FLOATS, INTS, st.none())


@st.composite
def tables(draw):
    names = draw(st.lists(TEXT, min_size=2, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(KINDS)) for _ in names]
    n_rows = draw(st.integers(min_value=1, max_value=4))
    values = [draw(st.lists(cells, min_size=n_rows, max_size=n_rows)) for _, cells in kinds]
    rows = list(zip(*values))
    # a key has at most 6 characters, so none is "command"
    config = draw(st.dictionaries(TEXT, st.one_of(CONFIG_VALUES,
                                                  st.lists(CONFIG_VALUES, max_size=3)),
                                  max_size=4))
    return draw(TEXT), config, rows, dict(zip(names, (kind for kind, _ in kinds)))


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
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_writers_match_the_stdlib(table, fmt):
    assert written(*table, fmt) == expected(*table, fmt)


def test_writers_match_the_stdlib_at_the_edges():
    # an empty field and name, empty and None config entries, no config beyond the command,
    # "%" and quotes in a name, and non-finite floats beside finite ones in one column
    for table in [
        ("", {"a": None, "b": [], "c": [None, -0.0]}, [("", 0), ("x", 1), ('"', -1)],
         {"": str, "i": int}),
        ('%s"\\', {"%s": 1}, [(-0.0, 0), (math.nan, 1), (5e-324, 2)], {"": float, "i": int}),
        ("rate-table", {"n": [2**60], "x": -math.inf},
         [(2**60, math.nan), (-(2**60), -math.inf), (0, 1.5)], {"n": int, "x": float}),
        ("é", {}, [(True, "%d", -0.0), (False, "a,b", 0.0)],
         {"%d": bool, "%%": str, "100%": float}),
    ]:
        for fmt in ("csv", "json"):
            assert written(*table, fmt) == expected(*table, fmt), (table, fmt)
