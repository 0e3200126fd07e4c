"""The CLI's table writers against the standard library, byte for byte.

``cli.write_output`` fills one row template per table; the stdlib route it
replaced (``csv.writer`` over ``_fmt``, ``json.dumps(indent=2)`` with
non-finite floats as strings) is kept as ``oracles.stdlib_table_text``.
Tables are drawn column by column, so that a column is sometimes of one
type (the template's own conversions) and sometimes mixed (a conversion
per value).
"""

import argparse
import contextlib
import io
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import stdlib_table_text
from qcovert import cli

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 2.0**53 + 2.0]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
BIG = st.integers(min_value=2**53 + 1, max_value=2**80)
INTS = st.one_of(st.integers(), BIG, BIG.map(lambda n: -n))
# the CSV's and JSON's special characters, a template's "%", and non-ASCII text
TEXT = st.text(st.one_of(st.sampled_from(',"\n\r%\\ é☃ '),
                         st.characters(exclude_categories=("Cs",))), max_size=6)
CELLS = [FLOATS, FLOATS.map(np.float64), st.floats(allow_nan=False, allow_infinity=False),
         INTS, st.booleans(), st.none(), TEXT]
MIXED = st.one_of(*CELLS)


@st.composite
def tables(draw):
    columns = draw(st.lists(TEXT, max_size=4, unique=True))
    n_rows = draw(st.integers(min_value=0, max_value=4))
    values = [draw(st.lists(draw(st.sampled_from([*CELLS, MIXED])),
                            min_size=n_rows, max_size=n_rows)) for _ in columns]
    rows = [list(row) for row in zip(*values)] if columns else [[] for _ in range(n_rows)]
    config = draw(st.dictionaries(TEXT, st.one_of(MIXED, st.lists(MIXED, max_size=3)),
                                  max_size=4))
    return config, columns, rows


def written(config, columns, rows, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_output(config, columns, rows, argparse.Namespace(format=fmt, out=None))
    return out.getvalue()


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_writers_match_the_stdlib(table, fmt):
    assert written(*table, fmt) == stdlib_table_text(*table, fmt)


def test_writers_match_the_stdlib_at_the_edges():
    # no columns, no rows, a lone empty field, empty and None config entries
    for config, columns, rows in [
        ({}, [], []), ({}, [], [[], []]), ({"a": []}, ["x"], []),
        ({"a": None, "b": [], "c": [None, -0.0]}, [""], [[""], [None], [-0.0]]),
        ({"n": [2**60]}, ["n", "x"], [[2**60, math.nan], [-(2**60), np.float64(-math.inf)]]),
    ]:
        for fmt in ("csv", "json"):
            assert written(config, columns, rows, fmt) == \
                stdlib_table_text(config, columns, rows, fmt), (config, columns, rows, fmt)
