"""CLI outputs against golden files, byte for byte.

The goldens in ``tests/golden`` are the outputs of fresh ``qcovert``
processes.  The ``rate-table``, ``approx-check`` and ``bound-curve``
files predate the move of the dense routes into ``tests/oracles.py``.
The ``scenario`` files were regenerated when the support report became
closed forms: at q = 0.5 the ALL_ENV kernel overlap and the E1_ONLY
determinants moved by one or two ulps to the doubles nearest their exact
values (5/12 and 3/32), and nothing else changed.  The ``detect-sim``
files were written after its budget moved to the closed form and are
cell for cell the same as before, and the two ``*_alpha_grid`` files
(rows n x alpha) predate the table-level block route; the ALL_ENV
files also predate its reduction to one qubit spin block per k.  Each
command runs at its defaults and once with arguments shaped like a
benchmark round, and the numeric commands' benchmark-shaped tables run
once more as JSON; those five ``.json`` files were written by the
``json.dumps`` route before the CLI's row templates replaced it.
``detect_sim_e1_large_n.json`` holds E1 rows at n = 50, 99 and 100 to
the last bit; it was added with the deletion of the numpy-table
detection route from ``tests/oracles.py``, whose differential test had
pinned those bits.  To regenerate a file after a deliberate output change,
run its argv with ``--out tests/golden/<name>``.

The ``demo_<name>.txt`` files are the stdout of ``demos/<name>.py`` run
from the repository root with ``PYTHONPATH=src``; regenerate one the
same way, redirecting stdout to the file.
"""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import stdlib_table_text
from qcovert import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))

CASES = {
    "rate_table_default.csv": ["rate-table"],
    "approx_check_default.csv": ["approx-check"],
    "bound_curve_default.csv": ["bound-curve"],
    "scenario_default.json": ["scenario"],
    "detect_sim_default.csv": ["detect-sim"],
    "rate_table_workload.csv": [
        "rate-table", "--q", "0.5", "--n-grid",
        "118,140,142,223,260,377,581,668,701,899,1010,1092,1165,2274,2581,2693,5101,"
        "7875,8092,9342,12569,13873,16414,19489,21404,40566,108474,267687,304717,"
        "342773,511769,669381,714356,815076,1359134,1801469,1935068,2978163,5855041,"
        "6032196",
    ],
    "approx_check_workload.csv": [
        "approx-check", "--q", "0.5", "--alpha-grid",
        "0.0736834,0.0592709,0.0412367,0.0324775,0.0204036,0.0178871,0.016475,"
        "0.00511413,0.00348555,0.00175654,0.00173679,0.000674232,4.89413e-05,"
        "4.03023e-05,3.42184e-05,2.48618e-05,2.08201e-05,2.08018e-05,1.3728e-05,"
        "1.3505e-05,9.14415e-06,4.9389e-06,1.72092e-06,7.54648e-07,4.97236e-07,"
        "4.00169e-08,1.0293e-08,8.53182e-09,5.87296e-09,5.51443e-09,8.88044e-10,"
        "4.78585e-10,3.18296e-10,1.0137e-10,3.92185e-11,1.95638e-11,1.80422e-11,"
        "1.62311e-11,1.21391e-11,1.02063e-11",
    ],
    "bound_curve_workload.csv": [
        "bound-curve", "--q-grid",
        "0.0120486,0.0442625,0.05217,0.068036,0.0741927,0.0814701,0.0865871,0.107835,"
        "0.131435,0.136389,0.157185,0.164715,0.173378,0.189949,0.195221,0.242345,"
        "0.268547,0.299621,0.313955,0.318625,0.343924,0.370384,0.372673,0.373503,"
        "0.398787,0.408863,0.44863,0.459488,0.459946,0.484373,0.484549,0.520995,"
        "0.544884,0.550736,0.573648,0.588165,0.609269,0.625633,0.627764,0.638157,"
        "0.644704,0.678435,0.701455,0.706107,0.777541,0.77851,0.795345,0.797809,"
        "0.822861,0.82382,0.825023,0.8693,0.872203,0.893511,0.902029,0.925256,"
        "0.942057,0.950935,0.954552,0.979218,0.984386,0.986999,0.98838,0.988421",
    ],
    "scenario_workload.json": ["scenario", "--q", "0.885731"],
    "detect_sim_e1.csv": [
        "detect-sim", "--scenario", "3", "--n-grid", "1:10:1", "--q", "0.775748",
        "--nu", "0.118861",
    ],
    "detect_sim_allenv.csv": [
        "detect-sim", "--scenario", "1", "--n-grid", "1:5:1", "--q", "0.775748",
        "--nu", "0.118861",
    ],
    "detect_sim_e1_alpha_grid.csv": [
        "detect-sim", "--scenario", "3", "--n-grid", "1,4,9", "--alpha-grid", "0,0.05,0.25,1",
        "--q", "0.3",
    ],
    "detect_sim_allenv_alpha_grid.csv": [
        "detect-sim", "--scenario", "1", "--n-grid", "1,3,5", "--alpha-grid", "0,0.05,0.25,1",
        "--q", "0.3",
    ],
    "detect_sim_e2.csv": [
        "detect-sim", "--scenario", "2", "--n-grid", "1:10:1", "--q", "0.775748",
        "--nu", "0.118861",
    ],
}
# Each numeric command's benchmark-shaped table once more as JSON.
CASES.update({
    name.replace(".csv", ".json"): CASES[name] + ["--format", "json"]
    for name in ("rate_table_workload.csv", "approx_check_workload.csv",
                 "bound_curve_workload.csv", "detect_sim_e1.csv", "detect_sim_allenv.csv")
})
# E1 up to the cap of 100 uses, every bit of each float: (1 - T)/2 at alpha = 1
# shows T's last bits, and the small weights show the det_0^r difference terms.
CASES["detect_sim_e1_large_n.json"] = [
    "detect-sim", "--scenario", "3", "--n-grid", "50,99,100", "--alpha-grid",
    "1e-15,1e-7,0.05,0.1,0.383,1", "--q", "0.5", "--format", "json",
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    path = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_and_stdout_get_the_stdlib_bytes(name, tmp_path, capsysbinary):
    """``--out`` writes stdout's bytes over a longer file, and names a path it cannot open."""
    command, args = cli._parse_args(CASES[name])
    declared = cli.COMMANDS[command]
    handler = getattr(cli, declared.handler)
    expected = stdlib_table_text(*handler(args), declared.columns, args.format).encode()
    assert cli.main(CASES[name]) == 0
    assert capsysbinary.readouterr() == (expected, b"")
    path = tmp_path / name
    path.write_bytes(b"#" * (2 * len(expected) + 1))
    assert cli.main(CASES[name] + ["--out", str(path)]) == 0
    assert path.read_bytes() == expected
    for target in (tmp_path, tmp_path / "missing" / name):
        with pytest.raises(OSError) as info:
            open(target, "w", newline="")  # the error a text-mode open raised
        assert cli.main(CASES[name] + ["--out", str(target)]) == 2
        assert capsysbinary.readouterr() == (b"", f"qcovert: error: {info.value}\n".encode())


# Each golden argv in each format its command writes (scenario is JSON only).
FORMATTED = [(name, fmt) for name in sorted(CASES) for fmt in ("csv", "json")
             if fmt == "json" or CASES[name][0] != "scenario"]


@pytest.mark.parametrize("name, fmt", FORMATTED)
def test_handlers_return_their_declared_kinds(name, fmt, capsysbinary):
    """Every cell is exactly its column's declared kind, and the templates write the stdlib's bytes.

    ``type(v) is kind`` rules out an ``np.float64`` in a float column and a
    bool in an int column, which the templates' ``%r`` and ``%d`` would
    print differently.  The writer serves only what the commands print:
    every command declares at least 2 columns, returns at least 1 row of
    tuples, and every config value is of an exact type in
    ``cli._SCALAR_TEXT`` or a list of such values.
    """
    assert {argv[0] for argv in CASES.values()} == set(cli.COMMANDS)
    assert all(len(declared.columns) >= 2 for declared in cli.COMMANDS.values())
    argv = CASES[name] + ["--format", fmt]
    command, args = cli._parse_args(argv)
    declared = cli.COMMANDS[command]
    config, rows = getattr(cli, declared.handler)(args)
    assert list(config) == ["command", *declared.config]
    assert config["command"] == command
    for value in config.values():
        for v in value if type(value) is list else [value]:
            assert type(v) in cli._SCALAR_TEXT, (value, v)
    assert rows
    assert all(isinstance(row, tuple) for row in rows)
    kinds = list(declared.columns.values())
    for row in rows:
        assert [type(v) for v in row] == kinds, row
    if name.startswith("detect_sim_allenv") and fmt == "json":
        # the non-finite floats take the JSON writer's per-value fallback
        assert not all(math.isfinite(v) for row in rows for v in row)
    assert cli.main(argv) == 0
    expected = stdlib_table_text(config, rows, declared.columns, fmt).encode()
    assert capsysbinary.readouterr() == (expected, b"")


def test_a_well_formed_call_builds_no_parser_and_no_format(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("built during a call")

    monkeypatch.setattr(argparse, "ArgumentParser", forbidden)
    monkeypatch.setattr(cli, "_table_format", forbidden)
    for name in sorted(CASES):
        path = tmp_path / name
        assert cli.main(CASES[name] + ["--out", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
    with pytest.raises(AssertionError, match="built during a call"):
        cli.main(["rate-table", "--q=0.3"])  # argparse's spelling does build a parser


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, check=True)
    assert done.stdout == (GOLDEN / f"demo_{name}.txt").read_bytes()
