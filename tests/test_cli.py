import argparse
import ast
import csv
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import qcovert
from oracles import mp_warden_trace_distances, mp_willie_divergence
from qcovert import channels, cli, covert, detection
from qcovert.channels import Scenario


def run(argv, tmp_path, name="out"):
    """Invoke the CLI against a temp file and return (exit code, path)."""
    path = tmp_path / name
    code = cli.main(argv + ["--out", str(path)])
    return code, path


def test_parse_grid_colon_form():
    grid = cli.parse_grid("0.05:0.95:0.05")
    assert len(grid) == 19
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(0.95)  # inclusive upper end


def test_parse_grid_comma_and_single():
    assert cli.parse_grid("1e-3, 1e-4") == [1e-3, 1e-4]
    assert cli.parse_grid("0.5") == [0.5]


@pytest.mark.parametrize(
    "bad",
    ["", "1:2", "0:1:0", "0:1:-0.1", ",", "0:1:inf", "0:inf:1", "0:10000:1", "5:1:1",
     "inf", "1,inf", "1e400", "nan"],
)
def test_parse_grid_rejections(bad):
    with pytest.raises(ValueError):
        cli.parse_grid(bad)


def test_parse_grid_length_cap():
    assert len(cli.parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS


def test_oversized_grid_exits_two_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["bound-curve", "--q-grid", "0:1e9:1e-9"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "entries" in capsys.readouterr().err


def test_detect_sim_table_size_cap_exits_two_at_once(capsys):
    # 2 x 10 000 rows: each grid is within the cap, their product is not
    start = time.perf_counter()
    assert cli.main(["detect-sim", "--n-grid", "1,2", "--alpha-grid", "0:0.9999:0.0001"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "entries" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["detect-sim", "--n-grid", "1,2", "--alpha-grid", ""],
    ["detect-sim", "--n-grid", "1,2", "--alpha-grid", " "],
    ["detect-sim", "--n-grid", "1,2", "--alpha-grid="],
])
def test_detect_sim_refuses_an_empty_alpha_grid(argv, capsys):
    # an empty --alpha-grid is a bad grid, not an absent one that runs the schedule
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "qcovert: error: empty grid\n")


def test_parse_int_grid():
    assert cli.parse_int_grid("1e4,1e5") == [10000, 100000]
    assert cli.parse_int_grid("1:4:1") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        cli.parse_int_grid("2.5")
    # an entry is exactly an integer, not one within 1e-6 |v| of it, and keeps its exact value
    with pytest.raises(ValueError, match="'1000000.5' is not an integer"):
        cli.parse_int_grid("1000000.5,2000001.4")
    assert cli.parse_int_grid("9007199254740993") == [9007199254740993]
    assert cli.parse_int_grid("9007199254740993.0, 2.0, 1e2") == [9007199254740993, 2, 100]
    assert cli.parse_int_grid("-0:4e3:1e3") == [0, 1000, 2000, 3000, 4000]
    for text in ("1.00000000000000001", "0.5:3:0.5", "1.00000000000000001:3:1",
                 "1:3:1.00000000000000001", "9007199254740993:9007199254740992:1"):
        with pytest.raises(ValueError):
            cli.parse_int_grid(text)
    # a range's floats are exact only below 2**53: past it, both ends of a range of
    # 1 000 000 entries round to one float, and the range is refused, not built
    for text in ("9007199254740993:9007199254740995:1",
                 "10000000000000000000000:10000000000000000999999:1",
                 "1" + "0" * 300 + ":" + "1" + "0" * 290 + "1" + "0" * 9 + ":1"):
        with pytest.raises(ValueError, match="has an entry past 2"):
            cli.parse_int_grid(text)


def test_rate_table_refuses_a_grid_entry_that_is_not_an_integer(capsys):
    # printed n = 1000000 and 2000001 in the rows and the config, with exit 0
    assert cli.main(["rate-table", "--n-grid", "1000000.5,2000001.4"]) == 2
    assert capsys.readouterr() == ("", "qcovert: error: grid entry '1000000.5' is not an integer\n")


def test_bound_curve_csv(tmp_path):
    code, path = run(["bound-curve"], tmp_path, "bound.csv")
    assert code == 0
    raw = path.read_bytes()
    assert b"\r\n" in raw  # standard CSV line endings
    rows = list(csv.reader(raw.decode().splitlines()))
    assert rows[0] == ["q", "eta", "capacity_lb"]
    assert len(rows) == 1 + 19
    # values carry 12 significant digits of the library computation
    q = float(rows[10][0])
    ((_, eta, capacity),) = covert.capacity_curve([q])
    assert rows[10][1:] == [f"{eta:.12g}", f"{capacity:.12g}"]


def test_bound_curve_json_config(tmp_path):
    code, path = run(["bound-curve", "--format", "json", "--q-grid", "0.3,0.5"], tmp_path)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["config"]["command"] == "bound-curve"
    assert doc["config"]["q_grid"] == [0.3, 0.5]
    assert [r["q"] for r in doc["rows"]] == [0.3, 0.5]
    assert set(doc["rows"][0]) == {"q", "eta", "capacity_lb"}


def test_approx_check_ratio_columns(tmp_path):
    code, path = run(["approx-check", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(path.read_text())
    last = doc["rows"][-1]
    assert last["alpha"] == 1e-6
    # exact-over-leading first-moment ratio at the smallest default weight
    assert last["ratio_D"] == pytest.approx(1.138481, abs=5e-6)
    assert last["ratio_V"] == pytest.approx(1.171816, abs=5e-6)


def test_approx_check_alpha_zero_row(tmp_path):
    code, path = run(["approx-check", "--alpha-grid", "0,1e-3", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["rows"][0]["D_exact"] == 0.0
    assert doc["rows"][0]["ratio_D"] == 0.0


def test_rate_table_columns(tmp_path):
    code, path = run(["rate-table", "--n-grid", "1e4,1e5"], tmp_path, "rates.csv")
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == [
        "n", "nu", "q", "alpha_n", "logM_lemma1", "logM_lemma2",
        "div_total", "L_n", "L_limit",
    ]
    assert [r[0] for r in rows[1:]] == ["10000", "100000"]
    for r in rows[1:]:
        assert float(r[7]) < float(r[8])  # finite rate below its limit


def test_scenario_reports_all_three(tmp_path):
    code, path = run(["scenario"], tmp_path, "scen.json")
    assert code == 0
    doc = json.loads(path.read_text())
    verdicts = {r["label"]: r["verdict"] for r in doc["rows"]}
    assert verdicts == {
        "ALL_ENV": "impossible",
        "E2_ONLY": "trivial",
        "E1_ONLY": "nontrivial",
    }


def test_scenario_rows_are_the_reports_with_no_enum_call(monkeypatch):
    # each scenario is looked up in a table built at import; only an unknown one reaches Scenario
    def forbidden(value):
        raise AssertionError(f"Scenario({value!r}) called for a known scenario")

    monkeypatch.setattr(channels, "Scenario", forbidden)
    _, args = cli._parse_args(["scenario", "--q", "0.3"])
    _, rows = cli.cmd_scenario(args)
    assert rows == channels.scenario_reports(0.3, [1, 2, 3])
    assert all(type(row) is qcovert.SupportReport for row in rows)
    assert [row[:2] for row in rows] == [(1, "ALL_ENV"), (2, "E2_ONLY"), (3, "E1_ONLY")]
    members = channels.scenario_reports(0.3, [Scenario.E1_ONLY, 2.0, True])
    assert [row[:2] for row in members] == [(3, "E1_ONLY"), (2, "E2_ONLY"), (1, "ALL_ENV")]
    with pytest.raises(AssertionError, match="Scenario"):
        channels.scenario_reports(0.3, [4])


def test_scenario_single_and_boundary(tmp_path):
    code, path = run(["scenario", "--scenario", "3", "--q", "1.0"], tmp_path)
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["verdict"] == "degenerate"
    assert doc["rows"][0]["note"] != ""


@pytest.mark.parametrize("q", ["3e-15", "1e-15", "1e-300"])
def test_scenario_verdicts_hold_at_tiny_noise(q, tmp_path):
    # Here the smallest eigenvalues lie below a dense eigensolver's relative
    # support floor, 4 eps * dim * lambda_max, which would misplace the kernel
    # of omega_0; the verdicts must still be those of the model.
    code, path = run(["scenario", "--q", q], tmp_path, "tiny.json")
    assert code == 0
    rows = {r["label"]: r for r in json.loads(path.read_text())["rows"]}
    assert rows["ALL_ENV"]["verdict"] == "impossible"
    assert rows["ALL_ENV"]["support_contained"] is False
    assert rows["E1_ONLY"]["verdict"] == "nontrivial"
    assert rows["E2_ONLY"]["verdict"] == "trivial"
    assert rows["E2_ONLY"]["kernel_overlap"] == 0.0


def test_scenario_prints_no_signed_zero_at_negative_zero_noise(tmp_path):
    code, path = run(["scenario", "--q", "-0.0"], tmp_path, "zero.json")
    assert code == 0
    text = path.read_text()
    for row in json.loads(text)["rows"]:
        assert row["verdict"] == "degenerate"
        for name in ("kernel_overlap", "trace_distance", "det_omega0", "det_omega1"):
            assert row[name] == 0.0 and math.copysign(1.0, row[name]) == 1.0, name
    # the echoed input too: --q is read as 0.0
    assert "-0.0" not in text


def _signed_zeros(value):
    """The number of -0.0 floats in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return sum(map(_signed_zeros, value))
    return isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0.0


@pytest.mark.parametrize("argv", [
    ["approx-check", "--alpha-grid=-0,1e-3"],
    ["approx-check", "--alpha-grid=-0:1e-3:1e-3"],
    ["detect-sim", "--n-grid", "2", "--alpha-grid=-0,0.5"],
    ["detect-sim", "--n-grid", "2", "--q=-0.0"],
    ["detect-sim", "--n-grid", "2", "--q=-0.0", "--alpha-grid=-0"],
])
def test_negative_zero_input_is_read_as_zero(argv, tmp_path):
    code, path = run(argv + ["--format", "json"], tmp_path, "zero.json")
    assert code == 0
    assert _signed_zeros(json.loads(path.read_text())) == 0
    code, path = run(argv, tmp_path, "zero.csv")
    assert code == 0
    assert "-0" not in [field for row in csv.reader(path.read_text().splitlines()) for field in row]


@pytest.mark.parametrize("argv", [["rate-table", "--q=-0.0"], ["rate-table", "--nu=-0.0"],
                                  ["rate-table", "--eps=-0.0"], ["bound-curve", "--q-grid=-0"]])
def test_negative_zero_is_rejected_where_zero_is(argv, capsys):
    assert cli.main(argv) == 2
    assert "-0" not in capsys.readouterr().err


@pytest.mark.parametrize("nu", ["5", "nan", "0"])
def test_detect_sim_checks_nu_with_an_alpha_grid(nu, capsys):
    argv = ["detect-sim", "--n-grid", "1", "--alpha-grid", "0.5", "--nu", nu, "--format", "json"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qcovert: error: schedule exponent nu={float(nu)!r} outside (0, 1/6)\n"


def test_detect_sim_schedule_and_fixed_alpha(tmp_path):
    code, path = run(["detect-sim", "--n-grid", "1,2"], tmp_path, "det.csv")
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["n", "alpha", "trace_dist", "E_n", "pinsker_floor", "div_total"]
    assert len(rows) == 3

    code, path = run(
        ["detect-sim", "--n-grid", "2", "--alpha-grid", "0,0.5", "--format", "json"],
        tmp_path,
        "det.json",
    )
    assert code == 0
    doc = json.loads(path.read_text())
    null, active = doc["rows"]
    assert null["E_n"] == 0.5  # exact null control
    assert active["E_n"] < 0.5


def test_detect_sim_trivial_scenario_is_blind(tmp_path):
    code, path = run(
        ["detect-sim", "--scenario", "2", "--q", "0.4", "--n-grid", "1",
         "--alpha-grid", "0.3", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    (row,) = json.loads(path.read_text())["rows"]
    assert row["E_n"] == 0.5
    assert row["div_total"] == 0.0


def test_detect_sim_at_full_noise_and_half_weight(tmp_path):
    # q = 1, alpha = 1/2: omega_alpha = I/2, so D = -1 - log2(det omega_0)/2 = 1/2 bit
    # per use; the divergence's perpendicular term was 0/0 here and the run exited 3
    code, path = run(["detect-sim", "--q", "1", "--n-grid", "3", "--alpha-grid", "0.5"], tmp_path)
    assert code == 0
    assert _csv_row(path)["div_total"] == "1.5"


def test_json_output_is_strict(capsys):
    """Non-finite values print as the CSV's strings, never as Infinity or NaN."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    assert cli.main(["detect-sim", "--scenario", "1", "--n-grid", "1", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
    assert (row["div_total"], row["pinsker_floor"]) == ("inf", "-inf")


def test_stdout_output(capsys):
    assert cli.main(["bound-curve", "--q-grid", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q,eta,capacity_lb")


def test_underscore_alias(capsys):
    assert cli.main(["bound_curve", "--q-grid", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("q,eta,capacity_lb")
    for argv in (["approx_check", "--alpha-grid", "1e-3"], ["rate_table", "--n-grid", "1e4"],
                 ["detect_sim", "--n-grid", "2"]):
        assert cli.main(argv) == 0
        alias = capsys.readouterr().out
        assert cli.main([argv[0].replace("_", "-")] + argv[1:]) == 0
        assert alias == capsys.readouterr().out


COMMAND_HELP = {
    "bound-curve": "capacity lower bound and eta versus q",
    "approx-check": "exact vs leading-order D, V, Q over an alpha grid",
    "rate-table": "finite-blocklength covert rates under the schedule",
    "scenario": "feasibility report per warden scenario (JSON only)",
    "detect-sim": "exact warden detection simulation, n <= 100 (30 for scenario 1)",
}


def test_top_level_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name, help_text in COMMAND_HELP.items():
        assert f"  {name:<14}{help_text}\n" in out


@pytest.mark.parametrize("name, options", [
    ("bound-curve", ["--q-grid"]),
    ("approx-check", ["--q", "--alpha-grid"]),
    ("rate-table", ["--n-grid", "--nu", "--eps", "--q"]),
    ("scenario", ["--q", "--scenario"]),
    ("detect-sim", ["--n-grid", "--q", "--scenario", "--nu", "--alpha-grid"]),
])
def test_command_help_lists_its_options(name, options, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([name, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: qcovert {name} ")
    assert COMMAND_HELP[name] in out
    listed = {word for word in out.split() if word.startswith("--")}
    assert listed == {"--help", "--out", "--format", *options}


def test_only_the_invoked_command_parser_is_built(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _ = run(["rate-table", "--n-grid", "1e4"], tmp_path)
    assert code == 0
    assert built == []  # a well-formed argv is read without argparse
    for argv, expected in (
        (["rate-table", "--help"], ["qcovert rate-table"]),
        (["rate-table", "--n", "1e4"], ["qcovert rate-table"]),  # an (ambiguous) abbreviation
        (["rate-table", "--q=0.3", "--n-grid", "1e4"], ["qcovert rate-table"]),
        (["--help"], ["qcovert"]),
        (["no-such-command"], ["qcovert"]),
    ):
        built.clear()
        try:
            cli.main(argv)
        except SystemExit:
            pass
        assert built == expected, argv
    capsys.readouterr()


# Tokens for the direct read's differential test: flags argparse reads other
# than by exact name, and values it reads differently or refuses.
ODD_FLAGS = ["--sc", "--n", "--q=0.3", "--format=json", "-h", "--help", "--", "-", "--nope",
             "", "x", "-q"]
VALUES = ["0.3", "1e4", "1,2", "1:5:1", "0", "1", "2", "3", "4", "csv", "json", "xml", "nan",
          " 2", "1_0", "", "-0.5", "-1", "-h", "--", "--q", "-", "0.5x", "inf", "out.csv"]


def _draw_argv(rng, flags):
    """A seeded argv: mostly --flag value pairs, some with odd flags, dropped or extra tokens."""
    argv = []
    for _ in range(rng.randrange(5)):
        argv.append(rng.choice(flags) if rng.random() < 0.85 else rng.choice(ODD_FLAGS))
        argv.append(rng.choice(VALUES))
    if argv and rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD_FLAGS + VALUES))
    return argv


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_plain_options_read_what_argparse_reads(name):
    """The direct read gives argparse's attributes, in its order, with its values, or declines."""
    options = cli._OPTION_TABLES[name]
    parser = cli._command_parser(name)
    rng = random.Random(f"plain-options:{name}")
    read = 0
    for _ in range(5000):
        argv = _draw_argv(rng, list(options))
        plain = cli._plain_options(name, argv)
        if plain is None:
            continue
        read += 1
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv!r} that argparse refuses")
        # by repr, so that a nan read both ways compares equal
        assert repr(list(vars(plain).items())) == repr(list(vars(expected).items())), argv
        assert ({k: type(v) for k, v in vars(plain).items()}
                == {k: type(v) for k, v in vars(expected).items()}), argv
    assert read >= 1000  # the draws reach the direct read, not only its refusals


@pytest.mark.parametrize("argv", [
    ["rate-table"], ["rate_table", "--n-grid", "1e4"], ["detect-sim", "-h"], ["scenario", "--he"],
    ["bound-curve", "--q-grid", "0.5", "extra"], ["approx_check", "--q", "-0.5"],
    ["rate-table", "-"], ["rate-table", "--q=0.3"], ["scenario", "--format", "csv", "--help", "x"],
])
def test_top_parser_passes_a_command_first_argv_through(argv):
    # the top-level parser would hand the command argv[1:] unchanged, so
    # building it for such an argv changes nothing
    head = cli._top_parser().parse_args(argv)
    assert (head.command, head.args) == (argv[0], argv[1:])


TOP_USAGE = "usage: qcovert [-h] command ...\n"
CHOICES = ("(choose from 'bound-curve', 'bound_curve', 'approx-check', 'approx_check', "
           "'rate-table', 'rate_table', 'scenario', 'detect-sim', 'detect_sim')\n")
RATE_USAGE = ("usage: qcovert rate-table [-h] [--out OUT] [--format {csv,json}]\n"
              "                          [--n-grid N_GRID] [--nu NU] [--eps EPS] [--q Q]\n")
RATE_HEAD = "n,nu,q,alpha_n,logM_lemma1,logM_lemma2,div_total,L_n,L_limit\r\n"
RATE_ROW_Q05 = ("10000,0.05,0.5,0.00341454887383,58.4325530378,93.2637279796,0.269153233838,"
                "0.0847627116627,0.134993554613\r\n")
RATE_ROW_Q03 = ("10000,0.05,0.3,0.00341454887383,144.127108003,161.291388388,0.199652512757,"
                "0.242749342984,0.271092377837\r\n")

# (argv, exit code, stdout, stderr), as the two-parser dispatch printed them
# before a command-first argv skipped the top-level parser
EDGE_ARGVS = [
    ([], 2, "", TOP_USAGE + "qcovert: error: the following arguments are required: command\n"),
    (["-h"], 0,
     TOP_USAGE + "\nCovert-communication analysis tables for the qubit depolarizing channel.\n"
     "\npositional arguments:\n"
     "  command     one of the commands below, or its underscore alias\n"
     "  args        the command's options, listed by: qcovert command --help\n"
     "\noptions:\n  -h, --help  show this help message and exit\n"
     "\ncommands:\n"
     "  bound-curve   capacity lower bound and eta versus q\n"
     "  approx-check  exact vs leading-order D, V, Q over an alpha grid\n"
     "  rate-table    finite-blocklength covert rates under the schedule\n"
     "  scenario      feasibility report per warden scenario (JSON only)\n"
     "  detect-sim    exact warden detection simulation, n <= 100 (30 for scenario 1)\n", ""),
    (["nope"], 2, "",
     TOP_USAGE + "qcovert: error: argument command: invalid choice: 'nope' " + CHOICES),
    (["--format", "csv", "rate-table"], 2, "",
     TOP_USAGE + "qcovert: error: argument command: invalid choice: 'csv' " + CHOICES),
    (["--q", "-0.5"], 2, "",
     TOP_USAGE + "qcovert: error: argument command: invalid choice: '-0.5' " + CHOICES),
    (["rate_table", "--n-grid", "1e4"], 0, RATE_HEAD + RATE_ROW_Q05, ""),
    (["rate-table", "--", "--q", "0.3", "--n-grid", "1e4"], 0, RATE_HEAD + RATE_ROW_Q03, ""),
    (["--", "rate-table", "--n-grid", "1e4"], 0, RATE_HEAD + RATE_ROW_Q05, ""),
    (["rate-table", "--n-grid", "1e4", "--"], 2, "",
     RATE_USAGE + "qcovert rate-table: error: unrecognized arguments: --\n"),
    (["rate-table", "--he"], 0,
     RATE_USAGE + "\nfinite-blocklength covert rates under the schedule\n"
     "\noptions:\n"
     "  -h, --help           show this help message and exit\n"
     "  --out OUT            output file path (default: stdout)\n"
     "  --format {csv,json}\n  --n-grid N_GRID\n  --nu NU\n  --eps EPS\n  --q Q\n", ""),
    (["rate-table", "--q", "-0.5"], 2, "", "qcovert: error: q=-0.5 outside (0, 1)\n"),
]


@pytest.mark.parametrize("argv, code, out, err", EDGE_ARGVS,
                         ids=[" ".join(argv) for argv, *_ in EDGE_ARGVS])
def test_help_errors_and_double_dash_print_as_before(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    assert (status, *capsys.readouterr()) == (code, out, err)


# What a table needs at import only in some calls: argparse (with gettext) for an argv the
# direct read declines and decimal for an integer grid entry such as 1e4; dataclasses (with
# copy) and statistics (with fractions) never, since rate-table's Phi^{-1}(eps) is plain math,
# and json never, since the writer's text needs no escape.
DEFERRED = {"argparse", "gettext", "dataclasses", "copy", "decimal", "fractions", "statistics",
            "json"}
LAUNCH = """\
import sys
{pre}
before = set(sys.modules)
from qcovert import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""
GOLDEN = Path(__file__).parent / "golden"


def _python(script, *args):
    """A new interpreter that runs ``script``, this qcovert first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(qcovert.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=env,
                          check=True, timeout=60)


def _launch(argv, pre=""):
    """(the modules that importing cli and one call add, stdout) of a new process."""
    done = _python(LAUNCH.format(pre=pre), *argv)
    code, *added = done.stderr.decode().split()
    assert code == "0"
    return set(added), done.stdout


# (argv, stdout, the deferred modules it loads)
LAUNCHES = [
    (["bound-curve"], (GOLDEN / "bound_curve_default.csv").read_bytes(), set()),
    (["approx-check"], (GOLDEN / "approx_check_default.csv").read_bytes(), set()),
    (["detect-sim"], (GOLDEN / "detect_sim_default.csv").read_bytes(), set()),
    (["scenario"], (GOLDEN / "scenario_default.json").read_bytes(), set()),
    (["detect-sim", "--scenario", "1", "--n-grid", "1:5:1", "--q", "0.775748", "--nu", "0.118861",
      "--format", "json"], (GOLDEN / "detect_sim_allenv.json").read_bytes(), set()),
    (["rate-table"], (GOLDEN / "rate_table_default.csv").read_bytes(), {"decimal"}),
    (["rate-table", "--q=0.3", "--n-grid", "1e4"], (RATE_HEAD + RATE_ROW_Q03).encode(),
     {"argparse", "gettext", "decimal"}),
]


@pytest.mark.parametrize("argv, out, deferred", LAUNCHES,
                         ids=[" ".join(argv) for argv, *_ in LAUNCHES])
def test_a_fresh_launch_imports_only_what_its_table_runs(argv, out, deferred):
    # numpy loaded first, as in the benchmark's set-up
    added, stdout = _launch(argv, pre="import numpy")
    assert DEFERRED & added == deferred
    assert stdout == out


# (argv, its golden, whether it runs the E1 block route)
BARE_LAUNCHES = [
    (["rate-table"], "rate_table_default.csv", False),
    (["approx-check"], "approx_check_default.csv", False),
    (["bound-curve"], "bound_curve_default.csv", False),
    (["scenario"], "scenario_default.json", False),
    (["detect-sim", "--scenario", "1", "--n-grid", "1:5:1", "--q", "0.775748", "--nu", "0.118861"],
     "detect_sim_allenv.csv", False),
    (["detect-sim", "--scenario", "2", "--n-grid", "1:10:1", "--q", "0.775748", "--nu", "0.118861"],
     "detect_sim_e2.csv", False),
    (["detect-sim"], "detect_sim_default.csv", True),
]


@pytest.mark.parametrize("argv, golden, e1", BARE_LAUNCHES,
                         ids=[" ".join(argv) for argv, *_ in BARE_LAUNCHES])
def test_only_the_e1_block_route_loads_numpy(argv, golden, e1):
    # nothing imported first, as a shell launches qcovert
    added, stdout = _launch(argv)
    assert {"numpy", "statistics", "fractions", "json"} & added == ({"numpy"} if e1 else set())
    assert stdout == (GOLDEN / golden).read_bytes()


def test_importing_cli_loads_every_layer():
    # benchmarks/tracing.py looks each layer up in sys.modules right after `from qcovert
    # import cli`, so the package may import none of them lazily
    done = _python("import sys\nfrom qcovert import cli\nprint(*sys.modules)")
    layers = {f"qcovert.{name}" for name in ("linalg", "divergences", "channels", "covert",
                                               "detection")}
    assert layers <= set(done.stdout.decode().split())


def test_handler_is_looked_up_when_the_command_runs(monkeypatch, capsys):
    # a handler table frozen at import would miss a replaced cmd_* (and the
    # benchmark's tracing wrappers, which replace them the same way)
    seen = []

    def fake(args):
        seen.append(args.q_grid)
        return ([0.25],), [(0.25, 1.5, 2.0)]

    monkeypatch.setattr(cli, "cmd_bound_curve", fake)
    assert cli.main(["bound-curve", "--q-grid", "0.25"]) == 0
    assert seen == ["0.25"]
    assert capsys.readouterr().out == "q,eta,capacity_lb\r\n0.25,1.5,2\r\n"


def test_validation_errors_exit_two(tmp_path, capsys):
    # q grid touching the open boundary
    assert cli.main(["bound-curve", "--q-grid", "0:1:0.5"]) == 2
    assert "error" in capsys.readouterr().err
    # a descending range is an empty grid
    assert cli.main(["bound-curve", "--q-grid", "0.5:0.1:0.1"]) == 2
    assert capsys.readouterr().err == "qcovert: error: grid '0.5:0.1:0.1' is empty\n"
    # 5e-324 alone is a numerical failure (3); the whole grid is checked before any q is computed
    assert cli.main(["bound-curve", "--q-grid", "5e-324"]) == 3
    assert cli.main(["bound-curve", "--q-grid", "5e-324,1.5"]) == 2
    assert "q=1.5 outside (0, 1)" in capsys.readouterr().err
    assert cli.main(["approx-check", "--q", "1.5"]) == 2
    assert cli.main(["rate-table", "--q", "1.0"]) == 2
    assert cli.main(["rate-table", "--nu", "0.3"]) == 2
    # all-env cap is thirty uses
    assert cli.main(["detect-sim", "--scenario", "1", "--n-grid", "1:31:1"]) == 2
    capsys.readouterr()


ERR, FAIL = "qcovert: error: ", "qcovert: numerical failure: "
# (argv, exit code, stderr) of bad or refused rate-table and approx-check calls.  rate-table
# reads its grid, then checks q, then (once eta is computed) nu and eps, then every n in grid
# order, all before any row: a bad grid is named before a bad q, as in approx-check, a bad nu
# or eps before a bad n, and a bad n before any refused row.
RATE_ERRORS = [
    (["rate-table", "--n-grid", "0", "--nu", "0.3"], 2,
     ERR + "schedule exponent nu=0.3 outside (0, 1/6)\n"),
    (["rate-table", "--n-grid", "0", "--eps", "2"], 2,
     ERR + "error tolerance eps=2.0 outside (0, 1)\n"),
    (["rate-table", "--n-grid", "1", "--eps", "2"], 2,
     ERR + "error tolerance eps=2.0 outside (0, 1)\n"),
    (["rate-table", "--nu", "0.3", "--eps", "2"], 2,
     ERR + "schedule exponent nu=0.3 outside (0, 1/6)\n"),
    (["rate-table", "--q", "1e-300", "--n-grid", "1e15", "--eps", "2"], 2,
     ERR + "error tolerance eps=2.0 outside (0, 1)\n"),
    (["rate-table", "--n-grid", "1,0"], 2, ERR + "blocklength n=1 must be an integer >= 2\n"),
    (["rate-table", "--n-grid", "2,0"], 2, ERR + "blocklength n=0 must be a positive integer\n"),
    (["rate-table", "--n-grid", "1", "--nu", "0.3"], 2,
     ERR + "schedule exponent nu=0.3 outside (0, 1/6)\n"),
    (["rate-table", "--eps", "nan"], 2, ERR + "error tolerance eps=nan outside (0, 1)\n"),
    (["rate-table", "--q", "1", "--nu", "0.3"], 2, ERR + "q=1 outside (0, 1)\n"),
    (["rate-table", "--q", "2", "--n-grid", "1.5"], 2,
     ERR + "grid entry '1.5' is not an integer\n"),
    (["rate-table", "--n-grid", "1e300"], 3,
     FAIL + "warden divergence 0.0 is not a positive normal float\n"),
    (["rate-table", "--n-grid", "1e300,0"], 2, ERR + "blocklength n=0 must be a positive integer\n"),
    (["rate-table", "--q", "1e-307", "--n-grid", "10,1"], 2,
     ERR + "blocklength n=1 must be an integer >= 2\n"),
    (["rate-table", "--q", "1e-300", "--n-grid", "1e15"], 3,
     FAIL + "spectral term 5.62341324874124e-310 is not a positive normal float\n"),
    (["rate-table", "--q", "5e-324", "--nu", "0.3"], 3,
     FAIL + "warden's Bloch weight P = q(1 - q/2) 5e-324 is not a positive normal float\n"),
    (["approx-check", "--alpha-grid", "1e-310"], 3,
     FAIL + "spectral term 4.166666666667e-311 is not a positive normal float\n"),
    (["approx-check", "--q", "1e-20", "--alpha-grid", "0.5"], 3,
     FAIL + "V=3.512877565973877e-17, Q=1.645374505802968e-13 are within rounding of L - D\n"),
    (["approx-check", "--q", "0.999999999", "--alpha-grid", "1e-285"], 3,
     FAIL + "moment 1.4924892286e-314 is not a positive normal float\n"),
    (["approx-check", "--alpha-grid", "1"], 2, ERR + "alpha=1 outside [0, 1)\n"),
]


@pytest.mark.parametrize("argv, code, err", RATE_ERRORS,
                         ids=[" ".join(argv) for argv, *_ in RATE_ERRORS])
def test_rate_path_errors_exit_and_print_as_pinned(argv, code, err, capsys):
    assert (cli.main(argv), *capsys.readouterr()) == (code, "", err)


# (argv, exit code, stderr) of bad detect-sim calls.  detect-sim checks nu, reads its n grid,
# then either takes the schedule's weights, which checks every n, or reads its alpha grid and
# checks the n x alpha table's size; warden_errors then checks q, then every row's n and
# alpha.  A bad q is named before any bad row, and a bad n before a bad alpha.
DETECT_ERRORS = [
    (["detect-sim", "--q", "-0.1"], 2, ERR + "noise parameter q=-0.1 outside [0, 1]\n"),
    (["detect-sim", "--q", "1.5"], 2, ERR + "noise parameter q=1.5 outside [0, 1]\n"),
    (["detect-sim", "--q", "nan"], 2, ERR + "noise parameter q=nan outside [0, 1]\n"),
    (["detect-sim", "--nu", "0.3"], 2, ERR + "schedule exponent nu=0.3 outside (0, 1/6)\n"),
    (["detect-sim", "--n-grid", "0"], 2, ERR + "blocklength n=0 must be a positive integer\n"),
    (["detect-sim", "--n-grid", "101"], 2,
     ERR + "n=101 exceeds the cap 100 for scenario E1_ONLY\n"),
    (["detect-sim", "--scenario", "1", "--n-grid", "31"], 2,
     ERR + "n=31 exceeds the cap 30 for scenario ALL_ENV\n"),
    (["detect-sim", "--alpha-grid", "2"], 2, ERR + "alpha=2.0 outside [0, 1]\n"),
    (["detect-sim", "--alpha-grid", ""], 2, ERR + "empty grid\n"),
    (["detect-sim", "--n-grid", "1,2", "--alpha-grid", "0:0.9999:0.0001"], 2,
     ERR + "the n x alpha grid has more than 10000 entries\n"),
    (["detect-sim", "--q", "1.5", "--nu", "0.3"], 2,
     ERR + "schedule exponent nu=0.3 outside (0, 1/6)\n"),
    (["detect-sim", "--n-grid", "1.5", "--q", "1.5"], 2,
     ERR + "grid entry '1.5' is not an integer\n"),
    (["detect-sim", "--q", "1.5", "--n-grid", "0", "--alpha-grid", "0.1"], 2,
     ERR + "noise parameter q=1.5 outside [0, 1]\n"),
    (["detect-sim", "--q", "1.5", "--scenario", "1", "--n-grid", "31"], 2,
     ERR + "noise parameter q=1.5 outside [0, 1]\n"),
    (["detect-sim", "--q", "-0.1", "--alpha-grid", "2"], 2,
     ERR + "noise parameter q=-0.1 outside [0, 1]\n"),
    (["detect-sim", "--n-grid", "101", "--alpha-grid", "2"], 2,
     ERR + "n=101 exceeds the cap 100 for scenario E1_ONLY\n"),
    (["detect-sim", "--n-grid", "0", "--alpha-grid", ""], 2, ERR + "empty grid\n"),
]


@pytest.mark.parametrize("argv, code, err", DETECT_ERRORS,
                         ids=[shlex.join(argv) for argv, *_ in DETECT_ERRORS])
def test_detect_sim_errors_exit_and_print_as_pinned(argv, code, err, capsys):
    assert (cli.main(argv), *capsys.readouterr()) == (code, "", err)


# (argv, exit code, stderr) of bad scenario calls.  --format csv is refused before the q
# check and before any numerical refusal.
SCENARIO_ERRORS = [
    (["scenario", "--format", "csv"], 2, ERR + "scenario reports are JSON only; drop --format csv\n"),
    (["scenario", "--q", "1.5", "--format", "csv"], 2,
     ERR + "scenario reports are JSON only; drop --format csv\n"),
    (["scenario", "--q", "5e-324", "--format", "csv"], 2,
     ERR + "scenario reports are JSON only; drop --format csv\n"),
    (["scenario", "--q", "1.5"], 2, ERR + "noise parameter q=1.5 outside [0, 1]\n"),
    (["scenario", "--q", "5e-324"], 3,
     FAIL + "ALL_ENV kernel overlap 5e-324 at q=5e-324 is not a positive normal float\n"),
]


@pytest.mark.parametrize("argv, code, err", SCENARIO_ERRORS,
                         ids=[shlex.join(argv) for argv, *_ in SCENARIO_ERRORS])
def test_scenario_errors_exit_and_print_as_pinned(argv, code, err, capsys):
    assert (cli.main(argv), *capsys.readouterr()) == (code, "", err)


def test_unwritable_output_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    assert cli.main(["bound-curve", "--q-grid", "0.5", "--out", str(target)]) == 2


def test_numerical_failure_exits_three(monkeypatch, capsys):
    def boom(q):
        raise ArithmeticError("synthetic eigensolver breakdown")

    monkeypatch.setattr(covert, "_eta", boom)  # bound-curve's eta, checked once per grid
    assert cli.main(["bound-curve", "--q-grid", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_eigensolver_failure_exits_three(monkeypatch, capsys):
    # LinAlgError subclasses ValueError, so uncaught it would read as bad input
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    assert cli.main(["detect-sim", "--n-grid", "3"]) == 3
    err = capsys.readouterr().err
    assert err == "qcovert: numerical failure: eigensolver failed: Eigenvalues did not converge\n"


def test_non_finite_grid_entries_exit_two(capsys):
    # an overflowing entry is bad input, not a numerical failure
    for argv in (["rate-table", "--n-grid", "inf"], ["rate-table", "--n-grid", "1e400"],
                 ["detect-sim", "--n-grid", "inf"]):
        assert cli.main(argv) == 2
        assert "non-finite" in capsys.readouterr().err


def _csv_row(path):
    (row,) = csv.DictReader(path.read_text().splitlines())
    return row


def test_detect_sim_budget_where_the_dense_route_failed(tmp_path):
    # E1 at a small weight: the dense relative entropy cancelled to a
    # negative number here and the run exited 2
    code, path = run(["detect-sim", "--n-grid", "100", "--alpha-grid", "1e-8", "--q", "0.5",
                      "--scenario", "3"], tmp_path, "e1.csv")
    assert code == 0
    row = _csv_row(path)
    div = 100 * mp_willie_divergence(1e-8, 0.5)
    assert float(row["div_total"]) == pytest.approx(float(div), rel=1e-11)
    floor = 0.5 * (1.0 - math.sqrt(math.log(2.0) * float(div) / 2.0))
    assert float(row["pinsker_floor"]) == pytest.approx(floor, rel=1e-11)
    # ALL_ENV: omega_alpha leaves the support of omega_0, so the budget is
    # infinite at any alpha > 0; the dense route printed 5.5e-17 here
    code, path = run(["detect-sim", "--scenario", "1", "--n-grid", "1", "--alpha-grid", "1e-16"],
                     tmp_path, "all.csv")
    assert code == 0
    row = _csv_row(path)
    assert (row["div_total"], row["pinsker_floor"]) == ("inf", "-inf")


def test_detect_sim_underflowing_budget_exits_three(capsys):
    # E1 at alpha = 1e-200: the single-use warden divergence (~1e-400
    # bits) is below the smallest double, so the budget cannot be given
    # to any relative accuracy and the row is refused, as on the rate path
    argv = ["detect-sim", "--scenario", "3", "--n-grid", "1", "--alpha-grid", "1e-200"]
    assert cli.main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [Scenario.ALL_ENV, Scenario.E1_ONLY], ids=["1", "3"])
def test_detect_sim_single_use_trace_distance_at_tiny_weight(scenario, tmp_path):
    # At n = 1, T(alpha) = alpha T(1).  Subtracting the O(1) blocks printed
    # 1.39e-16 (scenario 1) and 1.14e-16 (scenario 3) here, for the true
    # 8.09e-17 and 6.12e-17.
    code, path = run(["detect-sim", "--scenario", str(int(scenario)), "--n-grid", "1",
                      "--alpha-grid", "1e-16", "--q", "0.5"], tmp_path, "t.csv")
    assert code == 0
    (t_one,) = mp_warden_trace_distances(1, [1.0], 0.5, scenario)
    assert float(_csv_row(path)["trace_dist"]) == pytest.approx(1e-16 * float(t_one), rel=1e-12, abs=0.0)


def test_detect_sim_trace_distance_is_linear_at_tiny_weight(tmp_path):
    # T = alpha T'(0) + O(alpha^2); the subtracting route printed 0 at 1e-100
    values = []
    for alpha in ("1e-100", "1e-50"):
        code, path = run(["detect-sim", "--n-grid", "3", "--alpha-grid", alpha], tmp_path, "t.csv")
        assert code == 0
        values.append(float(_csv_row(path)["trace_dist"]) / float(alpha))
    assert values[0] > 0.0
    assert values[0] == pytest.approx(values[1], rel=1e-11)


def test_detect_sim_subnormal_trace_distance_exits_three(capsys):
    # ALL_ENV at alpha = 1e-320: T ~ 8e-321 is subnormal, so it has lost
    # its relative accuracy and the row is refused, as on the closed forms
    argv = ["detect-sim", "--scenario", "1", "--n-grid", "1", "--alpha-grid", "1e-320"]
    assert cli.main(argv) == 3
    assert "trace distance" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["5e-324", "1e-323", "1.5e-323"])
def test_detect_sim_at_subnormal_noise(q, tmp_path, capsys):
    # The coherence is 0.5 sqrt(q) sqrt(1 - 3q/4); formed as the root of a
    # product with q/4 it underflowed to 0, and T printed as 0 with exit 0.
    code, path = run(["detect-sim", "--q", q, "--scenario", "1", "--n-grid", "1",
                      "--alpha-grid", "1"], tmp_path, "t.csv")
    assert code == 0
    (ref,) = mp_warden_trace_distances(1, [1.0], float(q), Scenario.ALL_ENV)
    assert float(_csv_row(path)["trace_dist"]) == pytest.approx(float(ref), rel=1e-11, abs=0.0)
    # E1's budget n D ~ q log(1/q) is subnormal: refused by name, not by a division by zero
    argv = ["detect-sim", "--q", q, "--scenario", "3", "--n-grid", "1", "--alpha-grid", "1"]
    assert cli.main(argv) == 3
    assert "warden's Bloch weight" in capsys.readouterr().err


def test_detect_sim_refuses_an_error_below_the_pinsker_floor(monkeypatch, capsys):
    # every exact T keeps E >= floor - 1e-12; a row that breaks it is a numerical failure
    monkeypatch.setattr(detection, "_pinsker_floor", lambda div_total: 1.0)
    assert cli.main(["detect-sim", "--n-grid", "3"]) == 3
    assert "fell below the Pinsker floor" in capsys.readouterr().err


def test_detect_sim_refuses_an_unsolved_secular_equation(monkeypatch, capsys):
    # with no Newton step the last iterate printed trace_dist 0.520166 with exit 0 (true 0.520980)
    monkeypatch.setattr(detection, "NEWTON_STEPS", 0)
    argv = ["detect-sim", "--scenario", "1", "--n-grid", "3", "--alpha-grid", "0.3"]
    assert (cli.main(argv), *capsys.readouterr()) == (
        3, "", FAIL + "secular equation not solved in 0 Newton steps\n")


def test_detect_sim_refuses_an_allenv_error_below_the_normal_range(capsys):
    # printed E_n 0.0 with exit 0; the 50-digit reference gives 2.684e-352
    argv = ["detect-sim", "--scenario", "1", "--n-grid", "30", "--alpha-grid", "1",
            "--q", "0.999999"]
    assert (cli.main(argv), *capsys.readouterr()) == (3, "", FAIL + (
        "error probability 0.0 at n=30, alpha=1.0 is not a positive normal float\n"))
    # orthogonal states: E is exactly 0, and printed as such
    argv[-1] = "1"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "30,1,1,0,-inf,inf"


def test_scenario_refuses_below_the_normal_range(capsys):
    # printed det_omega0 0.0 for E2_ONLY and E1_ONLY with exit 0 (true: 2.47e-324, 1.24e-324)
    assert (cli.main(["scenario", "--q", "5e-324"]), *capsys.readouterr()) == (3, "", FAIL + (
        "ALL_ENV kernel overlap 5e-324 at q=5e-324 is not a positive normal float\n"))
    for scenario, det in (("2", "4.9999999999997e-311"), ("3", "2.5e-311")):
        assert cli.main(["scenario", "--q", "1e-310", "--scenario", scenario]) == 3
        assert f"determinant {det} at q=1e-310" in capsys.readouterr().err


def test_detect_sim_refuses_an_e1_error_below_the_fidelity_floor(capsys):
    # (1 - T)/2 printed E_n 0 here with exit 0; by Fuchs-van de Graaf the true E
    # is at least (1 - sqrt(1 - F^200))/2 = 5.3e-31, F the single-use root fidelity
    argv = ["detect-sim", "--scenario", "3", "--n-grid", "100", "--alpha-grid", "1", "--q", "0.9"]
    assert (cli.main(argv), *capsys.readouterr()) == (3, "", FAIL + (
        "error probability 0.0 at n=100, alpha=1.0 fell below the Fuchs-van de Graaf floor "
        "5.334304714829417e-31\n"))


ROOT_EXPORTS = {
    "Scenario", "SupportReport", "scenario_reports", "RateReport",
    "capacity_curve", "moment_curve", "rate_reports", "schedule_weights",
    "DetectionResult", "warden_errors",
}


def test_package_root_exports_the_table_api():
    public = {name for name, value in vars(qcovert).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_EXPORTS


def test_tables_take_one_shot_grids():
    # each table reads its grid once: a generator gives the rows the list gives
    q = 0.5
    alphas, qs, ns = [1e-3, 1e-4, 0.3], [0.3, 0.5], [10**4, 10**5]
    cases = [
        (covert.moment_curve, (alphas, q)),
        (covert.capacity_curve, (qs,)),
        (covert.rate_reports, (ns, 0.05, q)),
        (detection.warden_errors, ([1, 2, 3], alphas, q, Scenario.E1_ONLY)),
        (channels.scenario_reports, (q, list(Scenario))),
    ]
    for table, args in cases:
        rows = table(*args)
        assert rows and table(*(iter(a) if isinstance(a, list) else a for a in args)) == rows


# Each function that takes blocklengths, as a function of them alone.
BLOCKLENGTH_TABLES = {
    "rate_reports": lambda ns: covert.rate_reports(ns, 0.05, 0.5),
    "schedule_weights": lambda ns: list(covert.schedule_weights(ns, 0.05)),
    "warden_errors": lambda ns: detection.warden_errors(
        ns, [0.1] * len(ns), 0.5, Scenario.E1_ONLY),
}


@pytest.mark.parametrize("name", list(BLOCKLENGTH_TABLES))
def test_blocklengths_are_finite_integers_and_rows_hold_ints(name):
    # an infinite or nan n is bad input, a ValueError with the text of any other bad n
    table = BLOCKLENGTH_TABLES[name]
    for bad in (math.inf, -math.inf, math.nan, 2.5, 0):
        with pytest.raises(ValueError, match=rf"^[a-z ]+ n={bad!r} must be a positive integer$"):
            table([bad])
    rows = table([2.0, 10.0])
    assert rows == table([2, 10])
    if name != "schedule_weights":  # an integral float is the int in each row
        assert [type(row.n) for row in rows] == [int, int]


# The output records' fields: the order they had as frozen dataclasses, SupportReport's
# label after its number, and RateReport's in rate-table's columns, as the commands print them
RECORD_FIELDS = {
    qcovert.SupportReport: ("scenario", "label", "q", "support_contained", "kernel_overlap",
                            "trace_dist", "det_omega0", "det_omega1", "verdict", "note"),
    qcovert.RateReport: ("n", "nu", "q", "alpha_n", "logM_finite", "logM_asymptotic",
                         "willie_div_total", "covert_rate_L", "covert_rate_limit"),
    qcovert.DetectionResult: ("n", "alpha", "trace_dist", "error_prob", "pinsker_floor",
                              "div_total"),
}


@pytest.mark.parametrize("record", list(RECORD_FIELDS), ids=lambda record: record.__name__)
def test_output_records_are_immutable_named_tuples(record):
    fields = RECORD_FIELDS[record]
    assert record._fields == fields
    assert record._field_defaults == ({"note": ""} if record is qcovert.SupportReport else {})
    rep = record(**dict.fromkeys(fields, 0.5))  # by keyword
    assert repr(rep) == record.__name__ + "(" + ", ".join(f"{f}=0.5" for f in fields) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rep, name, 1.0)


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]


def test_every_public_library_function_is_imported_by_the_cli():
    """The tables are the API: no public function sits beside them unused by a command."""
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {node.name for module in (channels, covert, detection)
              for node in ast.parse(Path(module.__file__).read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public == {"scenario_reports", "capacity_curve", "check_nu", "moment_curve",
                      "rate_reports", "schedule_weights", "warden_errors"}
    assert public <= imported


@pytest.mark.parametrize("module", [channels, covert], ids=["channels", "covert"])
def test_closed_form_modules_import_no_numpy(module):
    """The scenario and rate tables need no numpy, so a launch that runs only them can skip it."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] == "numpy"]


def test_unknown_command_exits_two(capsys):
    for argv in (["no-such-command"], [], ["--no-such-option"], ["rate-table", "--no-such-option"],
                 ["scenario", "--scenario", "4"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    assert "required: command\n" in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(tmp_path):
    _, first = run(["rate-table", "--n-grid", "1e4"], tmp_path, "a.csv")
    _, second = run(["rate-table", "--n-grid", "1e4"], tmp_path, "b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_rate_path_exit_codes_are_truthful(tmp_path, capsys):
    # n = 1e300 is valid input, but its single-use warden divergence
    # (~1e-370 bits) underflows: a numerical failure, not a usage error
    assert cli.main(["rate-table", "--n-grid", "1e300"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "warden divergence" in err
    # alpha = 1e-300 is still representable and comes out positive and
    # accurate; a subnormal alpha has lost its precision and is refused
    code, path = run(["approx-check", "--alpha-grid", "1e-300", "--format", "json"], tmp_path)
    assert code == 0
    (row,) = json.loads(path.read_text())["rows"]
    # two-term form A a ln(1/a) + B a at q = 0.5, exact to double precision here
    a_coeff = 1.0 / 3.0
    b_coeff = a_coeff + 0.5 * math.log(3.0) - 5.0 / 12.0 * math.log(9.0 / 5.0)
    two_term = (a_coeff * 1e-300 * math.log(1e300) + b_coeff * 1e-300) / math.log(2.0)
    assert row["D_exact"] == pytest.approx(two_term, rel=1e-11)
    assert cli.main(["approx-check", "--alpha-grid", "1e-310"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-table", "--n-grid", "1e2,1e4,1e6,1e12,1e15"],
        ["approx-check", "--alpha-grid", "0,1e-12,2e-12,1e-6,0.3,0.7"],
        ["bound-curve"],
        ["scenario"],
        ["scenario", "--q", "3e-15"],
    ],
)
def test_closed_form_commands_call_no_eigensolver(argv, tmp_path, monkeypatch):
    _, expected = run(argv, tmp_path, "plain.csv")

    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigensolver called on a closed-form path")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    code, path = run(argv, tmp_path, "guarded.csv")
    assert code == 0
    assert path.read_bytes() == expected.read_bytes()
