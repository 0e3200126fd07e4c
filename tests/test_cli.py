import csv
import json
import time

import pytest

from qcovert import cli
from qcovert.covert import capacity_lower_bound


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
    "bad", ["", "1:2", "0:1:0", "0:1:-0.1", ",", "0:1:inf", "0:inf:1", "0:10000:1"]
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


def test_parse_int_grid():
    assert cli.parse_int_grid("1e4,1e5") == [10000, 100000]
    assert cli.parse_int_grid("1:4:1") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        cli.parse_int_grid("2.5")


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
    assert rows[10][2] == f"{capacity_lower_bound(q):.12g}"


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


def test_scenario_single_and_boundary(tmp_path):
    code, path = run(["scenario", "--scenario", "3", "--q", "1.0"], tmp_path)
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["verdict"] == "degenerate"
    assert doc["rows"][0]["note"] != ""


def test_scenario_rejects_csv(tmp_path):
    code, _ = run(["scenario", "--format", "csv"], tmp_path)
    assert code == 2


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


def test_stdout_output(capsys):
    assert cli.main(["bound-curve", "--q-grid", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q,eta,capacity_lb")


def test_underscore_alias(capsys):
    assert cli.main(["bound_curve", "--q-grid", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("q,eta,capacity_lb")


def test_validation_errors_exit_two(tmp_path, capsys):
    # q grid touching the open boundary
    assert cli.main(["bound-curve", "--q-grid", "0:1:0.5"]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["approx-check", "--q", "1.5"]) == 2
    assert cli.main(["rate-table", "--q", "1.0"]) == 2
    assert cli.main(["rate-table", "--nu", "0.3"]) == 2
    # all-env cap is five uses
    assert cli.main(["detect-sim", "--scenario", "1", "--n-grid", "1:6:1"]) == 2
    capsys.readouterr()


def test_unwritable_output_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    assert cli.main(["bound-curve", "--q-grid", "0.5", "--out", str(target)]) == 2


def test_numerical_failure_exits_three(monkeypatch, capsys):
    def boom(q):
        raise ArithmeticError("synthetic eigensolver breakdown")

    monkeypatch.setattr(cli, "willie_eta", boom)
    assert cli.main(["bound-curve", "--q-grid", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_repeat_runs_are_byte_identical(tmp_path):
    _, first = run(["rate-table", "--n-grid", "1e4"], tmp_path, "a.csv")
    _, second = run(["rate-table", "--n-grid", "1e4"], tmp_path, "b.csv")
    assert first.read_bytes() == second.read_bytes()
