"""Quick self-check of the benchmark: ``python3 benchmarks/selfcheck.py``.

1. Each workload runs briefly, untraced and traced, and reports every
   metric; only the four known faults of rate_table fail.
2. The row checks reject a healthy row perturbed by a relative 1e-6 in
   D (approx-check), div_total (rate-table) or eta (bound-curve).
3. rows_per_s is normalized by the probe: scaling every probe time by a
   factor scales the metric by that factor.
4. Two rounds of a workload share no call but the fixed fault calls.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import oracle
import run
import workloads

QUICK_SECONDS = "1"
PERTURBATION = 1e-6


def _report(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def quick_runs() -> bool:
    ok = True
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", QUICK_SECONDS, "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                ok &= _report(False, f"{name} trace={trace}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"] for m in spec[group]}
            w = workloads.make(name, 1, 0)
            share = len(w.faults) / len(w.round)
            ok &= _report(result["correct"], f"{name} trace={trace}: correct")
            ok &= _report(set(result["metrics"]) == expected,
                          f"{name} trace={trace}: reports every {group} metric")
            ok &= _report(result["failed"] == share * result["attempted"],
                          f"{name} trace={trace}: failed {result['failed']} of "
                          f"{result['attempted']}, the known-fault share {share:.3g}")
    return ok


def _perturbed(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[1][col] = f"{float(rows[1][col]) * (1 + PERTURBATION):.12g}"
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def perturbations() -> bool:
    sys.path.insert(0, str(run.ROOT / "src"))
    from qcovert import cli

    cases = [
        (workloads.make("rate_table", 1, 0).round[1], "D_exact"),
        (workloads.make("rate_table", 1, 0).round[0], "div_total"),
        (workloads.make("q_scan", 1, 0).round[0], "eta"),
    ]
    ok = True
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for argv, column in cases:
            out = Path(tmp) / "table.csv"
            code = cli.main(argv + ["--out", str(out)])
            text = out.read_text()
            ok &= _report(not oracle.check_table(argv, code, text),
                          f"{argv[0]}: healthy output passes")
            fails = oracle.check_table(argv, code, _perturbed(text, column))
            ok &= _report(bool(fails), f"{argv[0]}: first-row {column} x (1 + 1e-6) fails"
                          + (f" ({fails[0]})" if fails else ""))
    return ok


def normalization() -> bool:
    w = workloads.make("rate_table", 1, 0)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        result = run._worker({
            "mode": "run", "workload": "rate_table", "seed": 1, "probes": w.probes,
            "seconds": 0.5, "trace": False, "out": str(Path(tmp) / "{op}.out"), "spans": "",
        }, Path(tmp))
    rows = run.check_outputs("rate_table", 1, result).rows
    base = run.end_to_end(result, rows, 1.0)["rows_per_s"]["value"]
    slowed = copy.deepcopy(result)
    for _, tables in slowed["timing"]:
        for table in tables:
            table[1] *= 2.0
            table[2] *= 2.0
    doubled = run.end_to_end(slowed, rows, 1.0)["rows_per_s"]["value"]
    raw = statistics.median(rows[j] / sum(table[0] for table in tables)
                            for j, (_, tables) in enumerate(result["timing"], 1))
    ok = _report(abs(doubled / base - 2.0) < 1e-12,
                 f"rows_per_s follows the probe: {base:.6g} -> {doubled:.6g} when probes take 2x")
    ok &= _report(abs(raw / base - 1.0) > 1e-9,
                  f"normalized rows_per_s {base:.6g} differs from the raw {raw:.6g}")
    return ok


def fresh_rounds() -> bool:
    ok = True
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 1, 1), workloads.make(name, 1, 2)
        calls = [argv for argv, other in zip(a.round, b.round) if argv == other]
        ok &= _report(len(calls) == len(a.faults) and a.setup != b.setup,
                      f"{name}: two rounds share only the {len(a.faults)} fixed fault calls")
    return ok


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    ok = fresh_rounds()
    ok &= perturbations()
    ok &= normalization()
    ok &= quick_runs()
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
