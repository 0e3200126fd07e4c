"""qcovert benchmark: one workload, one run, one JSON line of results.

    python3 benchmarks/run.py --workload rate_table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every process the benchmark starts is a fresh interpreter with BLAS pinned
to one thread.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import oracle
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 9
CHILD_TIMEOUT_S = 150

# One BLAS thread: with two, the dense eigensolves of detect-sim spread
# twice as wide from run to run and small calls pay thread hand-off.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(job: dict, tmp: Path) -> dict:
    job_path, result_path = tmp / "job.json", tmp / "result.json"
    job_path.write_text(json.dumps(job))
    env = {**os.environ, **BLAS_PIN}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(result_path.read_text())
    expected = ROOT / "src" / "qcovert"
    if Path(result["qcovert"]).resolve().parent != expected.resolve():
        raise RuntimeError(f"qcovert imported from {result['qcovert']}, not {expected}")
    return result


def _setup_seconds(name: str, seed: int, tmp: Path) -> tuple[float, list[str]]:
    """Median nominal setup time over fresh launches, and any check failures.

    Each launch draws its own one-row table, so no launch can reuse
    another's result, not even through a file.
    """
    times, fails = [], []
    for j in range(SETUP_LAUNCHES):
        argv = workloads.make(name, seed, f"setup{j}").setup
        out = tmp / "setup.out"
        r = _worker({"mode": "setup", "argv": argv, "out": str(out)}, tmp)
        text = out.read_text() if r["code"] == 0 else ""
        fails += oracle.check_table(argv, r["code"], text)
        times.append(probe.normalize(r["seconds"], r["probe"], r["probe"], "import"))
    return statistics.median(times), fails


def _rows(text: str) -> int:
    if text.startswith("{"):
        return len(json.loads(text)["rows"])
    return text.count("\n") - 1


class Checked(NamedTuple):
    rows: list          # data rows written, per round (warm-up first)
    failed: int         # calls whose output failed its check, every round
    faults: dict        # index into the round -> [rounds failed, argv, first failure]
    mismatches: list    # repeated calls whose file differs from the first


def check_outputs(name: str, seed: int, result: dict) -> Checked:
    """Check every output of every round against the oracle, after the worker ended."""
    rows, failed, faults, first, mismatches = [], 0, {}, [], []
    rounds = list(enumerate(result["rounds"])) + [("repeat", result["repeat"])]
    for k, outputs in rounds:
        argvs = workloads.make(name, seed, 0 if k == "repeat" else k).round
        written = 0
        for i, (argv, (code, text)) in enumerate(zip(argvs, outputs)):
            fails = oracle.check_table(argv, code, text)
            if fails:
                failed += 1
                detail = (result["stderr"][i].strip() if k == 0 else "") or fails[0]
                faults.setdefault(i, [0, argv, detail.splitlines()[-1]])[0] += 1
            if code == 0:
                written += _rows(text)
            if k == 0:
                first.append((code, text))
            elif k == "repeat" and (code, text) != first[i]:
                mismatches.append(" ".join(argv)[:80])
        if k != "repeat":
            rows.append(written)
    return Checked(rows, failed, faults, mismatches)


def _round_seconds(tables) -> float:
    return sum(probe.normalize(*table) for table in tables)


def end_to_end(result: dict, rows: list, setup_s: float) -> dict:
    """rows[k] is the data rows of round k; timed round j is round j + 1."""
    rates = [rows[j] / _round_seconds(tables)
             for j, (traced, tables) in enumerate(result["timing"], 1) if not traced]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "rows_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, rows_per_round: list, detection: dict) -> dict:
    trace = result["trace"]
    rows = sum(rows_per_round[j] for j, (traced, _) in enumerate(result["timing"], 1) if traced)
    counts = trace["counts"]

    op_of = {name: str(i) for i, name in detection.items()}  # JSON keys are strings

    def detection_ms(metric):
        # Median over traced rounds of the table's last warden_error span;
        # 0 on a workload whose tables never reach the detection layer.
        spans = trace["last_warden_error"].get(op_of.get(metric), [])
        return 1e3 * statistics.median(spans) if spans else 0.0

    def per_row(*names):
        return sum(counts.get(n, 0) for n in names) / rows

    def share(layer):
        return trace["layer_self"].get(layer, 0.0) / trace["root_seconds"]

    traced = [_round_seconds(t) for flag, t in result["timing"] if flag]
    plain = [_round_seconds(t) for flag, t in result["timing"] if not flag]
    values = {
        "linalg.eigensolves_per_row": (per_row("numpy.eigh", "numpy.eigvalsh"), "count"),
        "linalg.validations_per_row": (
            per_row("linalg.density_operator", "linalg.hermitian_operator"), "count"),
        "linalg.eig_dim3_per_row": (trace["eig_dim3"] / rows, "count"),
        "linalg.kron_bytes_per_row": (trace["kron_bytes"] / rows, "B"),
        "linalg.self_share": (share("linalg"), "ratio"),
        "divergences.calls_per_row": (per_row(
            "divergences.moments", "divergences.relative_entropy", "divergences.eta"), "count"),
        "divergences.self_share": (share("divergences"), "ratio"),
        "covert.willie_eta_per_row": (per_row("covert.willie_eta"), "count"),
        "covert.dvq_exact_per_row": (per_row("covert.dvq_exact"), "count"),
        "covert.self_share": (share("covert"), "ratio"),
        "channels.marginals_per_row": (per_row(
            "channels.e1only_marginal", "channels.basis_marginal_pair",
            "channels.willie_marginal"), "count"),
        "channels.self_share": (share("channels"), "ratio"),
        "detection.e1_n10_ms": (detection_ms("detection.e1_n10_ms"), "ms"),
        "detection.allenv_n5_ms": (detection_ms("detection.allenv_n5_ms"), "ms"),
        "detection.max_dim": (trace["max_detection_dim"], "count"),
        "detection.self_share": (share("detection"), "ratio"),
        "cli.format_us_per_row": (1e6 * trace["write_nominal_seconds"] / rows, "us"),
        "cli.self_share": (share("cli"), "ratio"),
        "trace.overhead": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its worker and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qcovert" / "cli.py").is_file():
        print(f"run.py: no qcovert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    w = workloads.make(args.workload, args.seed, 0)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s, setup_fails = ((0.0, []) if args.trace
                                else _setup_seconds(args.workload, args.seed, tmp))
        result = _worker({
            "mode": "run", "workload": args.workload, "seed": args.seed, "probes": w.probes,
            "seconds": args.seconds, "trace": bool(args.trace), "out": str(tmp / "{op}.out"),
            "spans": str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
        }, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checked = check_outputs(args.workload, args.seed, result)

    rounds = len(result["rounds"]) + 1
    correct = not checked.mismatches and not setup_fails
    for i, (count, argv_i, detail) in sorted(checked.faults.items()):
        known = "known fault" if i in w.faults else "UNEXPECTED"
        correct = correct and i in w.faults
        print(f"failed ({known}) in {count} of {rounds} rounds: "
              f"qcovert {' '.join(argv_i)[:80]}: {detail}")
    for line in setup_fails[:3]:
        print(f"failed (UNEXPECTED, setup): {line}")
    for line in checked.mismatches:
        print(f"failed (UNEXPECTED): repeating qcovert {line} wrote a different file")

    attempted = sum(map(len, result["rounds"])) + len(result["repeat"])
    metrics = (per_layer(result, checked.rows, w.detection) if args.trace
               else end_to_end(result, checked.rows, setup_s))
    print(f"attempted = {attempted} calls in {rounds} rounds, failed = {checked.failed}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
