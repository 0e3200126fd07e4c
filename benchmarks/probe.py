"""Host-speed probes that timings are normalized by.

The machine's speed drifts by tens of percent over minutes.  A probe is a
fixed piece of numpy work, run between the workload's tables, that never
calls qcovert.  A table's time is scaled by NOMINAL[kind] / (time of the
probes next to it), so it is reported in *nominal seconds*: the seconds
it would take on a host where the probe takes exactly its nominal time.

Four probes match the kinds of work that are timed:

closed  Python-level calls on 4x4 and 2x2 complex matrices (validation,
        eigh/eigvalsh, ordering, products, a Kronecker product), the
        per-row pattern of the closed-form tables.
dense   one eigvalsh of a fixed 1024x1024 complex Hermitian matrix, the
        pattern of the detection simulator at n = 10 (E1) and n = 5 (ALL_ENV).
cli     argument parsing with argparse subcommands, a small JSON dump and
        a file write: the per-call overhead of the CLI, which dominates
        small tables such as ``scenario``.
import  ``import numpy`` in a fresh interpreter, timed by worker.py before
        qcovert is imported.  Set-up is mostly import work, which the
        compute probes above do not follow.  qcovert cannot change this
        probe's time: numpy is imported before it, in every launch.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Nominal probe times in seconds, measured once with one BLAS thread on the
# 2-core x86-64 host the reference figures in README.md come from.  Fixed:
# changing them rescales every reported time.
NOMINAL = {"closed": 0.0035, "dense": 0.40, "cli": 0.004, "import": 0.09}

CLOSED_ITERATIONS = 50
CLI_ITERATIONS = 2
CLI_COMMANDS = ("alpha", "beta", "gamma", "delta", "epsilon")
CLI_OPTIONS = ("--x", "--y", "--z", "--grid", "--out")
DENSE_DIM = 1024

# Captured at import, before any tracing wrapper is installed, so probe
# eigensolves are never counted as the program's.
_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

_M4 = np.array(
    [[0.6, 0.0, 0.0, 0.2 - 0.05j],
     [0.0, 0.15, 0.0, 0.0],
     [0.0, 0.0, 0.1, 0.0],
     [0.2 + 0.05j, 0.0, 0.0, 0.15]],
    dtype=np.complex128,
)
_A2 = np.array([[0.7, 0.1 - 0.05j], [0.1 + 0.05j, 0.3]], dtype=np.complex128)


def closed() -> float:
    acc = 0.0
    for _ in range(CLOSED_ITERATIONS):
        m = np.asarray(_M4, dtype=np.complex128)
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ArithmeticError("probe input is not finite")
        acc += float(np.max(np.abs(m - m.conj().T)))
        acc += float(_eigvalsh(m)[0])
        w, v = _eigh(m)
        order = np.argsort(-w, kind="stable")
        w, v = w[order], v[:, order]
        log_m = (v * np.log2(w)) @ v.conj().T
        acc += float(np.trace(m @ log_m).real)
        acc += float(np.kron(_A2, _A2)[0, 0].real)
    return acc


def _cli(path: Path) -> None:
    for _ in range(CLI_ITERATIONS):
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in CLI_COMMANDS:
            command = sub.add_parser(name, help=f"{name} table")
            for option in CLI_OPTIONS:
                command.add_argument(option, default=None, help=f"{option} value")
        args = parser.parse_args(["gamma", "--x", "0.25", "--out", str(path)])
        rows = [{"x": float(args.x), "k": k} for k in range(3)]
        with open(args.out, "w") as fh:
            fh.write(json.dumps({"rows": rows}, indent=2))


def _dense_matrix() -> np.ndarray:
    rng = np.random.default_rng(20230509)
    a = rng.standard_normal((DENSE_DIM, DENSE_DIM)) + 1j * rng.standard_normal(
        (DENSE_DIM, DENSE_DIM))
    return a + a.conj().T


def make(kind: str, workdir: Path):
    """The probe function of one kind; the dense matrix is built here, once.

    The cli probe writes its file into ``workdir``.
    """
    if kind == "closed":
        return closed
    if kind == "cli":
        return lambda: _cli(Path(workdir) / "cli-probe.json")
    if kind == "dense":
        matrix = _dense_matrix()
        return lambda: float(_eigvalsh(matrix)[0])
    raise ValueError(f"unknown probe kind {kind!r}")


def normalize(seconds: float, probe_before: float, probe_after: float, kind: str) -> float:
    """A raw time in nominal seconds, from the probes on either side of it."""
    return seconds * NOMINAL[kind] / (0.5 * (probe_before + probe_after))
