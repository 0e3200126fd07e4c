"""One workload in a fresh interpreter: ``python3 worker.py JOB RESULT``.

JOB is a JSON file written by run.py.  Two modes:

setup  time ``import numpy`` (the probe of this mode), then the whole of
       ``import numpy``, ``import qcovert.cli`` and one small table.
run    a warm-up round with no probe (its peak RSS is the workload's),
       then timed rounds, each table between two probes, until the time
       is up.  Round k runs the calls ``workloads.make(workload, seed, k)``
       draws, so no input repeats.  With tracing, untraced and traced
       rounds alternate until MAX_TRACED_ROUNDS rounds have been traced.
       Last, untimed, the warm-up round runs again for the byte-identity
       check.  Every output goes back to run.py, which checks it.

Only the standard library is imported before the setup timer starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_ROUNDS = 3          # timed untraced rounds, however short the run
MAX_TRACED_ROUNDS = 10  # bounds the spans held in memory


def _call(cli, argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv + ["--out", out])
        t1 = time.perf_counter()
    return code, t1 - t0, err.getvalue()


def setup(job):
    # ``import numpy`` is timed on its own first: it is this mode's host
    # probe (probe.py), since set-up is mostly import work.
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t_numpy = time.perf_counter() - t0
    from qcovert import cli
    code = cli.main(job["argv"] + ["--out", job["out"]])
    elapsed = time.perf_counter() - t0
    return {"code": code, "seconds": elapsed, "probe": t_numpy, "qcovert": cli.__file__}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(job):
    from qcovert import cli
    import probe
    import workloads

    def ops(k):
        return workloads.make(job["workload"], job["seed"], k).round

    first = ops(0)
    paths = [job["out"].format(op=i) for i in range(len(first))]

    def output(i, code):
        # Read back and removed, so the directory never grows: a call that
        # creates its file in a directory of thousands runs measurably slower.
        path = Path(paths[i])
        text = path.read_text() if code == 0 else ""
        path.unlink(missing_ok=True)
        return [code, text]

    outputs, stderr = [], []
    for i, argv in enumerate(first):
        code, _, err = _call(cli, argv, paths[i])
        outputs.append(output(i, code))
        stderr.append(err)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = [outputs]

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
    kinds = job["probes"]      # one probe kind per call of the round
    probes = {kind: probe.make(kind, Path(paths[0]).parent) for kind in set(kinds)}
    latest = {}                # probe kind -> its latest time

    timing = []         # per timed round: [traced, [[seconds, before, after, kind], ...]]
    layer_self = {}
    last_warden = {}    # op index -> nominal seconds of its last warden_error span
    traced_root = traced_write_nominal = 0.0
    traced_rounds = 0
    deadline = time.perf_counter() + job["seconds"]
    for fn in probes.values():  # a first call pays lazy set-up and page faults
        fn()
    latest[kinds[0]] = _timed(probes[kinds[0]])
    while True:
        argvs = ops(len(rounds))
        traced = (tracer is not None and len(timing) % 2 == 1
                  and traced_rounds < MAX_TRACED_ROUNDS)
        if traced:
            tracer.install()
        tables, outputs = [], []
        for i, argv in enumerate(argvs):
            kind, following = kinds[i], kinds[(i + 1) % len(kinds)]
            mark = len(tracer.spans) if traced else 0
            code, seconds, _ = _call(cli, argv, paths[i])
            before, after = latest[kind], _timed(probes[kind])
            latest[kind] = after
            if following != kind:  # the next call's "before"
                latest[following] = _timed(probes[following])
            tables.append([seconds, before, after, kind])
            if traced:
                stop = len(tracer.spans)
                layers, root, write = tracer.self_times(mark, stop)
                for name, value in layers.items():
                    layer_self[name] = layer_self.get(name, 0.0) + value
                traced_root += root
                traced_write_nominal += probe.normalize(write, before, after, kind)
                warden = tracer.last_span("detection.warden_error", mark, stop)
                if warden is not None:
                    last_warden.setdefault(i, []).append(
                        probe.normalize(warden, before, after, kind))
            outputs.append(output(i, code))
        if traced:
            tracer.uninstall()
            traced_rounds += 1
        timing.append([traced, tables])
        rounds.append(outputs)
        untraced = sum(1 for r in timing if not r[0])
        if time.perf_counter() >= deadline and untraced >= MIN_ROUNDS and (
                tracer is None or traced_rounds >= MIN_ROUNDS):
            break

    # Untimed: the first round again in this process, whose files must be
    # byte-identical to the first ones.
    repeat = [output(i, _call(cli, argv, paths[i])[0]) for i, argv in enumerate(first)]

    result = {
        "rounds": rounds, "repeat": repeat, "stderr": stderr,
        "rss_mb": rss_mb, "timing": timing, "qcovert": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = {
            "traced_rounds": traced_rounds,
            "counts": dict(tracer.counts),
            "eig_dim3": tracer.eig_dim3,
            "kron_bytes": tracer.kron_bytes,
            "max_detection_dim": tracer.max_detection_dim,
            "layer_self": layer_self,
            "root_seconds": traced_root,
            "write_nominal_seconds": traced_write_nominal,
            "last_warden_error": last_warden,
        }
        tracer.write_spans(job["spans"])
    return result


def main(argv):
    job = json.loads(Path(argv[1]).read_text())
    result = setup(job) if job["mode"] == "setup" else run(job)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
