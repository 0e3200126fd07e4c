"""Mutations of ``src/qcovert`` that the named tests must kill.

Each entry of ``MUTANTS`` is one mutation: a file under ``src/qcovert/``,
the exact old text (it must occur exactly once in that file), the new text,
and the pytest IDs of the tests expected to fail on it.  A mutation that
needs a second edit to mean anything (a lazy import has to be lazy in two
modules) lists it in ``also``, as (file, old, new) triples.

The list is the evidence that deleting a test or an oracle loses nothing
it guarded: a change that deletes one reruns this list, and a mutation of
the code the deleted check covered is added with the test that now kills
it.  ``tests/test_mutants.py`` keeps the list from going stale in tier-1:
every old text still occurs once and every named test still exists.

Run from anywhere, with no flags::

    python tests/mutants.py

It copies ``src/`` into a temporary directory (the checkout is never
written), runs the union of the named tests once on the unchanged copy (they
must pass), then applies each mutation to a fresh copy and runs only that
entry's tests with ``python -m pytest -x``.  It exits 1 if a mutation
survives, if an old text does not occur exactly once, or if the unchanged
copy fails a named test.  About a minute on a 2-core x86-64 host.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # under src/qcovert
    old: str
    new: str
    kills: tuple  # test IDs, relative to the repository root
    also: tuple = ()  # further (file, old, new) edits of the same mutation

    def edits(self):
        return ((self.file, self.old, self.new), *self.also)


MOMENT_PINS = "tests/test_covert.py::test_moments_keep_their_bits_next_to_the_branch_switches"
GOLDEN = "tests/test_golden.py::test_cli_output_matches_golden[{}]"
RATE_ERROR = "tests/test_cli.py::test_rate_path_errors_exit_and_print_as_pinned[{}]"
CRITERION_09 = "tests/test_acceptance.py::test_criterion_09_detection_simulator"
E1_MPMATH = "tests/test_accuracy.py::test_detect_trace_distance_matches_mpmath[E1_ONLY-7-0.5]"

MUTANTS = (
    # covert._dvq, _g and _willie_divergence: the branch switches of the log(1 + u)
    # forms, the order of D's seven terms, the series' last term and the refusals
    Mutant("covert.py", "(_g(rel1) if rel1 > -0.999 else", "(_g(rel1) if rel1 > -0.99 else",
           (MOMENT_PINS,)),
    Mutant("covert.py", "(_g(rel2) if rel2 > -0.999 else", "(_g(rel2) if rel2 > -0.99 else",
           (MOMENT_PINS,)),
    Mutant("covert.py", "(_g(u) if u > -0.999 else", "(_g(u) if u > -0.99 else",
           (MOMENT_PINS,)),
    Mutant("covert.py", "(math.log1p(u) if u > -0.5 else", "(math.log1p(u) if u > -0.4 else",
           (GOLDEN.format("approx_check_workload.json"),)),
    Mutant("covert.py", "l_b = math.log1p(rel1) if rel1 > -0.5 else",
           "l_b = math.log1p(rel1) if rel1 > -0.4 else", (MOMENT_PINS,)),
    Mutant("covert.py",
           "    mean = (sigma0 * _g(rel0)\n"
           "            + sigma1 * (_g(rel1) if rel1 > -0.999 else half / m1 * math.log(half / m1) - rel1)\n"
           "            + sigma2 * (_g(rel2) if rel2 > -0.999 else half / m0 * math.log(half / m0) - rel2)\n"
           "            + sigma3 * _g(rel3) + a * _g(gap / a)\n"
           "            + d * (_g(u) if u > -0.999 else lam4 / d * math.log(lam4 / d) - u) + gap * log_ad)\n",
           "    mean = (gap * log_ad + sigma0 * _g(rel0)\n"
           "            + sigma1 * (_g(rel1) if rel1 > -0.999 else half / m1 * math.log(half / m1) - rel1)\n"
           "            + sigma2 * (_g(rel2) if rel2 > -0.999 else half / m0 * math.log(half / m0) - rel2)\n"
           "            + sigma3 * _g(rel3) + a * _g(gap / a)\n"
           "            + d * (_g(u) if u > -0.999 else lam4 / d * math.log(lam4 / d) - u))\n",
           (MOMENT_PINS, GOLDEN.format("approx_check_workload.json"),
            GOLDEN.format("rate_table_workload.json"))),
    Mutant("covert.py", "1 / 132 - u * (1 / 156 - u * (1 / 182)))))))))))))",
           "1 / 132 - u * (1 / 156))))))))))))", (MOMENT_PINS,)),
    Mutant("covert.py",
           "    if not (v_hi - v <= 1e-14 * v and q4_hi - q4 <= 1e-14 * q4):", "    if False:",
           ("tests/test_accuracy.py::test_closed_forms_at_tiny_noise_are_accurate_or_refused[1e-300]",
            "tests/test_accuracy.py::test_tiny_noise_on_the_cli_is_accurate_or_refused[1e-300]")),
    Mutant("covert.py", '    _require_normal("moment", *moments)\n', "",
           (RATE_ERROR.format("approx-check --q 0.999999999 --alpha-grid 1e-285"),)),
    Mutant("covert.py", "    if u >= 0.0:  # (RS - r.s)", "    if True:  # (RS - r.s)",
           ("tests/test_accuracy.py::test_closed_forms_near_the_edges",
            GOLDEN.format("detect_sim_e1.json"))),
    # covert._logM and rate_reports
    Mutant("covert.py", "math.log2(4.0 * eps * n)", "math.log2(4.0 * eps) + math.log2(n)",
           (GOLDEN.format("rate_table_workload.json"),)),
    Mutant("covert.py",
           "        if n == 1:  # the message size needs n >= 2\n"
           '            raise ValueError(f"blocklength n={n!r} must be an integer >= 2")\n', "",
           (RATE_ERROR.format("rate-table --n-grid 1,0"),
            "tests/test_covert.py::test_finite_blocklength_logM_validation")),
    Mutant("covert.py",
           "    check_nu(nu)\n"
           "    if not (0.0 < eps < 1.0) or math.isnan(eps):\n"
           '        raise ValueError(f"error tolerance eps={eps!r} outside (0, 1)")\n',
           "    if not (0.0 < eps < 1.0) or math.isnan(eps):\n"
           '        raise ValueError(f"error tolerance eps={eps!r} outside (0, 1)")\n'
           "    check_nu(nu)\n",
           (RATE_ERROR.format("rate-table --nu 0.3 --eps 2"),)),
    # covert.moment_curve
    Mutant("covert.py", "coeff * alpha * log_a * log_a", "coeff * log_a * log_a * alpha",
           (GOLDEN.format("approx_check_workload.json"),)),
    Mutant("covert.py", "        if not (0.0 <= alpha < 1.0):", "        if not (0.0 <= alpha <= 1.0):",
           (RATE_ERROR.format("approx-check --alpha-grid 1"),
            "tests/test_covert.py::test_dvq_exact_matches_dense_oracle[0.3-1.0]")),
    Mutant("covert.py", "coeff = 2.0 * (1.0 - q) ** 2 / (2.0 - q)",
           "coeff = 2.0 * (1.0 - q) ** 2 / (2.0 + q)",
           ("tests/test_acceptance.py::test_criterion_04_leading_order_ratios",
            "tests/test_covert.py::test_dvq_asymptotic_leading_forms")),
    # detection: the E1 block route of warden_errors
    Mutant("detection.py", "    pow_0 = (base_0 ** np.arange(ns[0] // 2 + 1)).tolist()",
           "    pow_0 = [base_0 ** s for s in range(ns[0] // 2 + 1)]",
           (GOLDEN.format("detect_sim_e1_large_n.json"),)),
    Mutant("detection.py", "for lo, hi, values in reversed(norms):", "for lo, hi, values in norms:",
           (GOLDEN.format("detect_sim_e1.json"), GOLDEN.format("detect_sim_e1_large_n.json"))),
    Mutant("detection.py",
           "        stack[1:, 1:, :-1] += np.multiply(prev[0], s, out=taps[1:])\n"
           "        stack[1:, :-1, -1] += s[..., 0] * prev[0, :, -1]\n", "",
           (CRITERION_09, E1_MPMATH)),
    Mutant("detection.py", "prev = stack[:live + 1]", "prev = stack[:live]",
           (CRITERION_09, E1_MPMATH)),
    Mutant("detection.py", "            if error < fidelity_floor * (1.0 - 1e-12):",
           "            if False:",
           ("tests/test_cli.py::test_detect_sim_refuses_an_e1_error_below_the_fidelity_floor",)),
    Mutant("detection.py",
           "repeats[n] = [float(math.comb(n + 1, r) * (n - 2 * r + 1) // (n + 1))",
           "repeats[n] = [float(math.comb(n, r))", (CRITERION_09, E1_MPMATH)),
    # channels.scenario_reports
    Mutant("channels.py", "_LABELS = {s: (int(s), s.name) for s in Scenario}",
           "_LABELS = {s: (int(s), s.name.lower()) for s in Scenario}",
           ("tests/test_cli.py::test_scenario_reports_all_three",)),
    Mutant("channels.py", "            number, label = _LABELS[scenario]\n",
           "            number, label = _LABELS[Scenario(scenario)]\n",
           ("tests/test_cli.py::test_scenario_rows_are_the_reports_with_no_enum_call",)),
    Mutant("channels.py", "        if size < _TINY and m:", "        if size < _TINY and m and number != 1:",
           ("tests/test_accuracy.py::test_scenario_fields_match_mpmath[ALL_ENV]",
            "tests/test_cli.py::test_scenario_refuses_below_the_normal_range")),
    Mutant("channels.py", "        if size < _TINY and m:", "        if size < _TINY and m and number == 1:",
           ("tests/test_accuracy.py::test_scenario_fields_match_mpmath[E2_ONLY]",
            "tests/test_accuracy.py::test_scenario_fields_match_mpmath[E1_ONLY]")),
    Mutant("channels.py", "dist = 0.5 * (math.sqrt(q_pos * (4.0 - 3.0 * q_pos)) + q_pos)",
           "dist = 0.5 * (math.sqrt(q * (4.0 - 3.0 * q)) + q)",
           ("tests/test_channels.py::test_support_report_boundaries_are_degenerate",)),
    # the launch: AS241's order of operations, numpy off the closed-form launch, and
    # every layer loaded by `from qcovert import cli` (the benchmark tracer needs them)
    Mutant("covert.py", "        return (_horner(num, r) * q) / _horner(den, r)",
           "        return (_horner(num, r) / _horner(den, r)) * q",
           ("tests/test_covert.py::test_inverse_normal_cdf_is_statistics_bit_for_bit",)),
    Mutant("linalg.py", "import functools\nimport math\n", "import functools\nimport math\n\nimport numpy\n",
           ("tests/test_cli.py::test_only_the_e1_block_route_loads_numpy[rate-table]",
            "tests/test_cli.py::test_only_the_e1_block_route_loads_numpy[scenario]")),
    Mutant("__init__.py", "from .detection import DetectionResult, warden_errors\n",
           "\n\ndef __getattr__(name):  # PEP 562: detection loads on first use\n"
           "    if name in ('DetectionResult', 'warden_errors'):\n"
           "        from . import detection\n"
           "        return getattr(detection, name)\n"
           "    raise AttributeError(name)\n",
           ("tests/test_cli.py::test_importing_cli_loads_every_layer",),
           also=(("cli.py", "from .detection import MAX_USES, MAX_USES_ALLENV, warden_errors\n",
                  "MAX_USES, MAX_USES_ALLENV = 100, 30\n\n\n"
                  "def warden_errors(*args):\n"
                  "    from .detection import warden_errors\n"
                  "    return warden_errors(*args)\n"),)),
    # What the float64 checks deleted from tests/oracles.py guarded, by the tests
    # that still kill it: the Hermitian, density-operator and state validation and
    # the eigenvector convention sat in front of the dense eta, relative entropy,
    # moments and eigensolver, the dimension cap and argument checks in front of the
    # tensor and symmetric powers and the partial trace, and the eigensolver route
    # to the scenario report checked the verdicts and fields
    Mutant("covert.py", "(1.0 + z * z * atanh_s / s_len)", "(1.0 + z * atanh_s / s_len)",
           ("tests/test_covert.py::test_warden_closed_forms_match_dense_oracles",)),
    Mutant("covert.py", "_g(-delta / (1.0 + s_len))", "_g(delta / (1.0 + s_len))",
           ("tests/test_covert.py::test_warden_closed_forms_match_dense_oracles",)),
    Mutant("covert.py", "(1.0 - alpha) * m1, alpha * m0, alpha * m1",
           "(1.0 - alpha) * m1, alpha * m1, alpha * m0",
           ("tests/test_covert.py::test_dvq_exact_matches_dense_oracle[0.3-0.2]",)),
    Mutant("covert.py", "e = eps * math.sqrt(alpha * (1.0 - alpha))", "e = eps * math.sqrt(alpha)",
           ("tests/test_covert.py::test_dvq_exact_matches_dense_oracle[0.3-0.2]",)),
    Mutant("covert.py", "det = alpha * (1.0 - alpha) * q * (1.0 - 0.75 * q)",
           "det = alpha * (1.0 - alpha) * q * (1.0 - 0.5 * q)",
           ("tests/test_covert.py::test_dvq_exact_matches_dense_oracle[0.3-0.2]",)),
    Mutant("covert.py",
           "    alphas = list(alphas)\n"
           "    if not (0.0 < q < 1.0):\n"
           '        raise ValueError(f"q={q:g} outside (0, 1)")\n',
           "    alphas = list(alphas)\n",
           ("tests/test_covert.py::test_dvq_exact_matches_dense_oracle[0.0-0.2]",
            "tests/test_covert.py::test_dvq_exact_matches_dense_oracle[1.0-0.2]")),
    Mutant("detection.py", "blocks = coef_a[lo:hi] * stack[rows[lo:hi]] + coef_d[lo:hi] * stack[0]",
           "blocks = coef_a[lo:hi] * stack[rows[lo:hi]]",
           ("tests/test_detection.py::test_block_route_matches_dense_oracle[E1_ONLY]",)),
    Mutant("detection.py", "stack[:, 1:, -1] += b * prev[:, :, -1]", "stack[:, 1:, -1] += a * prev[:, :, -1]",
           ("tests/test_detection.py::test_fused_step_carries_every_slot_on_its_own_block[0.5]",)),
    Mutant("detection.py", "0.5 * math.sqrt(q) * math.sqrt(1.0 - 0.5 * q)",
           "0.5 * math.sqrt(q) * math.sqrt(1.0 - 0.25 * q)",
           ("tests/test_channels.py::test_closed_form_marginals_match_dilation[0.5-3]",)),
    Mutant("detection.py", "0.5 * math.sqrt(q) * math.sqrt(1.0 - 0.75 * q)",
           "0.5 * math.sqrt(q) * math.sqrt(1.0 - 0.5 * q)",
           ("tests/test_channels.py::test_closed_form_marginals_match_dilation[0.5-1]",)),
    Mutant("channels.py", 'verdict = "trivial" if dist == 0.0 else "nontrivial"',
           'verdict = "nontrivial"',
           ("tests/test_accuracy.py::test_scenario_fields_match_mpmath[E2_ONLY]",
            "tests/test_channels.py::test_support_report_e2_trivial[0.5]")),
    Mutant("channels.py", "dist = math.sqrt(m * (2 * d - m) / (2 * d * d))",
           "dist = math.sqrt(m * (2 * d - m) / (4 * d * d))",
           ("tests/test_accuracy.py::test_scenario_fields_match_mpmath[E1_ONLY]",)),
)


def _copy_src(work: Path) -> Path:
    """A fresh copy of the checkout's ``src/`` under ``work``; returns the copy's src."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutant: Mutant) -> str:
    """Apply every edit of ``mutant`` under ``src``; an error text, or "" when all applied."""
    for name, old, new in mutant.edits():
        path = src / "qcovert" / name
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return f"old text occurs {count} times in src/qcovert/{name}: {old!r}"
        path.write_text(text.replace(old, new), encoding="utf-8")
    return ""


def _pytest(src: Path, ids, cwd: Path) -> int:
    """Exit code of pytest on ``ids``, importing qcovert from ``src``, stopping at the first failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "--no-header", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT), "-o", f"pythonpath={src}", *(str(ROOT / i) for i in ids)]
    return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="qcovert-mutants-") as tmp:
        work = Path(tmp)
        every = list(dict.fromkeys(i for m in MUTANTS for i in m.kills))
        start = time.perf_counter()
        code = _pytest(_copy_src(work), every, work)
        print(f"unchanged src: {len(every)} named tests, pytest exit {code} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if code != 0:
            failures.append("the unchanged src fails a named test")
        for number, mutant in enumerate(MUTANTS, 1):
            start = time.perf_counter()
            src = _copy_src(work)
            error = _apply(src, mutant)
            if not error:
                code = _pytest(src, mutant.kills, work)
                # 1: a test failed; 2: collection failed on the mutated import
                error = "" if code in (1, 2) else f"not killed (pytest exit {code})"
            status = error or "killed"
            print(f"{number:3d} {mutant.file}: {status} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
            if error:
                failures.append(f"mutant {number} ({mutant.file}): {error}")
    for failure in failures:
        print("FAILED:", failure)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed" if not failures
          else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
