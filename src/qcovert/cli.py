"""qcovert: deterministic CSV/JSON sweep tables for the analysis library.

Commands
--------
bound-curve   capacity lower bound versus noise q
approx-check  exact vs leading-order divergence moments over an alpha grid
rate-table    finite-blocklength covert rates under the schedule
scenario      feasibility report per warden scenario (JSON only)
detect-sim    exact warden detection simulation, n <= 100 (5 for scenario 1)

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .channels import ChannelSpec, Scenario, scenario_support_report
from .covert import (
    ScheduleParams,
    capacity_lower_bound,
    dvq_asymptotic,
    dvq_exact,
    rate_limit,
    rate_report,
    willie_eta,
)
from .detection import warden_error


MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> list[float]:
    """Parse a grid spec: either 'a:b:step' or a comma-separated list.

    A range has at most MAX_GRID_POINTS entries; its length is checked
    before any list is built.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not of the form a:b:step")
        a, b, step = (float(p) for p in parts)
        if not (step > 0.0) or not all(map(math.isfinite, (a, b, step))):
            raise ValueError(f"grid {text!r} needs a finite positive step and finite ends")
        # The upper end is inclusive up to a slack of 1e-9 steps.
        span = (b - a) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} entries")
        if span < 0.0:
            raise ValueError(f"grid {text!r} is empty")
        return [a + k * step for k in range(math.floor(span) + 1)]
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    return values


def parse_int_grid(text: str) -> list[int]:
    """Integer grid: accepts scientific notation entries like 1e4."""
    values = []
    for v in parse_grid(text):
        n = int(round(v))
        if abs(v - n) > 1e-6 * max(1.0, abs(v)):
            raise ValueError(f"grid entry {v!r} is not an integer")
        values.append(n)
    return values


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_output(config: dict, columns: list[str], rows: list[list], args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {"config": config, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_bound_curve(args):
    q_grid = parse_grid(args.q_grid)
    for q in q_grid:
        if not (0.0 < q < 1.0):
            raise ValueError(f"q={q:g} outside (0, 1)")
    config = {"command": "bound-curve", "q_grid": q_grid}
    columns = ["q", "eta", "capacity_lb"]
    rows = [[q, willie_eta(q), capacity_lower_bound(q)] for q in q_grid]
    return config, columns, rows


def cmd_approx_check(args):
    q = args.q
    if not (0.0 < q < 1.0):
        raise ValueError(f"q={q:g} outside (0, 1)")
    alpha_grid = parse_grid(args.alpha_grid)
    for a in alpha_grid:
        if not (0.0 <= a < 1.0):
            raise ValueError(f"alpha={a:g} outside [0, 1)")
    config = {"command": "approx-check", "q": q, "alpha_grid": alpha_grid}
    columns = [
        "alpha", "q", "D_exact", "D_lead", "V_exact", "V_lead",
        "Q_exact", "ratio_D", "ratio_V",
    ]
    rows = []
    for a in alpha_grid:
        if a == 0.0:
            rows.append([a, q] + [0.0] * 7)
            continue
        exact = dvq_exact(a, q)
        lead = dvq_asymptotic(a, q)
        rows.append(
            [a, q, exact.d, lead.d, exact.v, lead.v, exact.q4,
             exact.d / lead.d, exact.v / lead.v]
        )
    return config, columns, rows


def cmd_rate_table(args):
    if not (0.0 < args.q < 1.0):
        raise ValueError(f"q={args.q:g} outside (0, 1)")
    n_grid = parse_int_grid(args.n_grid)
    config = {
        "command": "rate-table",
        "n_grid": n_grid,
        "nu": args.nu,
        "eps": args.eps,
        "q": args.q,
    }
    columns = [
        "n", "nu", "q", "alpha_n", "logM_lemma1", "logM_lemma2",
        "div_total", "L_n", "L_limit",
    ]
    limit = rate_limit(args.nu, args.q)
    rows = []
    for n in n_grid:
        rep = rate_report(ScheduleParams(n, args.nu), args.q, args.eps)
        rows.append(
            [n, rep.nu, rep.q, rep.alpha_n, rep.logM_finite, rep.logM_asymptotic,
             rep.willie_div_total, rep.covert_rate_L, limit]
        )
    return config, columns, rows


def cmd_scenario(args):
    if args.format == "csv":
        raise ValueError("scenario reports are JSON only; drop --format csv")
    scenarios = [Scenario(args.scenario)] if args.scenario else list(Scenario)
    config = {
        "command": "scenario",
        "q": args.q,
        "scenarios": [int(s) for s in scenarios],
    }
    columns = [
        "scenario", "label", "q", "support_contained", "kernel_overlap",
        "trace_distance", "det_omega0", "det_omega1", "verdict", "note",
    ]
    rows = []
    for s in scenarios:
        rep = scenario_support_report(ChannelSpec(args.q, s))
        rows.append(
            [int(rep.scenario), rep.scenario.name, rep.q, rep.support_contained,
             rep.kernel_overlap, rep.trace_dist, rep.det_omega0, rep.det_omega1,
             rep.verdict, rep.note]
        )
    return config, columns, rows


def cmd_detect_sim(args):
    n_grid = parse_int_grid(args.n_grid)
    spec = ChannelSpec(args.q, Scenario(args.scenario))
    alpha_grid = parse_grid(args.alpha_grid) if args.alpha_grid else None
    config = {
        "command": "detect-sim",
        "n_grid": n_grid,
        "q": args.q,
        "scenario": int(spec.scenario),
        "nu": args.nu,
        "alpha_grid": alpha_grid,
    }
    columns = ["n", "alpha", "trace_dist", "E_n", "pinsker_floor", "div_total"]
    rows = []
    for n in n_grid:
        alphas = alpha_grid if alpha_grid is not None else [ScheduleParams(n, args.nu).alpha_n]
        for alpha in alphas:
            r = warden_error(n, alpha, spec)
            rows.append(
                [r.n, r.alpha, r.trace_dist, r.error_prob, r.pinsker_floor, r.div_total]
            )
    return config, columns, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcovert",
        description="Covert-communication analysis tables for the qubit depolarizing channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, **help_kw):
        p = sub.add_parser(name, aliases=[name.replace("-", "_")], **help_kw)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       default="json" if name == "scenario" else "csv")
        return p

    p = add("bound-curve", cmd_bound_curve,
            help="capacity lower bound and eta versus q")
    p.add_argument("--q-grid", default="0.05:0.95:0.05",
                   help="q values: a:b:step or comma list")

    p = add("approx-check", cmd_approx_check,
            help="exact vs leading-order D, V, Q over an alpha grid")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha-grid", default="1e-3,1e-4,1e-5,1e-6")

    p = add("rate-table", cmd_rate_table,
            help="finite-blocklength covert rates under the schedule")
    p.add_argument("--n-grid", default="1e4,1e5,1e6")
    p.add_argument("--nu", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--q", type=float, default=0.5)

    p = add("scenario", cmd_scenario,
            help="feasibility report per warden scenario (JSON only)")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3),
                   help="restrict to one scenario (default: all three)")

    p = add("detect-sim", cmd_detect_sim,
            help="exact warden detection simulation, n <= 100 (5 for scenario 1)")
    p.add_argument("--n-grid", default="1,2,3,4,5,6,7,8")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--nu", type=float, default=0.05,
                   help="schedule exponent setting alpha_n = n**(nu - 2/3)")
    p.add_argument("--alpha-grid",
                   help="fixed alpha values instead of the schedule")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, columns, rows = args.handler(args)
        write_output(config, columns, rows, args)
    except (ValueError, OSError) as exc:
        print(f"qcovert: error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"qcovert: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
