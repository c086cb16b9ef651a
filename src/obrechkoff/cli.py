"""Benchmark command-line driver.

Subcommands
-----------
run                  method x step-size experiment matrix on a registered
                     problem; emits (h, method, abs_end_error, wall_time_s,
                     observed_order) as CSV or markdown.
sweep-coefficients   coefficient values over a v grid (CSV).
sweep-stability      characteristic pair, B/A and phase lag over a v grid.

Exit status is nonzero when any experiment cell failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .coefficients import MethodId, coefficient_sweep
from .context import MIN_DIGITS, make_context
from .errors import ObrechkoffError
from .integrator import StepperConfig, integrate
from .problems import PROBLEMS, get_problem
from .stability import stability_sweep

#: most points a --v-from/--v-to/--v-step grid may hold
MAX_GRID_POINTS = 10 ** 6


@dataclass
class ExperimentSpec:
    problem: str
    methods: list
    step_divisors: list
    omega: object = "default"          # "default" | float | None
    digits: int = 50
    startup: str = "exact"
    span: Optional[float] = None       # None: problem's own span

    def validate(self):
        if not self.methods:
            raise ObrechkoffError("at least one method is required")
        if not self.step_divisors:
            raise ObrechkoffError("at least one step divisor is required")
        if any(d <= 0 for d in self.step_divisors):
            raise ObrechkoffError("step divisors must be positive")
        # equal neighbours would give an observed order of log(e/e')/log(1)
        if any(a >= b for a, b in zip(self.step_divisors, self.step_divisors[1:])):
            raise ObrechkoffError("step divisors must be strictly increasing")
        if self.digits < MIN_DIGITS:
            raise ObrechkoffError(
                f"working precision must be at least {MIN_DIGITS} digits, got {self.digits}")


@dataclass
class ResultRow:
    method: str
    divisor: int
    h_text: str
    abs_end_error: Optional[str]   # 6-significant-digit scientific text
    wall_time_s: float
    observed_order: Optional[float]
    failed: bool = False
    message: str = ""


@dataclass
class ResultTable:
    spec: ExperimentSpec
    rows: list = field(default_factory=list)

    @property
    def any_failed(self):
        return any(r.failed for r in self.rows)


def _sci(x, sig=6):
    from mpmath import mpf, nstr
    return nstr(mpf(x) if not hasattr(x, "_mpf_") else x, sig,
                min_fixed=1, max_fixed=0, strip_zeros=False)


def _run_cell(problem_name, method_name, divisor, omega_opt, digits, startup_mode,
              span_opt, trajectory_every=0):
    """One (method, h) cell with a fresh context; picklable for worker pools."""
    ctx = make_context(digits)
    problem = get_problem(problem_name, ctx)
    method = MethodId.parse(method_name)
    x_end = ctx.mpf(str(span_opt)) + problem.x0 if span_opt is not None else problem.x_end
    span = x_end - problem.x0
    h = span / divisor
    if omega_opt == "default":
        omega = problem.default_omega
    elif omega_opt is None:
        omega = None
    else:
        omega = ctx.mpf(str(omega_opt))
    if omega is None:
        if method is not MethodId.CLASSICAL:
            raise ObrechkoffError(
                f"problem {problem_name!r} has no default fitting frequency; pass --omega"
            )
        omega = 0
    config = StepperConfig(method=method, h=h, omega=omega, startup=startup_mode)
    result = integrate(problem, config, ctx, x_end=x_end,
                       trajectory_every=trajectory_every)
    err = result.abs_end_error
    return {
        "h_text": _sci(h),
        "err": None if err is None else _sci(err),
        "err_float": None if err is None else float(err),
        "wall": result.wall_time,
        "trajectory": [tuple("" if x is None else _sci(x) for x in row)
                       for row in result.trajectory],
    }


def _csv(header, rows) -> str:
    """CSV text through the csv module, so no field can break its row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trajectory_csv(rows) -> str:
    return _csv(("x", "y", "y_reference", "abs_error"), rows)


def _cell_args(spec: ExperimentSpec):
    return [(spec.problem, m, d, spec.omega, spec.digits, spec.startup, spec.span)
            for m in spec.methods for d in spec.step_divisors]


def _outcome(call):
    """(cell output, None), or (None, message) when the cell raised."""
    try:
        return call(), None
    except Exception as exc:  # cell failures stay in-row, in serial and pool runs
        return None, str(exc)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """All (method, divisor) cells; failures recorded in-row, run continues."""
    spec.validate()
    args = _cell_args(spec)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        # every pool cell is submitted before the first result is awaited
        calls = ([partial(_run_cell, *a) for a in args] if pool is None
                 else [pool.submit(_run_cell, *a).result for a in args])
        outcomes = [_outcome(call) for call in calls]
    return _tabulate(spec, outcomes)


def _tabulate(spec: ExperimentSpec, outcomes) -> ResultTable:
    """Rows for the cells of `spec`, in order, with observed orders per method."""
    table = ResultTable(spec=spec)
    cells = [(m, d) for m in spec.methods for d in spec.step_divisors]
    by_method = {}
    for (m, d), (out, err_msg) in zip(cells, outcomes):
        if out is None:
            row = ResultRow(method=m, divisor=d, h_text="", abs_end_error=None,
                            wall_time_s=0.0, observed_order=None, failed=True,
                            message=err_msg)
        else:
            order = None
            prev = by_method.get(m)
            if prev is not None and prev[1] is not None and out["err_float"]:
                d_prev, e_prev = prev
                if e_prev > 0 and out["err_float"] > 0:
                    order = (math.log(e_prev / out["err_float"])
                             / math.log(d / d_prev))
            row = ResultRow(method=m, divisor=d, h_text=out["h_text"],
                            abs_end_error=out["err"], wall_time_s=out["wall"],
                            observed_order=order)
            by_method[m] = (d, out["err_float"])
        table.rows.append(row)
    return table


def emit(table: ResultTable, fmt: str = "csv") -> str:
    """Render the table; CSV rows sorted by (method, h descending)."""
    rows = sorted(table.rows, key=lambda r: (r.method, r.divisor))
    if fmt == "csv":
        cells = []
        for r in rows:
            if r.failed:
                cells.append(("", r.method, f"FAILED({r.message})", "", ""))
                continue
            order = "" if r.observed_order is None else f"{r.observed_order:.2f}"
            err = "" if r.abs_end_error is None else r.abs_end_error
            cells.append((r.h_text, r.method, err, f"{r.wall_time_s:.3f}", order))
        return _csv(("h", "method", "abs_end_error", "wall_time_s", "observed_order"), cells)
    if fmt == "markdown":
        lines = ["| h | method | abs end error | wall time (s) | observed order |",
                 "|---|--------|---------------|---------------|----------------|"]
        for r in rows:
            if r.failed:
                lines.append(f"|  | {r.method} | FAILED: {r.message} |  |  |")
                continue
            order = "" if r.observed_order is None else f"{r.observed_order:.2f}"
            err = "" if r.abs_end_error is None else r.abs_end_error
            lines.append(f"| {r.h_text} | {r.method} | {err} | {r.wall_time_s:.3f} | {order} |")
        return "\n".join(lines) + "\n"
    raise ObrechkoffError(f"unknown format {fmt!r}")


def _number(option, text, kind=float):
    """``text`` read as ``kind``; malformed input is a usage error naming the option."""
    try:
        return kind(text)
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ObrechkoffError(f"{option} takes {noun}, got {text!r}") from None


def _grid(args):
    if args.v_grid:
        grid = [_number("--v-grid", t) for t in args.v_grid.split(",") if t.strip()]
    else:
        bounds = (args.v_from, args.v_to, args.v_step)
        if None in bounds:
            raise ObrechkoffError("pass either --v-grid or all of --v-from/--v-to/--v-step")
        if not all(map(math.isfinite, bounds)) or args.v_step <= 0:
            raise ObrechkoffError("--v-from/--v-to/--v-step must be finite, with --v-step > 0")
        v_from, v_step, v_last = args.v_from, args.v_step, args.v_to + 1e-12
        # the grid is every v_from + n v_step <= v_last: count it before building it
        span = (v_last - v_from) / v_step
        if span >= MAX_GRID_POINTS:
            raise ObrechkoffError(f"the v grid would hold more than {MAX_GRID_POINTS} points; "
                                  "raise --v-step or narrow --v-from/--v-to")
        grid = [v for n in range(max(0, int(span) + 2))
                if (v := v_from + n * v_step) <= v_last]
    if not grid:
        raise ObrechkoffError("the v grid is empty")
    return grid


def sweep_coefficients_csv(method: MethodId, v_grid, digits: int) -> str:
    ctx = make_context(digits)
    rows = [[_sci(v)] + ["" if b is None else _sci(b) for b in betas] + [status]
            for v, *betas, status in coefficient_sweep(method, v_grid, ctx)]
    return _csv(("v", "beta10", "beta11", "beta20", "beta21", "beta30", "beta31", "status"),
                rows)


def sweep_stability_csv(method: MethodId, v_grid, digits: int) -> str:
    ctx = make_context(digits)
    rows = [[_sci(v)] + ["" if x is None else _sci(x) for x in (A, B, ratio, pl)] + [status]
            for v, A, B, ratio, pl, status in stability_sweep(method, v_grid, ctx)]
    return _csv(("v", "A", "B", "B_over_A", "phase_lag", "status"), rows)


def _write_out(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="obrechkoff-bench",
        description="Benchmark driver for the two-step Obrechkoff methods.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a method x step-size experiment matrix")
    run_p.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    run_p.add_argument("--method", action="append", required=True,
                       help="classical | plprime | pldoubleprime (repeatable)")
    run_p.add_argument("--divisors", required=True,
                       help="comma list of step divisors, h = span/divisor")
    run_p.add_argument("--span", type=float, default=None,
                       help="integration span (default: the problem's own)")
    run_p.add_argument("--omega", default="default",
                       help='fitting frequency, or "default" for the problem value')
    run_p.add_argument("--digits", type=int, default=50)
    run_p.add_argument("--startup", choices=("exact", "taylor"), default="exact")
    run_p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--trajectory-every", type=int, default=0,
                       help="dump every k-th node to --trajectory-out "
                            "(single-cell runs only)")
    run_p.add_argument("--trajectory-out", default=None)

    for name in ("sweep-coefficients", "sweep-stability"):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} over a v grid")
        sp.add_argument("--method", required=True)
        sp.add_argument("--v-grid", default=None, help="comma list of v values")
        sp.add_argument("--v-from", type=float, default=None)
        sp.add_argument("--v-to", type=float, default=None)
        sp.add_argument("--v-step", type=float, default=None)
        sp.add_argument("--digits", type=int, default=50)
        sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            divisors = [_number("--divisors", t, int) for t in args.divisors.split(",")
                        if t.strip()]
            omega = args.omega if args.omega == "default" else _number("--omega", args.omega)
            spec = ExperimentSpec(
                problem=args.problem,
                methods=[MethodId.parse(m).value for m in args.method],
                step_divisors=divisors,
                omega=omega,
                digits=args.digits,
                startup=args.startup,
                span=args.span,
            )
            if args.trajectory_every < 0:
                raise ObrechkoffError(
                    f"--trajectory-every takes a count >= 0, got {args.trajectory_every}")
            if args.workers < 1:
                raise ObrechkoffError(f"--workers takes a count >= 1, got {args.workers}")
            if args.trajectory_every:
                spec.validate()
                if len(spec.methods) * len(spec.step_divisors) != 1:
                    raise ObrechkoffError("--trajectory-every needs a single-cell run")
                outcome = _outcome(partial(_run_cell, *_cell_args(spec)[0],
                                           trajectory_every=args.trajectory_every))
                if outcome[0] is not None:
                    _write_out(trajectory_csv(outcome[0]["trajectory"]),
                               args.trajectory_out)
                table = _tabulate(spec, [outcome])
            else:
                table = run_experiment(spec, workers=args.workers)
            _write_out(emit(table, args.format), args.out)
            return 1 if table.any_failed else 0
        method = MethodId.parse(args.method)
        grid = _grid(args)
        if args.command == "sweep-coefficients":
            _write_out(sweep_coefficients_csv(method, grid, args.digits), args.out)
        else:
            _write_out(sweep_stability_csv(method, grid, args.digits), args.out)
        return 0
    except ObrechkoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
