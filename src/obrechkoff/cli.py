"""Benchmark command-line driver.

Subcommands
-----------
run                  method x step-size experiment matrix on a registered
                     problem; emits (h, method, abs_end_error, wall_time_s,
                     observed_order) as CSV or markdown.  Every run, with or
                     without a trajectory dump, goes through run_experiment.
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
    """Every method at every step divisor.  A nonzero ``trajectory_every``
    records every k-th node on the row of the run's one cell."""
    problem: str
    methods: list
    step_divisors: list
    omega: object = "default"          # "default" | float | None
    digits: int = 50
    startup: str = "exact"
    span: Optional[float] = None       # None: problem's own span
    trajectory_every: int = 0

    def cells(self):
        return [(m, d) for m in self.methods for d in self.step_divisors]

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
        if self.trajectory_every < 0:
            raise ObrechkoffError(
                f"--trajectory-every takes a count >= 0, got {self.trajectory_every}")
        if self.trajectory_every and len(self.cells()) != 1:
            raise ObrechkoffError("--trajectory-every needs a single-cell run")


@dataclass
class ResultRow:
    """One cell's outcome; ``trajectory`` holds its (x, y, y_reference,
    abs_error) text rows when the spec asks for them."""
    method: str
    divisor: int
    h_text: str
    abs_end_error: Optional[str]   # 6-significant-digit scientific text
    wall_time_s: float
    observed_order: Optional[float] = None
    failed: bool = False
    message: str = ""
    trajectory: list = field(default_factory=list)
    end_error: Optional[float] = None   # the end error the observed order is taken from


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


def _run_cell(spec: ExperimentSpec, method_name, divisor) -> ResultRow:
    """One (method, h) cell of `spec` with a fresh context; picklable for worker pools."""
    ctx = make_context(spec.digits)
    problem = get_problem(spec.problem, ctx)
    method = MethodId.parse(method_name)
    x_end = ctx.mpf(str(spec.span)) + problem.x0 if spec.span is not None else problem.x_end
    span = x_end - problem.x0
    h = span / divisor
    if spec.omega == "default":
        omega = problem.default_omega
    elif spec.omega is None:
        omega = None
    else:
        omega = ctx.mpf(str(spec.omega))
    if omega is None:
        if method is not MethodId.CLASSICAL:
            raise ObrechkoffError(
                f"problem {spec.problem!r} has no default fitting frequency; pass --omega"
            )
        omega = 0
    config = StepperConfig(method=method, h=h, omega=omega, startup=spec.startup)
    result = integrate(problem, config, ctx, x_end=x_end,
                       trajectory_every=spec.trajectory_every)
    err = result.abs_end_error
    return ResultRow(method=method_name, divisor=divisor, h_text=_sci(h),
                     abs_end_error=None if err is None else _sci(err),
                     wall_time_s=result.wall_time,
                     end_error=None if err is None else float(err),
                     trajectory=[tuple("" if x is None else _sci(x) for x in row)
                                 for row in result.trajectory])


def _csv(header, rows) -> str:
    """CSV text through the csv module, so no field can break its row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trajectory_csv(rows) -> str:
    return _csv(("x", "y", "y_reference", "abs_error"), rows)


def _outcome(call, method, divisor) -> ResultRow:
    """The cell's row, or a failed row with the message when the cell raised."""
    try:
        return call()
    except Exception as exc:  # cell failures stay in-row, in serial and pool runs
        return ResultRow(method=method, divisor=divisor, h_text="", abs_end_error=None,
                         wall_time_s=0.0, failed=True, message=str(exc))


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """All (method, divisor) cells, in order; failures recorded in-row, run
    continues.  A row's observed order is taken against the last earlier
    successful row of its method."""
    spec.validate()
    cells = spec.cells()
    if workers > 1:     # imported only here: importing it costs 13-19 ms
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        # every pool cell is submitted before the first result is awaited
        calls = ([partial(_run_cell, spec, m, d) for m, d in cells] if pool is None
                 else [pool.submit(_run_cell, spec, m, d).result for m, d in cells])
        rows = [_outcome(call, m, d) for call, (m, d) in zip(calls, cells)]
    last = {}
    for row in rows:
        if row.failed:
            continue
        prev = last.get(row.method)
        last[row.method] = row
        if prev is not None and all(e is not None and e > 0
                                    for e in (prev.end_error, row.end_error)):
            row.observed_order = (math.log(prev.end_error / row.end_error)
                                  / math.log(row.divisor / prev.divisor))
    return ResultTable(spec=spec, rows=rows)


def emit(table: ResultTable, fmt: str = "csv") -> str:
    """Render the table; rows sorted by (method, h descending)."""
    failed = {"csv": "FAILED({})", "markdown": "FAILED: {}"}.get(fmt)
    if failed is None:
        raise ObrechkoffError(f"unknown format {fmt!r}")
    cells = []
    for r in sorted(table.rows, key=lambda r: (r.method, r.divisor)):
        if r.failed:
            cells.append(("", r.method, failed.format(r.message), "", ""))
            continue
        order = "" if r.observed_order is None else f"{r.observed_order:.2f}"
        err = "" if r.abs_end_error is None else r.abs_end_error
        cells.append((r.h_text, r.method, err, f"{r.wall_time_s:.3f}", order))
    if fmt == "csv":
        return _csv(("h", "method", "abs_end_error", "wall_time_s", "observed_order"), cells)
    lines = ["| h | method | abs end error | wall time (s) | observed order |",
             "|---|--------|---------------|---------------|----------------|"]
    lines += ["| " + " | ".join(c) + " |" for c in cells]
    return "\n".join(lines) + "\n"


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
                       help="dump every k-th node to --trajectory-out, or to "
                            "stdout when the table goes to --out (single-cell runs only)")
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
                trajectory_every=args.trajectory_every,
            )
            # library callers get these as failed rows, from StepperConfig.validate
            if args.span is not None and not (math.isfinite(args.span) and args.span):
                raise ObrechkoffError(f"--span takes a finite nonzero number, got {args.span}")
            if omega != "default" and not 0 <= omega < math.inf:
                raise ObrechkoffError(f"--omega takes a finite number >= 0, got {omega}")
            if args.workers < 1:
                raise ObrechkoffError(f"--workers takes a count >= 1, got {args.workers}")
            if args.trajectory_out and not args.trajectory_every:
                raise ObrechkoffError("--trajectory-out needs --trajectory-every")
            if args.trajectory_every > 0 and not (args.trajectory_out or args.out):
                # the trajectory and the table would share standard output
                raise ObrechkoffError("--trajectory-every needs --trajectory-out or --out")
            table = run_experiment(spec, workers=args.workers)
            if spec.trajectory_every and not table.any_failed:
                _write_out(trajectory_csv(table.rows[0].trajectory), args.trajectory_out)
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
