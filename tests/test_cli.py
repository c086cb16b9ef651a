import csv
import dataclasses
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from obrechkoff import ObrechkoffError, ProblemDef, cli, get_problem, make_context, stability
from obrechkoff.cli import (
    ExperimentSpec,
    emit,
    main,
    run_experiment,
    sweep_coefficients_csv,
    sweep_stability_csv,
)
from obrechkoff.coefficients import CLASSICAL_FRACTIONS, MethodId


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_run_linear_small(tmp_path):
    spec = ExperimentSpec(problem="linear", methods=["classical", "pldoubleprime"],
                          step_divisors=[10, 20], digits=40,
                          span=0.6283185307179586)   # pi/5 keeps the test fast
    table = run_experiment(spec)
    assert not table.any_failed
    out = emit(table, "csv")
    rows = parse_csv(out)
    assert len(rows) == 4
    errs = {(r["method"], r["h"]): float(r["abs_end_error"]) for r in rows}
    cls = [v for (m, h), v in errs.items() if m == "classical"]
    pl2 = [v for (m, h), v in errs.items() if m == "pldoubleprime"]
    # short-span smoke check; the benchmark-scale margin lives in acceptance
    assert max(pl2) < 1e-3 * min(cls)
    # observed order present on second rows only
    orders = [r["observed_order"] for r in rows]
    assert orders.count("") == 2


def test_emit_empty_and_single_row():
    spec = ExperimentSpec(problem="linear", methods=["classical"], step_divisors=[10])
    table = run_experiment(ExperimentSpec(problem="linear", methods=["classical"],
                                          step_divisors=[10], digits=30,
                                          span=0.6283185307179586))
    text = emit(table, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "h,method,abs_end_error,wall_time_s,observed_order"
    assert len(lines) == 2
    assert lines[1].endswith(",")  # no order on a single row

    empty = emit(type(table)(spec=spec, rows=[]), "csv")
    assert empty.strip() == "h,method,abs_end_error,wall_time_s,observed_order"


def test_emit_markdown():
    table = run_experiment(ExperimentSpec(problem="linear", methods=["classical"],
                                          step_divisors=[10], digits=30,
                                          span=0.6283185307179586))
    md = emit(table, "markdown")
    assert md.startswith("| h | method |")
    assert "classical" in md


def test_determinism_apart_from_wall_time():
    spec = ExperimentSpec(problem="rational", methods=["classical"],
                          step_divisors=[50, 100], digits=30)
    a = parse_csv(emit(run_experiment(spec), "csv"))
    b = parse_csv(emit(run_experiment(spec), "csv"))
    for ra, rb in zip(a, b):
        for key in ("h", "method", "abs_end_error", "observed_order"):
            assert ra[key] == rb[key]


def test_rational_observed_order():
    spec = ExperimentSpec(problem="rational", methods=["classical"],
                          step_divisors=[250, 500], digits=50)
    rows = parse_csv(emit(run_experiment(spec), "csv"))
    order = float(rows[1]["observed_order"])
    assert 11.0 < order < 13.0


def test_missing_omega_fails_in_row():
    spec = ExperimentSpec(problem="rational", methods=["pldoubleprime"],
                          step_divisors=[50], digits=30)
    table = run_experiment(spec)
    assert table.any_failed
    out = emit(table, "csv")
    assert "FAILED" in out


def test_omega_none_fails_fitted_rows_and_runs_classical():
    # omega=None means no fitting frequency: a fitted method cannot run, and
    # must not silently fall back to the classical weights
    spec = ExperimentSpec(problem="linear", methods=["classical", "plprime"],
                          step_divisors=[100], omega=None, digits=30)
    classical, fitted = run_experiment(spec).rows
    assert not classical.failed and float(classical.abs_end_error) < 1
    assert fitted.failed
    assert fitted.message == ("problem 'linear' has no default fitting frequency; "
                              "pass --omega")


def test_stalled_step_fails_in_row():
    spec = ExperimentSpec(problem="rational", methods=["classical"], step_divisors=[3],
                          digits=30)
    table = run_experiment(spec)
    assert table.rows[0].failed
    assert table.rows[0].message.startswith("implicit solve stalled after 60 iterations")
    row = parse_csv(emit(table, "csv"))[0]
    assert row["method"] == "classical"
    assert row["abs_end_error"].startswith("FAILED(implicit solve stalled")


def test_observed_order_is_taken_across_a_failed_cell():
    # divisor 3 stalls; 50 has no earlier successful row, so no order; 100
    # takes its order against 50, the last successful row of its method
    spec = ExperimentSpec(problem="rational", methods=["classical"],
                          step_divisors=[3, 50, 100], digits=30)
    stalled, first, second = run_experiment(spec).rows
    assert stalled.failed and stalled.observed_order is None
    assert not first.failed and first.observed_order is None
    expected = math.log(float(first.abs_end_error) / float(second.abs_end_error)) / math.log(2)
    assert second.observed_order == pytest.approx(expected, abs=1e-4)
    assert round(second.observed_order, 4) == 10.8908


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["run", "--problem", "linear", "--method", "classical",
               "--divisors", "10", "--digits", "30", "--span", "0.6283185307179586",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("h,method,")
    rc = main(["run", "--problem", "rational", "--method", "pl2",
               "--divisors", "10", "--digits", "30", "--out", str(out)])
    assert rc == 1   # no default omega for the rational problem


def test_sweep_coefficients_zero_row_is_classical():
    text = sweep_coefficients_csv(MethodId.PL_PRIME, [0.0, 0.5], digits=40)
    rows = parse_csv(text)
    assert rows[0]["status"] == "ok"
    got = float(rows[0]["beta10"])
    assert math.isclose(got, float(CLASSICAL_FRACTIONS["beta10"]), rel_tol=1e-5)


def test_sweep_coefficients_flags_singular_rows():
    # hit the beta31 pole located inside [3.8, 4.0] by bisection, then sweep
    from obrechkoff import make_context
    from test_coefficient_tables import reference_pl2_numden
    ctx = make_context(16)

    def den(v):
        w = make_context(ctx.digits + 30)
        return reference_pl2_numden(w, w.mpf(v))[1]

    lo, hi = ctx.mpf("3.8"), ctx.mpf("4.0")
    for _ in range(90):
        mid = (lo + hi) / 2
        if den(lo) * den(mid) <= 0:
            hi = mid
        else:
            lo = mid
    text = sweep_coefficients_csv(MethodId.PL_DOUBLE_PRIME,
                                  [0.5, float((lo + hi) / 2)], digits=16)
    rows = parse_csv(text)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "singular"
    assert rows[1]["beta10"] == ""


def test_sweep_grid_from_v_from_v_to_v_step(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-coefficients", "--method", "plprime", "--v-from", "0",
                 "--v-to", "0.3", "--v-step", "0.1", "--digits", "30", "--out", str(out)]) == 0
    grid = [float(r["v"]) for r in parse_csv(out.read_text())]
    assert grid == pytest.approx([0, 0.1, 0.2, 0.3])


@pytest.mark.parametrize("option, value", [("--v-step", "0"), ("--v-step", "-0.1"),
                                           ("--v-to", "inf"), ("--v-from", "nan")])
def test_sweep_rejects_a_bad_grid(option, value, capsys):
    # a step <= 0 or an infinite end would never close the grid; a NaN start
    # would sweep nothing
    args = {"--v-from": "0", "--v-to": "1", "--v-step": "0.5", option: value}
    argv = ["sweep-coefficients", "--method", "plprime"] + [f"{k}={v}" for k, v in args.items()]
    assert main(argv) == 2
    assert "--v-step > 0" in capsys.readouterr().err


def test_sweep_stability_columns():
    text = sweep_stability_csv(MethodId.CLASSICAL, [0.5, 3.141], digits=40)
    rows = parse_csv(text)
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["A"]) > 1
    assert rows[1]["status"] == "outside-periodicity"
    assert rows[1]["phase_lag"] == ""


def test_sweep_single_point():
    text = sweep_stability_csv(MethodId.PL_PRIME, [1.0], digits=40)
    assert len(parse_csv(text)) == 1


def test_csv_round_trip():
    spec = ExperimentSpec(problem="linear", methods=["classical"],
                          step_divisors=[10, 20], digits=30,
                          span=0.6283185307179586)
    text = emit(run_experiment(spec), "csv")
    rows = parse_csv(text)
    for r in rows:
        float(r["h"])
        float(r["abs_end_error"])


def test_importing_the_cli_leaves_the_process_pool_out():
    # the pool is imported where workers > 1 asks for one; the workers=2
    # tests run that path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, obrechkoff, obrechkoff.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_parallel_workers_match_sequential():
    spec = ExperimentSpec(problem="rational", methods=["classical"],
                          step_divisors=[50, 100], digits=30)
    a = parse_csv(emit(run_experiment(spec, workers=2), "csv"))
    b = parse_csv(emit(run_experiment(spec, workers=1), "csv"))
    for ra, rb in zip(a, b):
        for key in ("h", "method", "abs_end_error", "observed_order"):
            assert ra[key] == rb[key]


def test_trajectory_dump(tmp_path):
    out = tmp_path / "table.csv"
    traj = tmp_path / "traj.csv"
    rc = main(["run", "--problem", "rational", "--method", "classical",
               "--divisors", "50", "--digits", "30",
               "--trajectory-every", "10", "--trajectory-out", str(traj),
               "--out", str(out)])
    assert rc == 0
    rows = parse_csv(traj.read_text())
    assert float(rows[0]["x"]) == 0.0
    assert all(float(r["abs_error"]) < 1e-8 for r in rows)
    assert len(rows) >= 6


def test_serial_and_pool_record_the_same_failure():
    # a NaN span gives a NaN step size, a ConfigurationError; both paths keep it in-row
    spec = ExperimentSpec(problem="linear", methods=["classical"], step_divisors=[10],
                          digits=30, span=float("nan"))
    rows = [run_experiment(spec, workers=w).rows for w in (1, 2)]
    assert rows[0] == rows[1]
    assert rows[0][0].failed
    assert rows[0][0].message


@pytest.mark.parametrize("option, value, named", [
    ("omega", math.nan, "fitting frequency omega"),
    ("omega", math.inf, "fitting frequency omega"),
    ("span", math.nan, "step size h"),   # h = span/divisor
    ("span", math.inf, "step size h"),
])
def test_non_finite_input_fails_in_row_by_name(option, value, named):
    spec = ExperimentSpec(problem="linear", methods=["plprime"], step_divisors=[10],
                          digits=30, **{option: value})
    (row,) = run_experiment(spec).rows
    assert row.failed
    assert named in row.message and "finite" in row.message


def test_failure_message_keeps_csv_columns():
    # the unknown-problem message lists the problems with commas
    table = run_experiment(ExperimentSpec(problem="nosuch", methods=["classical"],
                                          step_divisors=[10], digits=30))
    rows = list(csv.reader(io.StringIO(emit(table, "csv"))))
    assert len(rows) == 2
    assert all(len(r) == 5 for r in rows)
    assert rows[1][2].startswith("FAILED(") and "," in rows[1][2]


def test_trajectory_run_integrates_its_cell_once(tmp_path, monkeypatch):
    calls = []
    real = cli.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("trajectory_every"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counted)
    rc = main(["run", "--problem", "rational", "--method", "classical",
               "--divisors", "50", "--digits", "30",
               "--trajectory-every", "10", "--trajectory-out", str(tmp_path / "traj.csv"),
               "--out", str(tmp_path / "table.csv")])
    assert rc == 0
    assert calls == [10]
    assert len(parse_csv((tmp_path / "table.csv").read_text())) == 1


def test_run_experiment_returns_the_trajectory_on_its_row():
    spec = ExperimentSpec(problem="rational", methods=["classical"], step_divisors=[50],
                          digits=30, trajectory_every=10)
    (row,) = run_experiment(spec).rows
    assert not row.failed
    assert [r[0] for r in row.trajectory][:2] == ["0.0", "9.00000e-2"]
    assert len(row.trajectory) >= 6
    (plain,) = run_experiment(dataclasses.replace(spec, trajectory_every=0)).rows
    assert plain.trajectory == []


@pytest.mark.parametrize("change, message", [
    ({"trajectory_every": -1}, "--trajectory-every takes a count >= 0, got -1"),
    ({"step_divisors": [10, 20]}, "--trajectory-every needs a single-cell run"),
    ({"methods": ["classical", "plprime"]}, "--trajectory-every needs a single-cell run"),
])
def test_spec_validation_owns_the_trajectory_checks(change, message):
    spec = ExperimentSpec(problem="linear", methods=["classical"], step_divisors=[10],
                          digits=30, trajectory_every=5)
    with pytest.raises(ObrechkoffError, match=message):
        dataclasses.replace(spec, **change).validate()
    with pytest.raises(ObrechkoffError, match=message):
        run_experiment(dataclasses.replace(spec, **change))


def test_trajectory_dump_honours_workers(tmp_path):
    dumps = []
    for workers in ("1", "2"):
        traj = tmp_path / f"traj{workers}.csv"
        rc = main(["run", "--problem", "rational", "--method", "classical",
                   "--divisors", "50", "--digits", "30", "--workers", workers,
                   "--trajectory-every", "10", "--trajectory-out", str(traj),
                   "--out", str(tmp_path / "table.csv")])
        assert rc == 0
        dumps.append(traj.read_text())
    assert dumps[0] == dumps[1]
    assert len(parse_csv(dumps[0])) >= 6


@pytest.mark.parametrize("options, named", [
    (["--trajectory-every", "25"], "--trajectory-every needs --trajectory-out or --out"),
    (["--trajectory-out", "traj.csv"], "--trajectory-out needs --trajectory-every"),
])
def test_trajectory_flags_that_would_share_or_lose_output_are_usage_errors(
        options, named, tmp_path, monkeypatch, capsys):
    # the trajectory and the table used to go to standard output back to back,
    # and --trajectory-out alone was ignored
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--problem", "rational", "--method", "classical",
               "--divisors", "50", "--digits", "30"] + options)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err
    assert list(tmp_path.iterdir()) == []


def test_emit_renders_each_format_byte_for_byte():
    spec = ExperimentSpec(problem="linear", methods=["classical", "plprime"],
                          step_divisors=[10, 20])
    table = cli.ResultTable(spec=spec, rows=[
        cli.ResultRow(method="plprime", divisor=10, h_text="", abs_end_error=None,
                      wall_time_s=0.0, observed_order=None, failed=True,
                      message="implicit solve stalled, at x = 1"),
        cli.ResultRow(method="classical", divisor=20, h_text="1.57080e-2",
                      abs_end_error="1.90443e-20", wall_time_s=0.0125,
                      observed_order=12.0149),
        cli.ResultRow(method="classical", divisor=10, h_text="3.14159e-2",
                      abs_end_error="7.86770e-17", wall_time_s=0.25,
                      observed_order=None),
    ])
    assert emit(table, "csv") == (
        "h,method,abs_end_error,wall_time_s,observed_order\n"
        "3.14159e-2,classical,7.86770e-17,0.250,\n"
        "1.57080e-2,classical,1.90443e-20,0.013,12.01\n"
        ',plprime,"FAILED(implicit solve stalled, at x = 1)",,\n')
    assert emit(table, "markdown") == (
        "| h | method | abs end error | wall time (s) | observed order |\n"
        "|---|--------|---------------|---------------|----------------|\n"
        "| 3.14159e-2 | classical | 7.86770e-17 | 0.250 |  |\n"
        "| 1.57080e-2 | classical | 1.90443e-20 | 0.013 | 12.01 |\n"
        "|  | plprime | FAILED: implicit solve stalled, at x = 1 |  |  |\n")
    with pytest.raises(ObrechkoffError, match="unknown format 'html'"):
        emit(table, "html")


def load_tracing():
    """The benchmark's tracer module, perfbench/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py swaps package callables and problem closures by
    # name; a name dropped from the package must fail here, not in the benchmark
    tracing = load_tracing()
    get_problem = cli.get_problem
    tracer = tracing.Tracer()
    with tracer.run(0):
        ctx = make_context(30)
        problem = cli.get_problem("duffing", ctx)
        problem.f6(problem.x0, problem.y0, problem.yp0)
        # coefficients.closed_calls counts these spans: coefficients() must
        # reach the closed forms through the module's globals
        for method in (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME):
            stability.coefficients(method, ctx.mpf("0.5"), ctx)
    assert cli.get_problem is get_problem
    names = {span[0] for span in tracer.spans}
    assert {"problems.get_problem", "problems.f6", "context.Context",
            "coefficients.coefficients", "coefficients.plprime_closed",
            "coefficients.pldoubleprime_closed"} <= names


@pytest.mark.parametrize("problem", ["linear", "duffing"])
def test_traced_cells_reconcile_through_the_closure_adapter(problem):
    # the tracer wraps the closures of each problem the CLI builds, which sends
    # the step through the closure adapter: f6 calls = iterations + 2 per cell
    tracing = load_tracing()
    tracer = tracing.Tracer()
    spec = ExperimentSpec(problem=problem, methods=["classical", "pldoubleprime"],
                          step_divisors=[10, 20], digits=30, span=0.6283185307179586)
    with tracer.run(0):
        traced = cli.get_problem(problem, make_context(30))
        table = cli.run_experiment(spec)
    assert traced.evaluate.__func__ is ProblemDef._from_closures
    assert not table.any_failed
    cells = tracer.cells(tracer.run_spans(0))
    assert len(cells) == 4
    for result, calls in cells:
        assert calls["problems.f6"] > 0
        assert tracing.reconciles(result, calls)


def test_problems_read_their_graph_unless_a_closure_is_replaced():
    ctx = make_context(30)
    p = get_problem("linear", ctx)
    assert p.evaluate == p.graph.even
    assert dataclasses.replace(p, reference=None).evaluate == p.graph.even
    wrapped = dataclasses.replace(p, f6=lambda x, y, yp: p.f6(x, y, yp))
    assert wrapped.evaluate.__func__ is ProblemDef._from_closures


@pytest.mark.parametrize("grid, message", [
    (["--v-from=1", "--v-to=0", "--v-step=0.1"], "empty"),
    (["--v-grid=,"], "empty"),
    (["--v-from=0", "--v-to=1", "--v-step=1e-12"], "more than 1000000 points"),
])
def test_sweep_grid_must_hold_between_one_and_a_million_points(grid, message, capsys):
    # the points are counted before the grid is built, so a tiny step fails fast
    assert main(["sweep-stability", "--method", "plprime"] + grid) == 2
    assert message in capsys.readouterr().err
    assert cli.MAX_GRID_POINTS == 10 ** 6


@pytest.mark.parametrize("command, option, value", [
    ("run", "--omega", "abc"), ("run", "--divisors", "10,x"),
    ("sweep-stability", "--v-grid", "0.5,y")])
def test_malformed_number_is_a_usage_error(command, option, value, capsys):
    # exit 2 names the option; exit 1 is kept for a failed cell
    args = {"--problem": "linear", "--method": "classical", "--divisors": "10",
            "--digits": "30"} if command == "run" else {"--method": "plprime"}
    args[option] = value
    assert main([command] + [f"{k}={v}" for k, v in args.items()]) == 2
    err = capsys.readouterr().err
    assert option in err and repr(value.split(",")[-1]) in err


@pytest.mark.parametrize("option, value, message", [
    ("--divisors", "100,100", "strictly increasing"),
    ("--digits", "10", "at least 16 digits"),
    ("--trajectory-every", "-3", "--trajectory-every takes a count >= 0"),
    ("--divisors", ",", "at least one step divisor"),
    ("--workers", "0", "--workers takes a count >= 1"),
    ("--workers", "-4", "--workers takes a count >= 1"),
    ("--span", "0", "--span takes a finite nonzero number"),
    ("--span", "nan", "--span takes a finite nonzero number"),
    ("--span", "inf", "--span takes a finite nonzero number"),
    ("--omega", "-1", "--omega takes a finite number >= 0"),
    ("--omega", "nan", "--omega takes a finite number >= 0"),
    ("--omega", "inf", "--omega takes a finite number >= 0")])
def test_bad_run_settings_exit_2_before_any_cell(option, value, message, tmp_path, capsys):
    # equal or no divisors, too few digits, a negative dump interval, fewer
    # than one worker, a span no cell can step over or an omega no cell can
    # fit are usage errors: no cell runs and no table is written
    out = tmp_path / "t.csv"
    args = {"--problem": "linear", "--method": "classical", "--divisors": "10",
            "--digits": "30", "--span": "0.6283185307179586", "--out": out}
    args[option] = value
    assert main(["run"] + [f"{k}={v}" for k, v in args.items()]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
