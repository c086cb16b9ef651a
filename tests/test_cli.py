import csv
import io
import math

import pytest

from obrechkoff import cli
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


def test_stalled_step_fails_in_row():
    spec = ExperimentSpec(problem="duffing", methods=["classical"], step_divisors=[5],
                          digits=30)
    with pytest.warns(UserWarning, match="periodicity interval"):   # v = omega h is about 25
        table = run_experiment(spec)
    assert table.rows[0].failed
    assert table.rows[0].message.startswith("implicit solve stalled after 60 iterations")
    row = parse_csv(emit(table, "csv"))[0]
    assert row["method"] == "classical"
    assert row["abs_end_error"].startswith("FAILED(implicit solve stalled")


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
    from obrechkoff.coefficients import _pl2_numden
    ctx = make_context(16)

    def den(v):
        w = make_context(ctx.digits + 30)
        return _pl2_numden(w, w.mpf(v))[1]

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
    # a NaN span raises ValueError deep in integrate; both paths keep it in-row
    spec = ExperimentSpec(problem="linear", methods=["classical"], step_divisors=[10],
                          digits=30, span=float("nan"))
    rows = [run_experiment(spec, workers=w).rows for w in (1, 2)]
    assert rows[0] == rows[1]
    assert rows[0][0].failed
    assert rows[0][0].message


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
