import math
import random
from fractions import Fraction as F

import pytest
from mpmath.libmp import to_rational

from obrechkoff import (
    CoefficientSet,
    DomainError,
    FitError,
    MethodId,
    OutsidePeriodicityError,
    classical_coefficients,
    coefficients,
    fit_leading_term,
    lte_brackets,
    make_context,
    periodicity_interval,
    phase_lag,
    stability_pair,
)
from obrechkoff import stability
from obrechkoff.coefficients import COEFF_NAMES, taylor_fallback
from obrechkoff.errors import SingularParameterError
from obrechkoff.jets import GUARD_BITS
from obrechkoff.stability import (
    CLASSICAL_H14_BRACKET,
    CLASSICAL_PHASE_LAG_CONSTANT,
    stability_sweep,
)


def test_pair_is_one_one_at_zero(ctx50):
    for method in MethodId:
        cs = coefficients(method, ctx50.mpf("0.2"), ctx50)
        pair = stability_pair(cs, ctx50.mpf(0))
        assert pair.A == 1 and pair.B == 1


def test_classical_ratio_leading_term(ctx50):
    # B/A = 1 - v^2/2 + O(v^4): beta10 + beta11/2 = 1/2 exactly
    b = classical_coefficients(ctx50)
    assert abs(b.beta10 + b.beta11 / 2 - ctx50.mpf(F(1, 2))) < ctx50.mpf(10) ** -ctx50.digits
    v = ctx50.mpf("1e-5")
    pair = stability_pair(b, v)
    assert abs((pair.B / pair.A - 1 + v * v / 2)) < v ** 4


def test_classical_first_unit_crossing_near_pi(ctx50):
    # |B/A| first reaches 1 just below v = pi (a narrow resonance window)
    b = classical_coefficients(ctx50)

    def ratio(v):
        p = stability_pair(b, ctx50.mpf(v))
        return abs(p.B / p.A)

    assert ratio("3.12") < 1
    assert ratio("3.1305") > 1
    assert ratio("3.2") < 1          # the window closes again
    assert ratio("7.46") > 1         # permanent loss further out


def test_phase_lag_tends_to_zero(ctx50):
    for method in MethodId:
        t = phase_lag(method, ctx50.mpf("1e-4"), ctx50)
        assert abs(t) < ctx50.mpf(10) ** -20


def test_phase_lag_keeps_its_precision_at_small_v():
    ctx, ref = make_context(50), make_context(300)
    off = []
    for method, v in [(MethodId.CLASSICAL, "1e-3"), (MethodId.CLASSICAL, "1e-4"),
                      (MethodId.PL_PRIME, "1e-30"), (MethodId.PL_DOUBLE_PRIME, "1e-30")]:
        t = ref.mpf(phase_lag(method, ctx.mpf(v), ctx))
        t_ref = phase_lag(method, ref.mpf(v), ref)
        if abs(t - t_ref) > ref.mpf(10) ** (2 - ctx.digits) * ref.mpf(v):
            off.append((method.value, v))
    assert off == []


def test_phase_lag_classical_leading_behavior(ctx60):
    # t(v) = C v^13 (1 + O(v^2)) with C the tabulated constant
    C = ctx60.mpf(CLASSICAL_PHASE_LAG_CONSTANT)
    for vv in ("0.01", "0.02"):
        v = ctx60.mpf(vv)
        t = phase_lag(MethodId.CLASSICAL, v, ctx60)
        assert abs(t / (C * v ** 13) - 1) < ctx60.mpf("1e-3")


def test_phase_lag_odd_in_v(ctx50):
    t_plus = phase_lag(MethodId.CLASSICAL, ctx50.mpf("0.3"), ctx50)
    t_minus = phase_lag(MethodId.CLASSICAL, ctx50.mpf("-0.3"), ctx50)
    assert t_plus == -t_minus


@pytest.mark.parametrize("method", [MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME])
@pytest.mark.parametrize("v", ["0.5", "1", "2"])
def test_phase_lag_vanishes_at_fitted_frequency(ctx50, method, v):
    # both fitted methods are characteristic-root exact at their own
    # frequency, so the lag is zero to working precision
    t = phase_lag(method, ctx50.mpf(v), ctx50)
    assert abs(t) < ctx50.mpf(10) ** -38


def test_pl2_lag_far_below_classical(ctx60):
    t_pl2 = phase_lag(MethodId.PL_DOUBLE_PRIME, ctx60.mpf("0.5"), ctx60)
    t_cl = phase_lag(MethodId.CLASSICAL, ctx60.mpf("0.5"), ctx60)
    assert abs(t_pl2) < abs(t_cl) * ctx60.mpf(10) ** -6


def test_phase_lag_outside_periodicity_raises(ctx50):
    with pytest.raises(OutsidePeriodicityError):
        phase_lag(MethodId.CLASSICAL, ctx50.mpf("3.141"), ctx50)


def test_phase_lag_branch_tracking_past_pi(ctx50):
    # theta stays close to v on the second branch as well
    t = phase_lag(MethodId.CLASSICAL, ctx50.mpf("4.0"), ctx50)
    assert abs(t) < ctx50.mpf("0.05")


# ------------------------------------------------------------------- fits

def test_fit_synthetic_quartic(ctx50):
    fit = fit_leading_term(lambda v: 3 * v ** 4, ("1e-3", "1e-2"), ctx50)
    assert fit.exponent == 4
    assert abs(fit.constant - 3) < ctx50.mpf("1e-10")
    assert fit.residual < ctx50.mpf("1e-3")


def test_fit_rejects_sign_changes(ctx50):
    with pytest.raises(FitError):
        fit_leading_term(lambda v: v - ctx50.mpf("5e-3"), ("1e-3", "1e-2"), ctx50)


def test_fit_classical_phase_lag_constant(ctx60):
    fit = fit_leading_term(lambda v: phase_lag(MethodId.CLASSICAL, v, ctx60),
                           ("1e-3", "1e-2"), ctx60)
    C = ctx60.mpf(CLASSICAL_PHASE_LAG_CONSTANT)
    assert fit.exponent == 13
    assert abs(fit.constant / C - 1) < ctx60.mpf("0.01")


# --------------------------------------------------------------- brackets

def test_classical_brackets(ctx50):
    br = lte_brackets(classical_coefficients(ctx50), ctx50)
    for x in br[:6]:
        assert abs(x) < ctx50.mpf(10) ** -40
    assert abs(br[6] / ctx50.mpf(CLASSICAL_H14_BRACKET) - 1) < ctx50.mpf("1e-12")


def test_bracket_vs_phase_lag_constant_link():
    assert CLASSICAL_H14_BRACKET / CLASSICAL_PHASE_LAG_CONSTANT == 2
    assert F(-45469, 3394722659328000) * 2 == F(-45469, 1697361329664000)


def test_plprime_bracket_structure(ctx60):
    # h^2..h^10 brackets vanish identically; the h^12 bracket carries the
    # omega^2 y^(12) part of the truncation error: bracket12 ~ C v^2,
    # bracket14 -> C, matching -C (y^(14) + omega^2 y^(12)) h^14
    C = ctx60.mpf(CLASSICAL_H14_BRACKET)
    v = ctx60.mpf("0.01")
    br = lte_brackets(coefficients(MethodId.PL_PRIME, v, ctx60), ctx60)
    for x in br[:5]:
        assert abs(x) < ctx60.mpf(10) ** -48
    assert abs(br[5] / (C * v * v) - 1) < ctx60.mpf("1e-3")
    assert abs(br[6] / C - 1) < ctx60.mpf("1e-3")


def test_pl2_bracket_structure(ctx60):
    # weights fitted on three harmonics push the residual into
    # -C (36 w^6 y^8 + 49 w^4 y^10 + 14 w^2 y^12 + y^14) h^14:
    # bracket8 ~ 36 C v^6, bracket10 ~ 49 C v^4, bracket12 ~ 14 C v^2
    C = ctx60.mpf(CLASSICAL_H14_BRACKET)
    v = ctx60.mpf("0.01")
    br = lte_brackets(coefficients(MethodId.PL_DOUBLE_PRIME, v, ctx60), ctx60)
    for x in br[:3]:
        assert abs(x) < ctx60.mpf(10) ** -48
    assert abs(br[3] / (36 * C * v ** 6) - 1) < ctx60.mpf("1e-3")
    assert abs(br[4] / (49 * C * v ** 4) - 1) < ctx60.mpf("1e-3")
    assert abs(br[5] / (14 * C * v ** 2) - 1) < ctx60.mpf("1e-3")
    assert abs(br[6] / C - 1) < ctx60.mpf("1e-3")


# ----------------------------------------------------------- periodicity

def test_classical_periodicity_endpoint(ctx50):
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    assert not res.hit_v_max
    assert abs(res.v0_squared - ctx50.mpf("9.7954")) < ctx50.mpf("0.001")


@pytest.mark.parametrize("method", [MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME])
def test_fitted_methods_scan_clean_to_vmax(ctx50, method):
    # |B/A| = |cos v| for the fitted methods: no strict violation off-grid
    res = periodicity_interval(method, ctx50, v_max=5)
    assert res.hit_v_max
    assert res.v0_squared == ctx50.mpf(5) ** 2


def test_periodicity_scan_counts(ctx50):
    # samples feeds the benchmark's points_per_s: 313 grid points up to the
    # first violation at 3.13, and 399 below v_max = 4 (400 x 0.01 > 4 in
    # binary) plus v_max itself
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    assert res.samples == 313 and res.singular_points == []
    assert ctx50.mp.nstr(res.v0_squared, 12) == "9.79540421359"
    assert ctx50.mp.nstr(res.first_violation, 12) == "3.12976135254"
    for method in (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME):
        res = periodicity_interval(method, ctx50, v_max=4)
        assert res.samples == 400 and res.hit_v_max


def _pole_at(monkeypatch, *at):
    """Make stability.coefficients singular at the scanned v nearest each of `at`."""
    real = stability.coefficients

    def patched(method, v, ctx):
        if any(abs(v - x) < 1e-9 for x in at):
            raise SingularParameterError(f"pole at v = {v}")
        return real(method, v, ctx)

    monkeypatch.setattr(stability, "coefficients", patched)


def test_periodicity_scan_skips_a_pole_on_the_grid(ctx50, monkeypatch):
    clean = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    _pole_at(monkeypatch, 1.0)
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    assert len(res.singular_points) == 1
    assert abs(res.singular_points[0] - 1) < 1e-15
    assert res.samples == 313
    assert res.v0_squared == clean.v0_squared
    assert res.first_violation == clean.first_violation


def test_periodicity_bisection_steps_off_a_pole(ctx50, monkeypatch):
    # the first midpoint of the failing cell (3.12, 3.13] is 3.125: the
    # bisection probes next to it and keeps going
    clean = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    _pole_at(monkeypatch, 3.125)
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    assert len(res.singular_points) == 1
    assert abs(res.singular_points[0] - ctx50.mpf("3.125")) < 1e-15
    assert res.samples == 313 and not res.hit_v_max
    assert ctx50.mp.nstr(res.v0_squared, 6) == ctx50.mp.nstr(clean.v0_squared, 6) == "9.7954"
    assert ctx50.mp.nstr(res.first_violation, 6) == ctx50.mp.nstr(clean.first_violation, 6)


def test_periodicity_bisection_stops_at_a_second_pole_in_its_cell(ctx50, monkeypatch):
    # poles at the first midpoint 3.125 and at the probe next to it
    _pole_at(monkeypatch, 3.125, 3.125 + 0.01 / 64)
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    assert len(res.singular_points) == 2
    assert ctx50.mp.nstr(res.v0_squared, 12) == "9.7344"
    assert ctx50.mp.nstr(res.first_violation, 12) == "3.13"


def test_unit_modulus_roots_inside_interval(ctx50):
    rng = random.Random(20260811)
    cases = [(MethodId.CLASSICAL, 3.1), (MethodId.PL_PRIME, 12.0),
             (MethodId.PL_DOUBLE_PRIME, 12.0)]
    for method, v_hi in cases:
        for _ in range(20):
            v = ctx50.mpf(str(rng.uniform(0.05, v_hi)))
            try:
                cs = coefficients(method, v, ctx50)
            except Exception:
                continue
            pair = stability_pair(cs, v)
            ratio = pair.B / pair.A
            if abs(ratio) >= 1:
                continue
            disc = ctx50.mp.sqrt(1 - ratio * ratio)
            root = ctx50.mp.mpc(ratio, disc)
            assert abs(abs(root) - 1) < ctx50.mpf(10) ** -40


def test_theta_derivative_near_zero(ctx50):
    # d theta / d v -> 1: theta(v) = v - t(v) with t = O(v^13)
    v = ctx50.mpf("1e-4")
    t1 = phase_lag(MethodId.CLASSICAL, v, ctx50)
    t2 = phase_lag(MethodId.CLASSICAL, 2 * v, ctx50)
    dtheta = ((2 * v - t2) - (v - t1)) / v
    assert abs(dtheta - 1) < ctx50.mpf(10) ** -30


def test_stability_sweep_rows(ctx50):
    rows = stability_sweep(MethodId.CLASSICAL, ["0.5", "3.141", "1.0"], ctx50)
    assert len(rows) == 3
    ok = [r for r in rows if r[5] == "ok"]
    outside = [r for r in rows if r[5] == "outside-periodicity"]
    assert len(ok) == 2 and len(outside) == 1
    assert outside[0][4] is None


def benchmark_grid(seed):
    """Every fourth v of the stability-scan benchmark's two grids for one seed."""
    u = random.Random(seed).random()
    return ([(k + 1 - u) * 0.005 for k in range(0, 1000, 4)]
            + [10 ** (-4 + (k + u) * 3 / 200) for k in range(0, 200, 4)])


@pytest.mark.parametrize("method", [MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME])
def test_sweep_rounds_each_output_once(method):
    # A, B and B/A rounded once from integers at 2^-P, and the phase lag from
    # a root angle at a few guard bits, against a 300-digit sweep; a unit is
    # 2^-166 |x|, 4 to 8 units in the last place at 50 digits (169 bits)
    ctx, ref = make_context(50), make_context(300)
    unit = ref.mpf(2) ** (3 - ctx.mp.prec)
    grid = [ctx.mpf(x) for x in benchmark_grid(1)]
    worst = dict.fromkeys(("A", "B", "B/A", "phase lag"), 0)
    for row, want in zip(stability_sweep(method, grid, ctx),
                         stability_sweep(method, [ref.mpf(v) for v in grid], ref)):
        v, *got, status = row
        assert status == want[5] == "ok", (float(v), status)
        for name, x, y in zip(("A", "B", "B/A"), got, want[1:4]):
            worst[name] = max(worst[name], abs(ref.mpf(x) - y) / (unit * abs(y)))
        bound = ref.mpf(10) ** (2 - ctx.digits) * abs(ref.mpf(v))
        worst["phase lag"] = max(worst["phase lag"], abs(ref.mpf(got[3]) - want[4]) / bound)
    assert worst["B/A"] <= 0.5 and worst["A"] <= 1 and worst["B"] <= 1, worst
    assert worst["phase lag"] <= 0.05, worst


def acos_lag(method, v, ref):
    """v - theta with theta = acos(B/A) of the pair at ``ref``'s precision,
    tracked past pi as 2 pi n +- acos(B/A), n the nearest integer to |v| / 2 pi."""
    pair = stability_pair(coefficients(method, v, ref), v)
    theta, a = ref.mp.acos(pair.B / pair.A), abs(v)
    turns = 2 * ref.pi * ref.mp.nint(a / (2 * ref.pi))
    theta = turns + theta if turns <= a else turns - theta
    return ref.mp.sign(v) * (a - theta)


@pytest.mark.parametrize("method", list(MethodId))
def test_phase_lag_keeps_its_bound_past_and_next_to_pi(method):
    # theta = 2 atan(tan(theta/2)) on [0, pi], tracked past it, against acos
    # at 300 digits in units of the bound 10^(2 - digits) |v|: the grid, v up
    # to 20.1, and v within 1e-6 of pi and of 2pi, where acos at 50 digits
    # lost half of them; only the classical method leaves periodicity there
    ctx, ref = make_context(50), make_context(300)
    grid = [ctx.mpf(x) for x in benchmark_grid(1) + [7, 9.5, 12.9, 20.1]]
    grid += [ctx.mpf(c + side * ref.mpf(d)) for c in (ref.pi, 2 * ref.pi)
             for d in ("1e-7", "1e-10") for side in (1, -1)]
    worst, outside = 0, 0
    for v in grid:
        try:
            t = phase_lag(method, v, ctx)
        except OutsidePeriodicityError:
            outside += 1
            continue
        bound = ref.mpf(10) ** (2 - ctx.digits) * abs(ref.mpf(v))
        worst = max(worst, abs(ref.mpf(t) - acos_lag(method, ref.mpf(v), ref)) / bound)
    assert worst <= 1e-3, float(worst)
    assert outside < (len(grid) // 3 if method is MethodId.CLASSICAL else 1)


def test_the_root_angle_is_pi_where_a_plus_b_vanishes(ctx50):
    # B = -A at v = 2 when A - B = v^2 H / 720, i.e. H = 360 A
    P = ctx50.mp.prec + 40
    t = stability._lag(P, 1 << P, -(1 << P), 360 << P, ctx50.mpf(2), ctx50)
    assert t == ctx50.mpf(2) - ctx50.pi


@pytest.mark.parametrize("method", [MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME])
def test_a_sweep_and_a_scan_round_no_weight(method, monkeypatch):
    # both read only CoefficientSet.fixed, so no closed-form set they ask
    # for rounds its six mpf weights
    ctx = make_context(50)
    sets, real = [], stability.coefficients

    def captured(method, v, ctx):
        sets.append(real(method, v, ctx))
        return sets[-1]

    monkeypatch.setattr(stability, "coefficients", captured)
    rows = stability_sweep(method, benchmark_grid(1), ctx)
    assert periodicity_interval(method, ctx, v_max=1).hit_v_max
    assert len(sets) == len(rows) + 100
    assert all(not set(COEFF_NAMES) & vars(cs).keys() for cs in sets)
    assert rows[0][3] == ctx.mp.cos(rows[0][0])


@pytest.mark.parametrize("method", list(MethodId))
def test_stability_sweep_and_phase_lag_reject_a_non_finite_v(ctx50, method):
    # a sweep used to die in the phase lag with an untyped ValueError
    for v in (ctx50.mp.inf, -ctx50.mp.inf, ctx50.mp.nan):
        with pytest.raises(DomainError, match="not finite"):
            stability_sweep(method, ["0.5", v], ctx50)
        with pytest.raises(DomainError, match="not finite"):
            phase_lag(method, v, ctx50)


@pytest.mark.parametrize("method", list(MethodId))
def test_stability_rejects_a_v_beyond_the_fixed_point_range(ctx50, method):
    # A and B are formed on integers at a binary point, so the classical
    # method takes the fitted methods' range too
    v = ctx50.mpf("1e20000")
    with pytest.raises(DomainError, match=r"is 2\^65536 or more"):
        phase_lag(method, v, ctx50)
    with pytest.raises(DomainError, match=r"is 2\^65536 or more"):
        stability_sweep(method, [v], ctx50)


def test_sets_without_integers_are_converted_in_exactly(ctx50):
    # a set built by hand from the classical weights holds them exactly as
    # integers and gives the pair of the classical set, and a Taylor-series
    # set, converted in the same way, gives A rounded once from its own
    # weights and B by the order conditions, which its rounded weights keep
    # to a unit
    ref = make_context(300)
    ulp = ref.mpf(2) ** (1 - ctx50.mp.prec)
    classical = classical_coefficients(ctx50)
    by_hand = CoefficientSet(*classical.as_tuple(), v=classical.v)
    P, ints = by_hand.fixed
    exact = [F(*to_rational(w._mpf_)) for w in classical.as_tuple()]
    assert P >= ctx50.mp.prec + GUARD_BITS and [F(n, 1 << P) for n in ints] == exact
    assert by_hand == classical
    for v in map(ctx50.mpf, ("0.01", "0.7", "2.5")):
        got, want = stability_pair(by_hand, v), stability_pair(classical, v)
        assert abs(got.A - want.A) <= ulp * abs(want.A)
        assert abs(got.B - want.B) <= ulp * abs(want.B)
    for method in (MethodId.PL_PRIME, MethodId.PL_DOUBLE_PRIME):
        series = taylor_fallback(method, ctx50.mpf("0.3"), ctx50)
        b10, b11, b20, b21, b30, b31 = map(ref.mpf, series.as_tuple())
        for v in map(ctx50.mpf, ("0.01", "0.3", "0.7", "2.5")):
            v2 = ref.mpf(v) ** 2
            A = 1 + b10 * v2 - b20 * v2 ** 2 + b30 * v2 ** 3
            B = 1 - b11 / 2 * v2 + b21 / 2 * v2 ** 2 - b31 / 2 * v2 ** 3
            pair = stability_pair(series, v)
            assert abs(pair.A - A) <= ulp * abs(A) / 2, (method, v)
            assert abs(pair.B - B) <= 2 * ulp * abs(B), (method, v)


def test_periodicity_scan_probes_v_max_between_grid_points(ctx50):
    # the last grid point 3.12 is inside and the first violation, 3.12976,
    # lies below v_max: the scan finds it at v_max itself and bisects to it
    clean = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max=4)
    res = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max="3.1299")
    assert res.samples == 313 and not res.hit_v_max
    assert ctx50.mp.nstr(res.v0_squared, 6) == ctx50.mp.nstr(clean.v0_squared, 6)
    inside = periodicity_interval(MethodId.CLASSICAL, ctx50, v_max="3.1295")
    assert inside.samples == 313 and inside.hit_v_max


@pytest.mark.parametrize("kwargs", [{"v_max": math.nan}, {"v_max": math.inf}])
def test_periodicity_scan_rejects_a_bad_v_max(ctx50, kwargs):
    # a nan or infinite v_max never ended for PL'
    args = {"v_max": 4, **kwargs}
    for method in MethodId:
        with pytest.raises(DomainError):
            periodicity_interval(method, ctx50, **args)
