import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpkit
from ldpkit import verifier
from ldpkit.conjugate import stable_abstract_lf
from ldpkit.convex import GridFunction, lf_transform
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import L_from_table, lambda_family_table
from ldpkit.measures import (
    FiniteSupportMeasure,
    Interval,
    RegionSet,
    ScaledMeasureNet,
)
from ldpkit.pipeline import PipelineState
from ldpkit.scenario import Tolerances, load_scenario
from ldpkit.tilts import (
    TiltFunction,
    explicit_family,
    linear_family,
    q_bump_tilt,
    two_slope_family,
)
from ldpkit.verifier import (
    RangeTargets,
    _local_rates,
    derivative_bound_scan,
    equality_on_mask,
    exponential_tightness_check,
    ldp_bounds_check,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
    varadhan_identity_check,
)

import oracles
from oracles import (
    derivative_bound_check,
    log_mass_in,
    region_power_mass,
    scalar_ext_abs_diff,
    window_samples,
)

TOL = 2e-2
FILTER_TOL = Tolerances.filter


def radius_schedule(count):
    """The radii ``2^-1 .. 2^-count``; the rate grid measures the last."""
    return tuple(2.0 ** -k for k in range(1, count + 1))


DELTAS = radius_schedule(10)
RADIUS = DELTAS[-1]


def escaping_net(max_index=100_000):
    """Unit mass walking to +infinity: exponential tightness must fail."""
    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k,
        measure_of=lambda k: FiniteSupportMeasure.dirac(float(k)),
        max_index=max_index,
        label="escaping",
    )


def dirac_net(max_index=1_000_000):
    d = FiniteSupportMeasure.dirac(0.0)
    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k,
        measure_of=lambda k: d,
        max_index=max_index,
        label="dirac",
    )


@pytest.fixture(scope="module")
def coin_state(coin_net, main_window, rate_window):
    xs = np.linspace(-2, 2, 81)
    lin = linear_family(-3, 3, 61)
    L = L_from_table(lin, lambda_family_table(coin_net, lin, main_window, TOL))
    L_star = lf_transform(L, xs)
    fam = two_slope_family((-4, 4), (-4, 4), 41)
    table = lambda_family_table(coin_net, fam, main_window, TOL)
    sc = stable_abstract_lf(coin_net, fam, table, xs, main_window, TOL)
    rfe = rate_grid(coin_net, xs, RADIUS, rate_window)
    assert vague_ldp_check(rfe, 1e-3)["holds"]
    J = rfe.l0.with_label("J")
    return dict(net=coin_net, xs=xs, L=L, L_star=L_star, sc=sc, rfe=rfe, J=J)


class TestLocalRate:
    def test_coin_upper_rate_at_atom(self, coin_net, rate_window):
        rfe = rate_grid(coin_net, [0.5, 1.0], RADIUS, rate_window)
        assert rfe.l1.values[1] == pytest.approx(0.0, abs=1e-3)

    def test_coin_off_support_infinite(self, coin_net, rate_window):
        rfe = rate_grid(coin_net, [0.5, 1.0], RADIUS, rate_window)
        assert rfe.l1.values[0] == INF

    def test_dirac_net_zero(self, rate_window):
        rfe = rate_grid(dirac_net(), [0.0, 1.0], RADIUS, rate_window)
        assert rfe.l1.values.tolist() == [0.0, INF]

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), INF, NEG_INF])
    def test_rate_grid_rejects_bad_radii(self, coin_net, rate_window, radius):
        # a radius of 0 empties every ball; an empty schedule once gave
        # l0 = l1 = -inf, a negative rate function
        with pytest.raises(ValueError, match="ball radius must be finite and > 0"):
            rate_grid(coin_net, [0.0, 1.0], radius, rate_window)

    def test_ball_masses_monotone_in_delta(self, iid_small_net):
        # smaller neighborhoods cannot carry more mass, per window index
        w = ldpkit.WindowSpec(100, 500, 8)
        x = 0.5
        for k in w.indices(iid_small_net):
            m, t = iid_small_net.measure(int(k)), iid_small_net.t(int(k))
            d = np.array(DELTAS)
            masses = np.exp(t * m.log_masses_in(x - d, x + d))
            assert np.all(masses[:-1] >= masses[1:] - 1e-15)

    @pytest.mark.parametrize(
        "net_name, xs",
        [("coin_net", np.linspace(-2, 2, 41)), ("demzei_net", np.linspace(-3, 3, 61))],
        ids=["coin", "dem-zei"],
    )
    def test_equals_rate_grid_at_every_point(self, request, rate_window, net_name, xs):
        # each point's rates depend on that point alone
        net = request.getfixturevalue(net_name)
        rfe = rate_grid(net, xs, RADIUS, rate_window)
        for x, l0, l1 in zip(xs, rfe.l0.values, rfe.l1.values):
            got = _local_rates(net, [x], RADIUS, rate_window)
            assert (got[0].item(), got[1].item()) == (l0, l1)


class TestRateGrid:
    def test_coin_pattern(self, coin_state):
        rfe = coin_state["rfe"]
        xs = coin_state["xs"]
        at_atoms = np.isclose(np.abs(xs), 1.0)
        assert np.max(rfe.l1.values[at_atoms]) <= 1e-3
        assert np.all(np.isposinf(rfe.l1.values[~at_atoms]))
        assert np.all(np.isposinf(rfe.l0.values[~at_atoms]))

    def test_demzei_pattern(self, demzei_net, rate_window):
        xs = np.linspace(-3, 3, 121)
        rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
        origin = xs == 0.0
        assert rfe.l1.values[origin][0] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isposinf(rfe.l1.values[~origin]))

    def test_iid_mean_concentrates_at_half(self, iid_small_net):
        w = ldpkit.WindowSpec(128, 512, 3)
        rfe = rate_grid(iid_small_net, np.array([0.25, 0.5, 0.75]), RADIUS, w)
        assert rfe.l1.values[1] <= 0.05
        assert rfe.l1.values[0] > 0.05

    def test_lower_below_upper(self, coin_state):
        rfe = coin_state["rfe"]
        finite = np.isfinite(rfe.l1.values)
        assert np.all(rfe.l0.values[finite] <= rfe.l1.values[finite] + 1e-12)

    def test_rates_nonnegative_for_probability_net(self, coin_state):
        rfe = coin_state["rfe"]
        finite = np.isfinite(rfe.l0.values)
        assert np.all(rfe.l0.values[finite] >= 0.0)


class TestVagueLdp:
    def test_coin_holds_with_indicator_rate(self, coin_state):
        assert vague_ldp_check(coin_state["rfe"], 1e-3)["holds"]
        J = coin_state["rfe"].l0  # the rate function once the check holds
        at_atoms = np.isclose(np.abs(J.xs), 1.0)
        assert np.max(J.values[at_atoms]) <= 1e-3
        assert np.all(np.isposinf(J.values[~at_atoms]))

    def test_perturbed_estimate_fails(self, coin_state):
        rfe = coin_state["rfe"]
        bumped = rfe.l1.values.copy()
        i = int(np.argmin(np.abs(rfe.grid - 1.0)))
        bumped[i] += 0.5
        from ldpkit.verifier import RateFunctionEstimate

        fake = RateFunctionEstimate(
            grid=rfe.grid,
            l0=rfe.l0,
            l1=GridFunction(rfe.grid, bumped, label="l1"),
            radius=rfe.radius,
        )
        assert not vague_ldp_check(fake, 1e-3)["holds"]

    def test_max_gap_is_the_largest_finite_gap(self):
        from ldpkit.verifier import RateFunctionEstimate

        grid = np.arange(6.0)
        l0 = np.array([0.0, 1.0, INF, 2.0, INF, 3.0])
        l1 = np.array([0.0, 1.25, INF, INF, INF, 3.5])
        rfe = RateFunctionEstimate(
            grid, GridFunction(grid, l0), GridFunction(grid, l1), RADIUS
        )
        # equal infinities are no gap; the finite-vs-infinite one fails the check
        assert vague_ldp_check(rfe, 1.0) == {"holds": False, "max_gap": 0.5, "tol": 1.0}
        rfe.l1.values[3] = 2.0
        assert vague_ldp_check(rfe, 1.0) == {"holds": True, "max_gap": 0.5, "tol": 1.0}
        assert vague_ldp_check(rfe, 0.25) == {"holds": False, "max_gap": 0.5, "tol": 0.25}
        all_inf = RateFunctionEstimate(
            grid, GridFunction(grid, np.full(6, INF)), GridFunction(grid, np.full(6, INF)),
            RADIUS,
        )
        assert vague_ldp_check(all_inf, 0.0) == {"holds": True, "max_gap": 0.0, "tol": 0.0}


class TestExponentialTightness:
    def test_coin_smallest_radius(self, coin_net, rate_window):
        out = exponential_tightness_check(coin_net, [0.1, 0.01], [1.0, 2.0, 4.0], rate_window)
        assert out["holds"] and all(row["R"] == 1.0 for row in out["table"])

    def test_demzei_holds(self, demzei_net, rate_window):
        out = exponential_tightness_check(demzei_net, [0.1], [1.0, 2.0], rate_window)
        assert out["holds"] and out["table"][0]["estimate"] < 1e-12

    def test_escaping_net_fails(self):
        net = escaping_net()
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        out = exponential_tightness_check(net, [0.5], [1.0, 4.0, 16.0], w)
        assert not out["holds"] and out["table"][0]["R"] is None

    def test_each_radius_is_measured_once(self, kernel_calls, coin_net):
        # one kernel call per atom-count stack, with each distinct measure a
        # row once and every R in it once
        schedule = [1.0, 4.0, 16.0]
        net = escaping_net()  # a new Dirac at every index
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        assert not exponential_tightness_check(net, [0.5, 0.1, 0.01], schedule, w)["holds"]
        [call] = kernel_calls  # every Dirac has one atom
        assert call.locations.ravel().tolist() == [float(k) for k in w.indices(net)]
        # (-inf, -R) and (R, inf) per R, in schedule order
        assert call.lo[1::2].tolist() == schedule and call.lo.size == 2 * len(schedule)
        kernel_calls.clear()
        w = ldpkit.window_for_t_range(coin_net, 1e-2, 1e-4, 16)
        exponential_tightness_check(coin_net, [0.5], schedule, w)
        [call] = kernel_calls
        assert call.locations.shape == (1, 2)  # every sample holds the same coin

    def test_table_matches_per_eps_scan(self):
        # escaping masses exp(-k) at 3 and exp(-3k) at 10: each eps stops at its own R
        net = ScaledMeasureNet(
            t_of=lambda k: 1.0 / k,
            measure_of=lambda k: FiniteSupportMeasure.from_log_atoms(
                [(0.0, math.log1p(-math.exp(-k) - math.exp(-3 * k))), (3.0, -k), (10.0, -3 * k)]
            ),
            max_index=10_000,
        )
        w = ldpkit.window_for_t_range(net, 1e-1, 1e-3, 12)
        eps_list, schedule = [0.5, 0.01, 0.1, 1e-6], [1.0, 4.0, 16.0]
        out = exponential_tightness_check(net, eps_list, schedule, w)
        samples = window_samples(net, w)
        want = []
        for eps in eps_list:
            row = {"eps": eps, "R": None, "estimate": None}
            for R in schedule:
                region = RegionSet.complement_of_closed(-R, R)
                est = max(region_power_mass(m, region, t) for m, t in samples)
                if est < eps:
                    row = {"eps": eps, "R": R, "estimate": est}
                    break
            want.append(row)
        assert out == {"holds": True, "table": want}
        assert [row["R"] for row in out["table"]] == [1.0, 16.0, 4.0, 16.0]


class TestLdpBounds:
    def test_coin_regions(self, coin_state, rate_window):
        report = ldp_bounds_check(
            coin_state["net"],
            coin_state["J"],
            [
                (RegionSet.closed(0.5, 2.0), "closed"),
                (RegionSet.open(-0.5, 0.5), "open"),
                (RegionSet.closed(-2.0, 2.0), "closed"),
            ],
            rate_window,
            tol=1e-6,
        )
        assert report["holds"]
        closed_entry = report["regions"][0]
        assert closed_entry["estimate"] == pytest.approx(1.0, abs=1e-3)
        assert closed_entry["capacity"] == pytest.approx(1.0, abs=1e-3)
        open_entry = report["regions"][1]
        assert open_entry["capacity"] == 0.0 and open_entry["estimate"] == 0.0

    def test_empty_region(self, coin_state, rate_window):
        report = ldp_bounds_check(
            coin_state["net"], coin_state["J"], [(RegionSet.empty(), "closed")],
            rate_window, 1e-9,
        )
        assert report["holds"] and report["regions"][0]["capacity"] == 0.0


def single_tilt_check(net, tilt, window, rfe, tol, convergence=TOL):
    """:func:`varadhan_identity_check` of one tilt: its entry and its tilt row."""
    table = lambda_family_table(net, explicit_family([tilt]), window, convergence)
    out = varadhan_identity_check([tilt], table, rfe, tol)
    (row,) = out["tilts"]
    return out, row


class TestVaradhan:
    def test_coin_slope_one(self, coin_state, main_window):
        tilt = TiltFunction.linear(1.0)
        out, row = single_tilt_check(coin_state["net"], tilt, main_window, coin_state["rfe"], 1e-3)
        assert out["holds"] and row["holds"] and row["tilt"] == "linear:1.0"
        assert row["free_energy"] == pytest.approx(1.0, abs=1e-3)
        assert row["sup_form"] == pytest.approx(1.0, abs=1e-3)

    def test_coin_zero_tilt(self, coin_state, main_window):
        tilt = TiltFunction.linear(0.0)
        out, row = single_tilt_check(coin_state["net"], tilt, main_window, coin_state["rfe"], 1e-3)
        assert out["holds"] and row["free_energy"] == 0.0

    def test_demzei_q1(self, demzei_net, main_window, rate_window):
        xs = np.linspace(-3, 3, 121)
        rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
        out, row = single_tilt_check(demzei_net, q_bump_tilt(1), main_window, rfe, 1e-3)
        assert out["holds"]
        assert row["free_energy"] == pytest.approx(0.0, abs=1e-3)

    def test_reads_the_table_by_tilt_index(self, coin_state, main_window):
        # a table may hold members after the tilts; each tilt reads its own
        # row, bit for bit the value lambda_of gives it
        tilts = [TiltFunction.linear(v) for v in (1.0, -0.5, 2.5)]
        table = lambda_family_table(
            coin_state["net"], explicit_family([*tilts, TiltFunction.linear(0.0)]),
            main_window, TOL,
        )
        out = varadhan_identity_check(tilts, table, coin_state["rfe"], 1e-3)
        assert out["holds"] and out["tol"] == 1e-3
        assert [row["tilt"] for row in out["tilts"]] == [t.label for t in tilts]
        for tilt, row in zip(tilts, out["tilts"]):
            want = ldpkit.lambda_of(coin_state["net"], tilt, main_window, TOL).value
            assert row["free_energy"] == want

    def test_non_converged_tilt_rejected(self):
        # alternating Dirac at 0 / Dirac at 1: no free-energy limit for h_1
        d0 = FiniteSupportMeasure.dirac(0.0)
        d1 = FiniteSupportMeasure.dirac(1.0)
        net = ScaledMeasureNet(
            t_of=lambda k: 1.0 / k,
            measure_of=lambda k: d0 if k % 2 == 0 else d1,
            max_index=10_000,
        )
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        rfe = rate_grid(net, np.linspace(-1, 2, 13), RADIUS, w)
        with pytest.raises(ValueError, match="converge"):
            single_tilt_check(net, TiltFunction.linear(1.0), w, rfe, 1e-3, convergence=1e-3)


class TestDerivativeBound:
    def test_coin_at_positive_slope_point(self, coin_state):
        L = coin_state["L"]
        i = int(np.argmin(np.abs(L.xs - 1.0)))
        ok, details = derivative_bound_check(L, coin_state["rfe"], i, 1e-3)
        assert ok
        sides = {d["side"]: d for d in details["slopes"]}
        assert sides["left"]["slope"] == pytest.approx(1.0, abs=1e-4)
        assert sides["left"]["snapped_x"] == pytest.approx(1.0)

    def test_coin_at_kink(self, coin_state):
        L = coin_state["L"]
        i = int(np.argmin(np.abs(L.xs)))
        ok, details = derivative_bound_check(L, coin_state["rfe"], i, 1e-3)
        assert ok
        slopes = sorted(d["slope"] for d in details["slopes"])
        assert slopes[0] == pytest.approx(-1.0, abs=1e-4)
        assert slopes[1] == pytest.approx(1.0, abs=1e-4)

    def test_scan_all_points(self, coin_state):
        out = derivative_bound_scan(coin_state["L"], coin_state["rfe"], 1e-3)
        assert out == {"holds": True, "failures": [], "tol": 1e-3}

    def test_slope_outside_rate_grid_is_error(self, coin_state):
        # slopes -5 and 5 both leave the rate grid [-2, 2]; the error names
        # the first in grid order, the right slope of lambda0 = -1
        L = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([5.0, 0.0, 5.0]))
        message = "slope -5.0 at lambda0=-1.0 lies outside the rate grid span"
        with pytest.raises(ValueError) as want:
            oracles.derivative_bound_scan(L, coin_state["rfe"], 1e-3)
        with pytest.raises(ValueError) as got:
            derivative_bound_scan(L, coin_state["rfe"], 1e-3)
        assert str(got.value) == str(want.value) == message


class TestRangeConditions:
    def test_coin_ellis_and_d_hold(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"],
            linear_star=coin_state["L_star"],
            lambda_bar_zero=0.0,
        )
        for cid in ("ellis-two-slope", "range-dom-abstract", "range-dom-l0-filtered"):
            rep = range_condition_check(coin_state["L"], (-3, 3), targets, cid, FILTER_TOL)
            assert list(rep) == ["holds", "witnesses", "witness_count", "conclusions", "notes"]
            assert rep["holds"], cid

    def test_coin_ge_conditions_fail_densely(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"],
            linear_star=coin_state["L_star"],
            lambda_bar_zero=0.0,
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, "gartner-ellis-b", FILTER_TOL
        )
        assert not rep["holds"]
        inside = [w for w in rep["witnesses"] if -1 < w < 1]
        assert len(inside) >= 20
        assert rep["witness_count"] == len(rep["witnesses"]) > 16  # the report keeps 16

    def test_vacuous_inclusion(self, coin_state):
        # empty target: force the filter to exclude everything
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"],
            linear_star=coin_state["L_star"],
            lambda_bar_zero=-INF,  # filter threshold +inf: nothing passes
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, "range-dom-abstract-filtered", FILTER_TOL
        )
        assert rep["holds"] and rep["notes"]["target_size"] == 0

    def test_interior_variant_premise(self, coin_state):
        # coin l0 = {0 at -1 and 1, +inf between}: not a convex table, so the
        # interior variants report a failed properness/convexity premise
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"],
            linear_star=coin_state["L_star"],
            lambda_bar_zero=0.0,
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, "range-int-dom-l0", FILTER_TOL
        )
        assert not rep["holds"]
        assert rep["notes"]["proper_convex_premise"] is False

    def test_interior_variant_holds_for_smooth_case(self, iid_small_net):
        # smooth convex l0: interior variant passes premise and coverage
        w = ldpkit.WindowSpec(128, 512, 3)
        fam = linear_family(-2, 2, 41)
        L = L_from_table(fam, lambda_family_table(iid_small_net, fam, w, 1e-6))
        xs = np.arange(16, 113) / 128.0  # atoms of every window index
        rfe = rate_grid(iid_small_net, xs, 2.0 ** -8, w)
        star = lf_transform(L, xs)
        targets = RangeTargets(rfe=rfe, abstract_star=star, linear_star=star, lambda_bar_zero=0.0)
        rep = range_condition_check(L, (-2, 2), targets, "range-int-dom-abstract", FILTER_TOL)
        assert rep["notes"]["proper_convex_premise"] is True
        assert rep["holds"], rep["witnesses"]

    def test_unknown_condition_rejected(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"], abstract_star=coin_state["sc"],
            linear_star=coin_state["L_star"],
        )
        with pytest.raises(ValueError, match="unknown condition"):
            range_condition_check(coin_state["L"], (-3, 3), targets, "nope", FILTER_TOL)

    def test_grid_mismatch_rejected(self, coin_state):
        other = GridFunction(np.linspace(-1, 1, 11), np.zeros(11))
        with pytest.raises(ValueError, match="share the rate grid"):
            RangeTargets(rfe=coin_state["rfe"], abstract_star=other)


class TestRateComparison:
    def test_coin_equalities_on_domain(self, coin_state):
        J, L_star, A = coin_state["J"], coin_state["L_star"], coin_state["sc"]
        dom = np.isfinite(J.values)
        out = rate_comparison(J, L_star, A, {"dom_J": dom}, 1e-3)
        assert out["holds"]
        # off the domain J=+inf while the linear conjugate stays 0 on [-1,1]
        lin = [e for e in out["allowed_differences"] if e["comparison"] == "J_vs_linear"]
        assert lin[0]["count"] > 0

    def test_demzei_j_differs_from_linear_conjugate_off_domain(
        self, demzei_net, main_window, rate_window
    ):
        xs = np.linspace(-3, 3, 121)
        lin = linear_family(-1, 1, 21)
        table = lambda_family_table(demzei_net, lin, main_window, TOL, divergence_threshold=1e3)
        L_star = lf_transform(L_from_table(lin, table), xs)
        from ldpkit.tilts import family_union, qn_family

        fam = family_union(qn_family(10), lin)
        table = lambda_family_table(demzei_net, fam, main_window, TOL, divergence_threshold=1e3)
        sc = stable_abstract_lf(
            demzei_net, fam, table, xs, main_window, TOL, divergence_threshold=1e3
        )
        rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
        J = rfe.l0.with_label("J")
        dom = np.isfinite(J.values)
        out = rate_comparison(J, L_star, sc, {"dom_J": dom}, 1e-3)
        assert out["holds"]  # J == L* == abstract on dom(J) = {0}
        lin = [e for e in out["allowed_differences"] if e["comparison"] == "J_vs_linear"]
        assert lin[0]["count"] >= 100  # J=+inf vs |x| away from 0: allowed

    def test_equality_on_mask_inf_aware(self):
        xs = np.array([0.0, 1.0, 2.0])
        A = GridFunction(xs, np.array([0.0, INF, 1.0]))
        B = GridFunction(xs, np.array([0.0, INF, 1.5]))
        holds, worst, witnesses = equality_on_mask(A, B, np.array([True] * 3), 0.1)
        assert not holds and worst == 0.5 and witnesses == [2.0]


def loop_equality_on_mask(A, B, mask, tol):
    """Oracle: :func:`equality_on_mask` point by point."""
    worst = 0.0
    witnesses = []
    for x, a, b, m in zip(A.xs, A.values, B.values, mask):
        if not m:
            continue
        d = scalar_ext_abs_diff(float(a), float(b))
        if d > worst:
            worst = d
        if d > tol:
            witnesses.append(float(x))
    return worst <= tol, worst, witnesses


def loop_rate_comparison(J, Lstar, abstract_star, masks, tol):
    """Oracle: :func:`rate_comparison` point by point."""
    out = {"holds": True, "checks": [], "allowed_differences": []}
    pairs = [("J_vs_abstract", J, abstract_star), ("J_vs_linear", J, Lstar)]
    for mask_name, mask in masks.items():
        for pair_name, A, B in pairs:
            holds, worst, witnesses = loop_equality_on_mask(A, B, mask, tol)
            out["checks"].append({
                "comparison": pair_name,
                "mask": mask_name,
                "holds": holds,
                "max_violation": None if worst == INF else worst,
                "witnesses": witnesses[:8],
            })
    union = np.zeros(J.xs.shape, dtype=bool)
    for mask in masks.values():
        union |= mask
    for pair_name, A, B in pairs:
        diffs = [
            float(x)
            for x, a, b, m in zip(A.xs, A.values, B.values, ~union)
            if m and scalar_ext_abs_diff(float(a), float(b)) > tol
        ]
        out["allowed_differences"].append(
            {"comparison": pair_name, "outside_masks": diffs[:8], "count": len(diffs)}
        )
    out["holds"] = all(c["holds"] for c in out["checks"])
    return out


def loop_sandwich_check(linear_star, abstract_star, rfe, slack):
    """Oracle: :func:`sandwich_check` point by point."""
    chain = [
        ("linear_star<=abstract_star", linear_star.values, abstract_star.values),
        ("abstract_star<=l0", abstract_star.values, rfe.l0.values),
        ("l0<=l1", rfe.l0.values, rfe.l1.values),
    ]
    worst = {"violation": 0.0, "link": None, "x": None}
    for name, lo_vals, hi_vals in chain:
        for x, a, b in zip(rfe.grid, lo_vals, hi_vals):
            if np.isposinf(b) or np.isneginf(a):
                continue
            if np.isposinf(a) and np.isposinf(b):
                continue
            if np.isposinf(a):  # finite b but infinite a: hard violation
                viol = INF
            else:
                viol = float(a) - float(b)
            if viol > worst["violation"]:
                worst = {"violation": viol, "link": name, "x": float(x)}
    return {"holds": worst["violation"] <= slack, "worst": worst, "slack": slack}


def full_schedule_local_rates(net, xs, deltas, window):
    """Oracle: :func:`_local_rates` over a samples x points x radii table,
    reduced over the samples and then over every radius."""
    xs = np.asarray(xs, dtype=float)[:, None]
    d = np.asarray(deltas, dtype=float)
    powered = []
    for k in window.indices(net):
        m, t = net.measure(int(k)), net.t(int(k))
        powered.append(t * m.log_masses_in(xs - d, xs + d))
    powered = np.array(powered)
    rate = lambda est: np.max(-est + 0.0, axis=-1, initial=NEG_INF)
    return rate(powered.max(axis=0)), rate(powered.min(axis=0))


def loop_exponential_tightness_check(net, eps_list, R_schedule, window):
    """Oracle: :func:`exponential_tightness_check` with one query per sample
    and radius, each radius measured on its first use."""
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps_list entries must be positive")
    samples = window_samples(net, window)
    limsups = []

    def limsup(i):
        if i == len(limsups):
            region = RegionSet.complement_of_closed(-R_schedule[i], R_schedule[i])
            worst = max((t * log_mass_in(m, region) for m, t in samples), default=NEG_INF)
            limsups.append(math.exp(worst))
        return limsups[i]

    table = []
    for eps in eps_list:
        i = next((i for i in range(len(R_schedule)) if limsup(i) < eps), None)
        if i is None:
            table.append({"eps": eps, "R": None, "estimate": None})
        else:
            table.append({"eps": eps, "R": R_schedule[i], "estimate": limsups[i]})
    return {"holds": all(row["R"] is not None for row in table), "table": table}


def loop_ldp_bounds_check(net, J, regions, window, tol):
    """Oracle: :func:`ldp_bounds_check` with one query per region and sample."""
    samples = window_samples(net, window)
    entries = []
    holds = True
    for region, kind in regions:
        if kind not in ("open", "closed"):
            raise ValueError("region tag must be 'open' or 'closed'")
        powered = []
        for m, t in samples:
            logm = log_mass_in(m, region)
            powered.append(math.exp(t * logm) if logm != NEG_INF else 0.0)
        mask = region.mask(J.xs)
        cap = float(np.exp(-J.values[mask]).max()) if mask.any() else 0.0
        if kind == "closed":
            estimate = max(powered)
            violation = estimate - cap
        else:
            estimate = min(powered)
            violation = cap - estimate
        entry_holds = violation <= tol
        holds = holds and entry_holds
        entries.append({
            "kind": kind,
            "estimate": estimate,
            "capacity": cap,
            "violation": max(violation, 0.0),
            "holds": entry_holds,
        })
    return {"holds": holds, "regions": entries}


def outcome(fn, *args):
    """``fn(*args)``'s result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.fixture(scope="module", params=["ge-ex", "dem-zei", "cramer"])
def packaged_state(request):
    path = resources.files("ldpkit").joinpath(f"data/scenarios/{request.param}.cfg")
    with resources.as_file(path) as cfg:
        return PipelineState(load_scenario(cfg))


# few distinct values, so ties, equal infinities and overflowing gaps are common
GRID_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, INF, NEG_INF, 1e308, -1e308]),
    st.floats(-2.0, 2.0),
)


@st.composite
def grid_functions(draw, count):
    n = draw(st.integers(2, 30))
    xs = np.arange(n, dtype=float) / 4.0 - 1.0
    tables = [
        np.array(draw(st.lists(GRID_VALUES, min_size=n, max_size=n)))
        for _ in range(count)
    ]
    masks = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in range(2)]
    return xs, tables, masks


class TestVectorisedOracles:
    @given(data=grid_functions(2), tol=st.sampled_from([0.0, 1e-3, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_equality_on_mask(self, data, tol):
        xs, (a, b), (mask, _) = data
        A, B = GridFunction(xs, a), GridFunction(xs, b)
        assert repr(equality_on_mask(A, B, mask, tol)) == repr(
            loop_equality_on_mask(A, B, mask, tol)
        )

    @given(data=grid_functions(3), tol=st.sampled_from([0.0, 1e-3, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_rate_comparison(self, data, tol):
        xs, tables, (m1, m2) = data
        J, Lstar, A = (GridFunction(xs, v) for v in tables)
        masks = {"one": m1, "both": m1 & m2}
        assert repr(rate_comparison(J, Lstar, A, masks, tol)) == repr(
            loop_rate_comparison(J, Lstar, A, masks, tol)
        )

    @given(data=grid_functions(4), slack=st.sampled_from([0.0, 1e-6, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_sandwich_check(self, data, slack):
        xs, (lin, ab, l0, l1), _ = data
        # duck-typed: a RateFunctionEstimate would reject l0 > l1
        rfe = SimpleNamespace(grid=xs, l0=GridFunction(xs, l0), l1=GridFunction(xs, l1))
        args = (GridFunction(xs, lin), GridFunction(xs, ab), rfe, slack)
        assert repr(sandwich_check(*args)) == repr(loop_sandwich_check(*args))

    def test_sandwich_keeps_first_strict_maximum(self):
        xs = np.array([0.0, 1.0, 2.0])
        lin = GridFunction(xs, np.array([0.0, 2.0, 2.0]))
        ab = GridFunction(xs, np.array([0.0, 1.0, 1.0]))  # violation 1 at x = 1 and 2
        l0 = GridFunction(xs, np.array([-1.0, 1.0, 1.0]))  # ties 1 at x = 0 in a later link
        rfe = SimpleNamespace(grid=xs, l0=l0, l1=GridFunction(xs, np.array([INF] * 3)))
        out = sandwich_check(lin, ab, rfe, 0.5)
        assert not out["holds"] and out["slack"] == 0.5
        assert out["worst"] == {"violation": 1.0, "link": "linear_star<=abstract_star", "x": 1.0}


# L values 1/32 apart give chord slopes 1/8 apart: half-way between rate-grid
# points 1/4 apart, so nearest-point ties are common
L_VALUES = st.one_of(
    st.sampled_from([INF, NEG_INF]),
    st.integers(-64, 64).map(lambda k: k / 32),
    st.floats(-2.0, 2.0),
)


@st.composite
def pooled_nets(draw):
    """A net cycling through up to three drawn measures (atoms on a quarter
    lattice), so that several window samples share one measure object."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        locs = draw(st.lists(st.integers(-24, 24), min_size=1, max_size=10, unique=True))
        logm = np.array(draw(st.lists(st.floats(-800, 0), min_size=len(locs), max_size=len(locs))))
        logm = logm - np.logaddexp.reduce(logm)
        pool.append(FiniteSupportMeasure.from_log_atoms(zip(np.array(locs) / 4.0, logm)))
    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k, measure_of=lambda k: pool[k % len(pool)], max_index=1000
    )


# on atoms, a radius or two away from them, between them and far outside
POINTS = st.one_of(
    st.integers(-28, 28).map(lambda i: i / 4.0),
    st.tuples(st.integers(-24, 24), st.integers(1, 10), st.sampled_from([-1, 1])).map(
        lambda a: a[0] / 4.0 + a[2] * 2.0 ** -a[1]
    ),
    st.floats(-8, 8),
)
CUTS = st.one_of(st.integers(-28, 28).map(lambda i: i / 4.0), st.sampled_from([NEG_INF, INF]))
SCHEDULES = st.lists(
    st.one_of(st.floats(1e-3, 8.0), st.integers(1, 24).map(lambda i: i / 4.0)),
    min_size=1, max_size=5,
)
EPS_LISTS = st.lists(
    st.one_of(st.sampled_from([1e-300, 0.5, 1.0, 2.0]), st.floats(1e-12, 1.0)), max_size=4
)
WINDOW = ldpkit.WindowSpec(10, 400, 12)


@st.composite
def tagged_regions(draw):
    cuts = sorted(draw(st.lists(CUTS, max_size=6, unique=True)))
    ivs = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        ivs.append(Interval(lo, hi, draw(st.booleans()) or lo == NEG_INF, draw(st.booleans()) or hi == INF))
    return RegionSet(tuple(ivs)), draw(st.sampled_from(["open", "closed"]))


class TestBatchedMassQueries:
    """The one-radius rates and the batched set-wise queries against the
    loops they replaced."""

    def test_packaged_rate_grids(self, packaged_state):
        s = packaged_state
        deltas = radius_schedule(s.scenario.delta_count)
        assert s.rfe.radius == deltas[-1]
        l0, l1 = full_schedule_local_rates(s.net, s.x_grid, deltas, s.rate_window)
        assert s.rfe.l0.values.tobytes() == l0.tobytes()
        assert s.rfe.l1.values.tobytes() == l1.tobytes()

    @given(net=pooled_nets(), xs=st.lists(POINTS, min_size=1, max_size=12),
           count=st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_one_radius_equals_the_full_schedule(self, net, xs, count):
        deltas = radius_schedule(count)
        got = _local_rates(net, xs, deltas[-1], WINDOW)
        want = full_schedule_local_rates(net, xs, deltas, WINDOW)
        # wherever every sample's ball masses shrink with the radius
        x, d = np.array(xs)[:, None], np.array(deltas)
        monotone = np.ones(len(xs), dtype=bool)
        for k in WINDOW.indices(net):
            logm = net.measure(int(k)).log_masses_in(x - d, x + d)
            monotone &= np.all(logm[:, 1:] <= logm[:, :-1], axis=1)
        for g, w in zip(got, want):
            assert g[monotone].tobytes() == w[monotone].tobytes()

    def test_packaged_set_wise_checks(self, packaged_state):
        s = packaged_state
        params = s.scenario.check_params
        for eps in (params.eps_list, [1e-300, 0.5, 1.0]):
            args = (s.net, eps, params.r_schedule, s.rate_window)
            assert repr(exponential_tightness_check(*args)) == repr(
                loop_exponential_tightness_check(*args)
            )
        regions = list(params.regions) + [
            (RegionSet.complement_of_closed(-0.5, 0.5), "open"),
            (RegionSet.empty(), "closed"),
        ]
        args = (s.net, s.J, regions, s.rate_window, s.scenario.tolerances.bounds)
        assert repr(ldp_bounds_check(*args)) == repr(loop_ldp_bounds_check(*args))

    @given(net=pooled_nets(), eps_list=EPS_LISTS, schedule=SCHEDULES,
           regions=st.lists(tagged_regions(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_set_wise_checks_equal_the_loops(self, net, eps_list, schedule, regions):
        args = (net, eps_list, schedule, WINDOW)
        assert repr(exponential_tightness_check(*args)) == repr(
            loop_exponential_tightness_check(*args)
        )
        J = GridFunction(np.linspace(-7, 7, 29), np.abs(np.linspace(-7, 7, 29)) - 1.0)
        args = (net, J, regions, WINDOW, 1e-6)
        assert repr(ldp_bounds_check(*args)) == repr(loop_ldp_bounds_check(*args))

    def test_one_window_fetch_and_one_query_per_measure(self, monkeypatch, kernel_calls):
        # the rate grid and the set-wise bounds read one window of the net:
        # each sample is fetched once, each atom-count stack of distinct
        # measures takes one kernel call, with each measure a row once, and
        # every interval is in that call once
        pool = [
            FiniteSupportMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)]),
            FiniteSupportMeasure.from_atoms([(0.0, 0.25), (1.0, 0.75)]),
            FiniteSupportMeasure.dirac(0.5),
        ]
        net = ScaledMeasureNet(lambda k: 1.0 / k, lambda k: pool[k % 3], max_index=400)
        fetched = []
        fetch = net.measure
        monkeypatch.setattr(net, "measure", lambda k: fetched.append(k) or fetch(k))

        def rows():
            return sorted(row.tolist() for call in kernel_calls for row in call.locations)

        xs = np.linspace(-1.0, 1.0, 9)
        rfe = rate_grid(net, xs, 0.25, WINDOW)
        assert len(kernel_calls) == 2 and rows() == sorted(m.locations.tolist() for m in pool)
        assert all(call.lo.tolist() == (xs - 0.25).tolist() for call in kernel_calls)
        kernel_calls.clear()
        regions = [(RegionSet.closed(0.5, 2.0), "closed"),
                   (RegionSet.complement_of_closed(-0.5, 0.5), "open")]
        ldp_bounds_check(net, rfe.l0, regions, WINDOW, 1e-6)
        assert len(kernel_calls) == 2 and rows() == sorted(m.locations.tolist() for m in pool)
        assert all(call.lo.tolist() == [0.5, NEG_INF, 0.5] for call in kernel_calls)
        assert fetched == WINDOW.indices(net).tolist()

    @pytest.mark.parametrize("make", [ldpkit.demzei_example_net, escaping_net])
    def test_region_masses_equal_the_oracle(self, make):
        # bit for bit, with ends on atoms (dem-zei's at -k, 0, k; the Diracs
        # at k = 100 .. 10000) under open and closed flags
        net = make()
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        ends = [-1000.0, -100.0, 0.0, 100.0, 1000.0]
        regions = [RegionSet.empty(), RegionSet.closed(-INF, INF)]
        for lo, hi in zip(ends, ends[1:]):
            regions += [RegionSet.closed(lo, hi), RegionSet.open(lo, hi),
                        RegionSet.complement_of_closed(lo, hi),
                        RegionSet((Interval(lo, hi, True, False),)),
                        RegionSet((Interval(lo, hi, False, True),))]
        regions.append(RegionSet((Interval(-INF, -100.0, True, False), Interval(0.0, 0.0),
                                  Interval(100.0, 1000.0, True, True))))
        got = verifier._powered_regions(net, regions, w)
        want = np.array([t * oracles.log_masses_of(m, regions) for m, t in window_samples(net, w)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestDerivativeBoundScan:
    @given(
        values=st.lists(L_VALUES, min_size=2, max_size=30),
        l1=st.lists(
            st.sampled_from([NEG_INF, -1.0, 0.0, 0.25, 3.0, INF]), min_size=129, max_size=129
        ),
        half_span=st.integers(4, 64),
        tol=st.sampled_from([1e-3, 0.0, -0.05, -1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_point_by_point_scan(self, values, l1, half_span, tol):
        # a narrow rate grid leaves some slopes outside it: both must raise
        xs = np.arange(len(values)) / 4.0
        grid = np.arange(-half_span, half_span + 1) / 4.0
        L = GridFunction(xs, np.array(values))
        rfe = SimpleNamespace(grid=grid, l1=GridFunction(grid, np.array(l1[: grid.size])))
        assert repr(outcome(derivative_bound_scan, L, rfe, tol)) == repr(
            outcome(oracles.derivative_bound_scan, L, rfe, tol)
        )

    @pytest.mark.parametrize("tol", [1e-3, 0.0, -0.05, -1.0])
    def test_packaged_scenarios(self, packaged_state, tol):
        # at negative tolerances most points fail, so the details are compared too
        L, rfe = packaged_state.L, packaged_state.rfe
        assert repr(derivative_bound_scan(L, rfe, tol)) == repr(
            oracles.derivative_bound_scan(L, rfe, tol)
        )


class TestSandwich:
    def test_coin_chain(self, coin_state):
        out = sandwich_check(coin_state["L_star"], coin_state["sc"], coin_state["rfe"], 1e-6)
        assert out["holds"]

    def test_detects_violation(self, coin_state):
        shifted = GridFunction(
            coin_state["L_star"].xs, coin_state["L_star"].values + 0.1
        )
        out = sandwich_check(shifted, coin_state["sc"], coin_state["rfe"], 1e-6)
        assert not out["holds"] and out["worst"]["violation"] >= 0.09
