import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpkit
from ldpkit.conjugate import evaluate_family, stable_abstract_lf
from ldpkit.convex import GridFunction, lf_transform
from ldpkit.extreal import INF, NEG_INF, ext_abs_diff
from ldpkit.measures import FiniteSupportMeasure, RegionSet, ScaledMeasureNet, region_power_mass
from ldpkit.tilts import TiltFunction, linear_family, q_bump_tilt, two_slope_family
from ldpkit.verifier import (
    RangeTargets,
    default_delta_schedule,
    derivative_bound_check,
    derivative_bound_scan,
    equality_on_mask,
    exponential_tightness_check,
    ldp_bounds_check,
    local_rate,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
    varadhan_identity_check,
)

TOL = 2e-2
DELTAS = default_delta_schedule(10)


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
    fe_lin = evaluate_family(coin_net, linear_family(-3, 3, 61), main_window, TOL)
    L = GridFunction(
        np.array([m.lam for m in fe_lin.family.members]), fe_lin.values, label="L"
    )
    L_star = lf_transform(L, xs)
    sc = stable_abstract_lf(
        coin_net, two_slope_family((-4, 4), (-4, 4), 41), xs, main_window, TOL
    )
    rfe = rate_grid(coin_net, xs, DELTAS, rate_window)
    holds, J, _ = vague_ldp_check(rfe, 1e-3)
    assert holds
    return dict(net=coin_net, xs=xs, L=L, L_star=L_star, sc=sc, rfe=rfe, J=J)


class TestLocalRate:
    def test_coin_upper_rate_at_atom(self, coin_net, rate_window):
        v = local_rate(coin_net, 1.0, DELTAS, rate_window, "upper")
        assert v == pytest.approx(0.0, abs=1e-3)

    def test_coin_off_support_infinite(self, coin_net, rate_window):
        assert local_rate(coin_net, 0.5, DELTAS, rate_window, "upper") == INF

    def test_dirac_net_zero(self, rate_window):
        assert local_rate(dirac_net(), 0.0, DELTAS, rate_window, "upper") == 0.0

    def test_mode_validation(self, coin_net, rate_window):
        with pytest.raises(ValueError):
            local_rate(coin_net, 0.0, DELTAS, rate_window, "sideways")
        with pytest.raises(ValueError):
            local_rate(coin_net, 0.0, [0.1, 0.2], rate_window, "upper")

    def test_ball_masses_monotone_in_delta(self, iid_small_net):
        # smaller neighborhoods cannot carry more mass, per window index
        w = ldpkit.WindowSpec(100, 500, 8)
        x = 0.5
        for k in w.indices(iid_small_net):
            m, t = iid_small_net.at(int(k))
            d = np.array(DELTAS)
            masses = np.exp(t * m.log_masses_in(x - d, x + d))
            assert np.all(masses[:-1] >= masses[1:] - 1e-15)

    @pytest.mark.parametrize(
        "net_name, xs",
        [("coin_net", np.linspace(-2, 2, 41)), ("demzei_net", np.linspace(-3, 3, 61))],
        ids=["coin", "dem-zei"],
    )
    def test_equals_rate_grid_at_every_point(self, request, rate_window, net_name, xs):
        net = request.getfixturevalue(net_name)
        rfe = rate_grid(net, xs, DELTAS, rate_window)
        for x, l0, l1 in zip(xs, rfe.l0.values, rfe.l1.values):
            assert local_rate(net, x, DELTAS, rate_window, "lower") == l0
            assert local_rate(net, x, DELTAS, rate_window, "upper") == l1


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
        rfe = rate_grid(demzei_net, xs, DELTAS, rate_window)
        origin = xs == 0.0
        assert rfe.l1.values[origin][0] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isposinf(rfe.l1.values[~origin]))

    def test_iid_mean_concentrates_at_half(self, iid_small_net):
        w = ldpkit.WindowSpec(128, 512, 3)
        rfe = rate_grid(iid_small_net, np.array([0.25, 0.5, 0.75]), DELTAS, w)
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
        holds, J, _ = vague_ldp_check(coin_state["rfe"], 1e-3)
        assert holds
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
            deltas=rfe.deltas,
            window=rfe.window,
        )
        holds, _, _ = vague_ldp_check(fake, 1e-3)
        assert not holds

    def test_max_gap_is_the_largest_finite_gap(self):
        from ldpkit.verifier import RateFunctionEstimate

        grid = np.arange(6.0)
        l0 = np.array([0.0, 1.0, INF, 2.0, INF, 3.0])
        l1 = np.array([0.0, 1.25, INF, INF, INF, 3.5])
        rfe = RateFunctionEstimate(
            grid, GridFunction(grid, l0), GridFunction(grid, l1), DELTAS, None
        )
        # equal infinities are no gap; the finite-vs-infinite one fails the check
        assert vague_ldp_check(rfe, 1.0)[0::2] == (False, 0.5)
        rfe.l1.values[3] = 2.0
        assert vague_ldp_check(rfe, 1.0)[0::2] == (True, 0.5)
        assert vague_ldp_check(rfe, 0.25)[0::2] == (False, 0.5)
        all_inf = RateFunctionEstimate(
            grid, GridFunction(grid, np.full(6, INF)), GridFunction(grid, np.full(6, INF)),
            DELTAS, None,
        )
        assert vague_ldp_check(all_inf, 0.0)[0::2] == (True, 0.0)


class TestExponentialTightness:
    def test_coin_smallest_radius(self, coin_net, rate_window):
        ok, table = exponential_tightness_check(
            coin_net, [0.1, 0.01], [1.0, 2.0, 4.0], rate_window
        )
        assert ok and all(row["R"] == 1.0 for row in table)

    def test_demzei_holds(self, demzei_net, rate_window):
        ok, table = exponential_tightness_check(
            demzei_net, [0.1], [1.0, 2.0], rate_window
        )
        assert ok and table[0]["estimate"] < 1e-12

    def test_escaping_net_fails(self):
        net = escaping_net()
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        ok, table = exponential_tightness_check(net, [0.5], [1.0, 4.0, 16.0], w)
        assert not ok and table[0]["R"] is None

    def test_each_radius_is_measured_once(self, monkeypatch):
        net = escaping_net()
        w = ldpkit.window_for_t_range(net, 1e-2, 1e-4, 16)
        calls = []
        original = FiniteSupportMeasure.log_mass_in

        def counted(self, region):
            calls.append(region)
            return original(self, region)

        monkeypatch.setattr(FiniteSupportMeasure, "log_mass_in", counted)
        ok, _ = exponential_tightness_check(net, [0.5, 0.1, 0.01], [1.0, 4.0, 16.0], w)
        assert not ok
        assert len(calls) == 3 * len(w.indices(net))

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
        ok, table = exponential_tightness_check(net, eps_list, schedule, w)
        samples = [net.at(int(k)) for k in w.indices(net)]
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
        assert ok and table == want
        assert [row["R"] for row in table] == [1.0, 16.0, 4.0, 16.0]


class TestLdpBounds:
    def test_coin_regions(self, coin_state):
        report = ldp_bounds_check(
            coin_state["net"],
            coin_state["J"],
            [
                (RegionSet.closed(0.5, 2.0), "closed"),
                (RegionSet.open(-0.5, 0.5), "open"),
                (RegionSet.closed(-2.0, 2.0), "closed"),
            ],
            coin_state["rfe"].window,
            tol=1e-6,
        )
        assert report["holds"]
        closed_entry = report["regions"][0]
        assert closed_entry["estimate"] == pytest.approx(1.0, abs=1e-3)
        assert closed_entry["capacity"] == pytest.approx(1.0, abs=1e-3)
        open_entry = report["regions"][1]
        assert open_entry["capacity"] == 0.0 and open_entry["estimate"] == 0.0

    def test_empty_region(self, coin_state):
        report = ldp_bounds_check(
            coin_state["net"], coin_state["J"], [(RegionSet.empty(), "closed")],
            coin_state["rfe"].window, 1e-9,
        )
        assert report["holds"] and report["regions"][0]["capacity"] == 0.0


class TestVaradhan:
    def test_coin_slope_one(self, coin_state, main_window):
        holds, lhs, rhs = varadhan_identity_check(
            coin_state["net"], TiltFunction.linear(1.0), coin_state["rfe"],
            main_window, 1e-3, TOL,
        )
        assert holds
        assert lhs == pytest.approx(1.0, abs=1e-3)
        assert rhs == pytest.approx(1.0, abs=1e-3)

    def test_coin_zero_tilt(self, coin_state, main_window):
        holds, lhs, rhs = varadhan_identity_check(
            coin_state["net"], TiltFunction.linear(0.0), coin_state["rfe"],
            main_window, 1e-3, TOL,
        )
        assert holds and lhs == 0.0

    def test_demzei_q1(self, demzei_net, main_window, rate_window):
        xs = np.linspace(-3, 3, 121)
        rfe = rate_grid(demzei_net, xs, DELTAS, rate_window)
        holds, lhs, rhs = varadhan_identity_check(
            demzei_net, q_bump_tilt(1), rfe, main_window, 1e-3, TOL
        )
        assert holds
        assert lhs == pytest.approx(0.0, abs=1e-3)

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
        rfe = rate_grid(net, np.linspace(-1, 2, 13), DELTAS, w)
        with pytest.raises(ValueError, match="converge"):
            varadhan_identity_check(
                net, TiltFunction.linear(1.0), rfe, w, 1e-3, free_energy_tol=1e-3
            )


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
        ok, failures = derivative_bound_scan(coin_state["L"], coin_state["rfe"], 1e-3)
        assert ok and failures == []

    def test_slope_outside_rate_grid_is_error(self, coin_state):
        L = GridFunction(np.array([-1.0, 0.0, 1.0]), np.array([5.0, 0.0, 5.0]))
        with pytest.raises(ValueError, match="outside the rate grid"):
            derivative_bound_check(L, coin_state["rfe"], 1, 1e-3)


class TestRangeConditions:
    def test_coin_ellis_and_d_hold(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"].grid,
            linear_star=coin_state["L_star"],
            J=coin_state["J"],
            lambda_bar_zero=0.0,
        )
        reports = range_condition_check(
            coin_state["L"], (-3, 3), targets,
            ["ellis-two-slope", "range-dom-abstract", "range-dom-l0-filtered"],
        )
        assert all(r.hypothesis_holds for r in reports)

    def test_coin_ge_conditions_fail_densely(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"].grid,
            linear_star=coin_state["L_star"],
            J=coin_state["J"],
            lambda_bar_zero=0.0,
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, ["gartner-ellis-b"]
        )[0]
        assert not rep.hypothesis_holds
        inside = [w for w in rep.witnesses if -1 < w < 1]
        assert len(inside) >= 20

    def test_vacuous_inclusion(self, coin_state):
        # empty target: force the filter to exclude everything
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"].grid,
            linear_star=coin_state["L_star"],
            J=coin_state["J"],
            lambda_bar_zero=-INF,  # filter threshold +inf: nothing passes
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, ["range-dom-abstract-filtered"]
        )[0]
        assert rep.hypothesis_holds and rep.notes["target_size"] == 0

    def test_interior_variant_premise(self, coin_state):
        # coin l0 = {0 at -1 and 1, +inf between}: not a convex table, so the
        # interior variants report a failed properness/convexity premise
        targets = RangeTargets(
            rfe=coin_state["rfe"],
            abstract_star=coin_state["sc"].grid,
            linear_star=coin_state["L_star"],
            J=coin_state["J"],
            lambda_bar_zero=0.0,
        )
        rep = range_condition_check(
            coin_state["L"], (-3, 3), targets, ["range-int-dom-l0"]
        )[0]
        assert not rep.hypothesis_holds
        assert rep.notes["proper_convex_premise"] is False

    def test_interior_variant_holds_for_smooth_case(self, iid_small_net):
        # smooth convex l0: interior variant passes premise and coverage
        w = ldpkit.WindowSpec(128, 512, 3)
        fe = evaluate_family(iid_small_net, linear_family(-2, 2, 41), w, 1e-6)
        L = GridFunction(np.array([m.lam for m in fe.family.members]), fe.values)
        xs = np.arange(16, 113) / 128.0  # atoms of every window index
        rfe = rate_grid(iid_small_net, xs, default_delta_schedule(8), w)
        _, J, _ = vague_ldp_check(rfe, 0.05)
        star = lf_transform(L, xs)
        targets = RangeTargets(
            rfe=rfe, abstract_star=star, linear_star=star, J=J, lambda_bar_zero=0.0
        )
        rep = range_condition_check(L, (-2, 2), targets, ["range-int-dom-abstract"])[0]
        assert rep.notes["proper_convex_premise"] is True
        assert rep.hypothesis_holds, rep.witnesses

    def test_unknown_condition_rejected(self, coin_state):
        targets = RangeTargets(
            rfe=coin_state["rfe"], abstract_star=coin_state["sc"].grid,
            linear_star=coin_state["L_star"], J=coin_state["J"],
        )
        with pytest.raises(ValueError, match="unknown condition"):
            range_condition_check(coin_state["L"], (-3, 3), targets, ["nope"])

    def test_grid_mismatch_rejected(self, coin_state):
        other = GridFunction(np.linspace(-1, 1, 11), np.zeros(11))
        with pytest.raises(ValueError, match="share the rate grid"):
            RangeTargets(rfe=coin_state["rfe"], abstract_star=other)


class TestRateComparison:
    def test_coin_equalities_on_domain(self, coin_state):
        J, L_star, A = coin_state["J"], coin_state["L_star"], coin_state["sc"].grid
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
        fe = evaluate_family(
            demzei_net, linear_family(-1, 1, 21), main_window, TOL,
            divergence_threshold=1e3,
        )
        L = GridFunction(np.array([m.lam for m in fe.family.members]), fe.values)
        L_star = lf_transform(L, xs)
        from ldpkit.tilts import family_union, qn_family

        sc = stable_abstract_lf(
            demzei_net, family_union(qn_family(10), linear_family(-1, 1, 21)),
            xs, main_window, TOL, divergence_threshold=1e3,
        )
        rfe = rate_grid(demzei_net, xs, DELTAS, rate_window)
        _, J, _ = vague_ldp_check(rfe, 1e-3)
        dom = np.isfinite(J.values)
        out = rate_comparison(J, L_star, sc.grid, {"dom_J": dom}, 1e-3)
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
        d = ext_abs_diff(float(a), float(b))
        if d > worst:
            worst = d
        if d > tol:
            witnesses.append(float(x))
    return worst <= tol, worst, witnesses


def loop_rate_comparison(J, Lstar, abstract_star, masks, tol):
    """Oracle: :func:`rate_comparison` point by point."""
    out = {"tol": tol, "checks": [], "allowed_differences": []}
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
            if m and ext_abs_diff(float(a), float(b)) > tol
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
    return worst["violation"] <= slack, worst


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
        ok, worst = sandwich_check(lin, ab, rfe, 0.5)
        assert not ok
        assert worst == {"violation": 1.0, "link": "linear_star<=abstract_star", "x": 1.0}


class TestSandwich:
    def test_coin_chain(self, coin_state):
        ok, worst = sandwich_check(
            coin_state["L_star"], coin_state["sc"].grid, coin_state["rfe"], 1e-6
        )
        assert ok

    def test_detects_violation(self, coin_state):
        shifted = GridFunction(
            coin_state["L_star"].xs, coin_state["L_star"].values + 0.1
        )
        ok, worst = sandwich_check(
            shifted, coin_state["sc"].grid, coin_state["rfe"], 1e-6
        )
        assert not ok and worst["violation"] >= 0.09
