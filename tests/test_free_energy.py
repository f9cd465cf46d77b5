import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import ldpkit
from ldpkit import free_energy
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import (
    FamilyTable,
    L_grid,
    WindowSpec,
    _classify_limits,
    _log_sum_exp_rows,
    _slope_log_sums,
    estimate_limit,
    lambda_family_table,
    lambda_of,
    window_for_t_range,
)
from ldpkit.measures import (
    FiniteSupportMeasure,
    ScaledMeasureNet,
    exp_power_integral,
)
from ldpkit.tilts import (
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    qn_family,
    two_slope_family,
)

TOL = 2e-2  # window bracket tolerance for the 1/k nets (spread ~ t_max*log 2)


def oscillating_net(max_index=10_000):
    """Alternating Dirac at 0 / Dirac at 1: no free-energy limit for slope 1."""
    d0 = FiniteSupportMeasure.dirac(0.0)
    d1 = FiniteSupportMeasure.dirac(1.0)
    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k,
        measure_of=lambda k: d0 if k % 2 == 0 else d1,
        max_index=max_index,
        label="oscillating",
    )


class TestWindowSpec:
    def test_requires_start_before_end(self):
        with pytest.raises(ValueError):
            WindowSpec(10, 10)

    def test_indices_geometric_and_unique(self, coin_net):
        w = WindowSpec(100, 1_000_000, 48)
        ks = w.indices(coin_net)
        assert ks[0] == 100 and ks[-1] == 1_000_000
        assert np.all(np.diff(ks) > 0)
        assert ks.size <= 48

    def test_window_outside_net_range(self, coin_net):
        w = WindowSpec(10, coin_net.max_index + 5)
        with pytest.raises(ValueError, match="outside"):
            w.indices(coin_net)

    def test_window_for_t_range(self, coin_net):
        w = window_for_t_range(coin_net, 1e-2, 1e-6)
        assert w.start_index == 100 and w.end_index == 1_000_000


class TestEstimateLimit:
    def test_plain_bracket(self):
        est = estimate_limit([0.1, 0.01, 0.001], [1.0, 1.5, 1.2], tol=1.0)
        assert (est.liminf_est, est.limsup_est, est.value) == (1.0, 1.5, 1.2)
        assert est.converged and est.spread == 0.5

    def test_not_converged_when_spread_large(self):
        est = estimate_limit([0.1, 0.01], [0.0, 1.0], tol=1e-3)
        assert not est.converged

    def test_divergence_classification(self):
        ts = [1 / k for k in (10, 20, 40, 80, 160, 320)]
        vals = [1e3, 1e4, 1e5, 1e6, 1e12, 1e13]
        est = estimate_limit(ts, vals, tol=1e-6)
        assert est.limsup_est == INF and est.liminf_est == INF and est.converged

    def test_large_but_not_monotone_is_not_divergent(self):
        ts = [0.1, 0.05, 0.02, 0.01, 0.005]
        vals = [1e13, 1e14, 9e13, 1e14, 2e14]
        est = estimate_limit(ts, vals, tol=1e-6)
        assert est.limsup_est != INF and not est.converged

    def test_all_minus_inf(self):
        est = estimate_limit([0.1, 0.01], [NEG_INF, NEG_INF], tol=1e-6)
        assert est.value == NEG_INF and est.converged


class TestLambdaOf:
    def test_coin_slope_one(self, coin_net, main_window):
        est = lambda_of(coin_net, TiltFunction.linear(1.0), main_window, TOL)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_probability_net_zero_tilt_exact(self, coin_net, main_window):
        est = lambda_of(coin_net, TiltFunction.linear(0.0), main_window, TOL)
        assert est.value == 0.0 and est.spread == 0.0

    def test_demzei_slope_two_diverges(self, demzei_net, main_window):
        est = lambda_of(
            demzei_net, TiltFunction.linear(2.0), main_window, TOL,
            divergence_threshold=1e3,
        )
        assert est.limsup_est == INF and est.converged

    def test_oscillating_net_not_converged(self):
        net = oscillating_net()
        w = window_for_t_range(net, 1e-2, 1e-4, 32)
        est = lambda_of(net, TiltFunction.linear(1.0), w, tol=1e-3)
        assert not est.converged
        assert est.liminf_est == pytest.approx(0.0, abs=1e-12)
        assert est.limsup_est == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_tilt(self, coin_net, main_window):
        base = TiltFunction.two_slope(0.5, 1.0)
        lifted = TiltFunction.custom(
            "lifted", lambda xs: np.where(xs <= 0, 0.5 * xs, 1.0 * xs) + 0.25
        )
        lo = lambda_of(coin_net, base, main_window, TOL)
        hi = lambda_of(coin_net, lifted, main_window, TOL)
        assert lo.limsup_est <= hi.limsup_est + 1e-12


class TestLGrid:
    def test_coin_matches_abs(self, coin_net, main_window):
        L = L_grid(coin_net, (-3, 3), 61, main_window, TOL)
        assert np.max(np.abs(L.values - np.abs(L.xs))) <= 1e-3
        assert all(L.meta["converged"])

    def test_coin_L_is_convex_sequence(self, coin_net, main_window):
        L = L_grid(coin_net, (-3, 3), 61, main_window, TOL)
        slopes = np.diff(L.values) / np.diff(L.xs)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_demzei_zero_inside(self, demzei_net, main_window):
        L = L_grid(demzei_net, (-1, 1), 21, main_window, TOL, divergence_threshold=1e3)
        assert np.max(np.abs(L.values)) <= 1e-3

    def test_demzei_wide_grid_flags_divergence(self, demzei_net, main_window):
        L = L_grid(demzei_net, (-2, 2), 39, main_window, TOL, divergence_threshold=1e3)
        outside = np.abs(L.xs) >= 1.1 - 1e-9
        inside = np.abs(L.xs) <= 1.0 + 1e-9
        assert np.all(np.isposinf(L.values[outside]))
        assert np.max(np.abs(L.values[inside])) <= 1e-3

    def test_iid_zero_slope(self, iid_small_net):
        w = WindowSpec(100, 500, 8)
        L = L_grid(iid_small_net, (-1, 1), 5, w, 1e-6)
        assert L.values[2] == pytest.approx(0.0, abs=1e-12)


class TestFamilyTable:
    def test_coin_two_slope_surface(self, coin_net, main_window):
        fam = two_slope_family((-4, 4), (-4, 4), 21)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        worst = np.max(np.abs(table.value - np.maximum(-fam.lam, fam.nu)))
        assert worst <= 1e-3

    def test_demzei_q_tilts_vanish(self, demzei_net, main_window):
        table = lambda_family_table(demzei_net, qn_family(10), main_window, TOL)
        assert table.converged.all()
        assert np.max(np.abs(table.value)) <= 1e-3

    def test_zero_tilt_family(self, coin_net, main_window):
        table = lambda_family_table(
            coin_net, explicit_family([TiltFunction.linear(0.0)]), main_window, TOL
        )
        assert table.value[0] == 0.0

    def test_diagonal_matches_L_grid_bitwise(self, coin_net, main_window):
        # same computation through the linear-family and two-slope paths
        L = L_grid(coin_net, (-3, 3), 31, main_window, TOL)
        diag = explicit_family(
            [TiltFunction.two_slope(lam, lam) for lam in L.xs]
        )
        table = lambda_family_table(coin_net, diag, main_window, TOL)
        worst = np.max(np.abs(table.value - L.values))
        assert worst <= 1e-9


class TestFamilyTableArrays:
    def test_round_trips_through_estimates(self, demzei_net, main_window):
        family = family_union(linear_family(-3, 3, 5), qn_family(2))
        table = lambda_family_table(demzei_net, family, main_window, TOL)
        estimates = [table.estimate(i) for i in range(len(table))]
        again = FamilyTable.from_estimates(estimates)
        for name in ("ts", "rows", "value", "liminf", "limsup", "converged", "spread"):
            np.testing.assert_array_equal(getattr(again, name), getattr(table, name))
        assert repr(lambda_of(demzei_net, qn_family(2).members[1], main_window, TOL)) == (
            repr(estimates[-1])
        )

    def test_from_estimates_needs_shared_scales(self):
        a = estimate_limit([1.0, 0.5], [0.0, 0.0])
        b = estimate_limit([1.0, 0.25], [0.0, 0.0])
        with pytest.raises(ValueError, match="scales"):
            FamilyTable.from_estimates([a, b])
        with pytest.raises(ValueError):
            FamilyTable.from_estimates([a, estimate_limit([1.0], [0.0])])

    def test_liminf_above_limsup_rejected(self):
        with pytest.raises(ValueError, match="liminf"):
            FamilyTable(
                ts=np.array([1.0]), rows=np.array([[0.0, 1.0]]),
                value=np.array([0.0, 1.0]), liminf=np.array([0.0, 2.0]),
                limsup=np.array([0.0, 1.0]), converged=np.array([True, True]),
                spread=np.array([0.0, 0.0]),
            )

    def test_arrays_are_read_only(self, coin_net, main_window):
        table = lambda_family_table(coin_net, linear_family(-1, 1, 3), main_window, TOL)
        with pytest.raises(ValueError):
            table.value[0] = 1.0


def assert_kernel_matches_oracle(net, family, window):
    """Every sampled kernel value equals exp_power_integral, member by member.

    The kernel sums the atoms on each side of 0 separately, so its rounding
    differs from the one-pass log-sum-exp.  Besides rtol 1e-12 the check
    allows an absolute 1e-12 of ``t`` times the largest exponent, the scale
    of a log-sum-exp's rounding.
    """
    table = lambda_family_table(net, family, window, tol=1.0)
    for j, k in enumerate(window.indices(net)):
        m = net.measure(int(k))
        for i, member in enumerate(family.members):
            t, got = table.ts[j], table.rows[j, i]
            want = exp_power_integral(m, member, t)
            if not np.isfinite(want):
                assert got == want, member.label
                continue
            expo = m.log_masses + member.eval_array(m.locations) / t
            slack = 1e-12 * t * (1.0 + np.max(np.abs(expo[np.isfinite(expo)])))
            assert got == pytest.approx(want, rel=1e-12, abs=slack), (member.label, k)


SLOPES = st.one_of(
    st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 2.0]),  # duplicates likely
    st.floats(-4.0, 4.0),
)


@st.composite
def finite_measures(draw):
    """A sub-probability measure on up to 11 atoms, on one or both sides of 0."""
    locs = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10, unique=True))
    side = draw(st.sampled_from(["both", "negative", "positive"]))
    if side == "negative":
        locs = [-x for x in locs]
    elif side == "both":
        locs = [x if draw(st.booleans()) else -x for x in locs]
    if draw(st.booleans()):
        locs.append(0.0)  # an atom exactly at the split
    locs = sorted(set(locs))
    logm = np.array(draw(st.lists(
        st.floats(-60.0, 0.0), min_size=len(locs), max_size=len(locs)
    )))
    total = logsumexp(logm)
    if total > 0.0:
        logm = logm - total
    return FiniteSupportMeasure(np.array(locs), logm)


class TestKernelOracle:
    @given(
        measures=st.lists(finite_measures(), min_size=2, max_size=2),
        pairs=st.lists(st.tuples(SLOPES, SLOPES), min_size=1, max_size=12),
        scale=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_exp_power_integral(self, measures, pairs, scale):
        net = ScaledMeasureNet(
            t_of=lambda k: scale / k,
            measure_of=lambda k: measures[k - 1],
            max_index=4,
        )
        family = family_union(
            explicit_family([TiltFunction.two_slope(l, n) for l, n in pairs]),
            explicit_family([TiltFunction.linear(l) for l, _ in pairs]),
            qn_family(3),
            explicit_family([
                TiltFunction.custom("dead", lambda xs: np.full(xs.shape, NEG_INF)),
                TiltFunction.custom("right", lambda xs: np.where(xs > 0, xs, NEG_INF)),
            ]),
        )
        assert_kernel_matches_oracle(net, family, WindowSpec(1, 2, 2))

    def test_row_sums_match_scipy(self):
        # a term e^-50 below the largest one must survive: log1p, not log(1 + s)
        x = np.array([
            [0.0, -50.0],
            [-1e4, -0.0001],
            [NEG_INF, NEG_INF],
            [NEG_INF, 3.0],
            [700.0, 700.0],
        ])
        got = _log_sum_exp_rows(x)
        np.testing.assert_allclose(got, logsumexp(x, axis=1), rtol=1e-15, atol=0)
        assert got[0] > 0.0
        assert _log_sum_exp_rows(np.empty((2, 0))).tolist() == [NEG_INF, NEG_INF]

    def test_demzei_tiny_outer_masses(self, demzei_net, main_window, monkeypatch):
        # log-masses -k^2 beside log1p(-2 e^{-k^2}) at the centre atom; tiny
        # blocks make every side sum span several of them
        monkeypatch.setattr(free_energy, "_BLOCK_TERMS", 4)
        family = family_union(
            two_slope_family((-2, 2), (-2, 2), 5),
            linear_family(-3, 3, 7),
            qn_family(3),
        )
        assert_kernel_matches_oracle(demzei_net, family, main_window)


class TestSlopeLogSumBlocks:
    @pytest.mark.parametrize("block", [1, 7, 1 << 30])
    def test_block_size_does_not_change_sums(self, block, monkeypatch):
        # rows stay whole, so each slope's sum is the same whatever the block
        rng = np.random.default_rng(7)
        slopes = rng.uniform(-6.0, 6.0, 40)
        locs = np.sort(rng.uniform(-3.0, 3.0, 500))
        logm = rng.uniform(-80.0, 0.0, 500)
        want = _slope_log_sums(slopes, locs, logm, 0.01)
        monkeypatch.setattr(free_energy, "_BLOCK_TERMS", block)
        got = _slope_log_sums(slopes, locs, logm, 0.01)
        assert got.tobytes() == want.tobytes()


def assert_same_estimates(got, want):
    # repr compares floats exactly, NaN and signed zeros included
    assert repr(got) == repr(want)


CLASSIFIER_COLUMNS = {
    "all -inf": [NEG_INF] * 6,
    "runs to +inf": [1.0, 1e3, 1e6, 1e9, 1e12, 1e13],
    "runs to -inf": [-1.0, -1e3, -1e6, -1e9, -1e12, -1e13],
    "rises to the threshold": [1.0, 1e3, 1e6, 1e9, 1e11, 1e12],
    "falls to minus the threshold": [-1.0, -1e3, -1e6, -1e9, -1e11, -1e12],
    "+inf tail": [1.0, 2.0, INF, INF, INF, INF],
    "-inf tail": [0.0, NEG_INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF],
    "+inf last, not monotone": [1.0, INF, 2.0, INF, 3.0, INF],
    "large, not monotone": [1e13, 1e14, 9e13, 1e14, 2e14, 3e14],
    "finite, not converged": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    "finite, converged": [0.5, 0.5 + 1e-9, 0.5, 0.5 - 1e-9, 0.5, 0.5],
    "spread equal to tol": [0.25, 0.5, 0.0, 0.5, 0.25, 0.5],
    "nan last": [1.0, 2.0, 3.0, 4.0, 5.0, np.nan],
}


class TestClassifierOracle:
    TS = [1.0 / k for k in (10, 20, 40, 80, 160, 320)]

    def test_named_columns(self):
        rows = np.array(list(CLASSIFIER_COLUMNS.values())).T
        got = _classify_limits(np.array(self.TS), rows, 0.5, 1e12)
        assert len(got) == len(CLASSIFIER_COLUMNS)
        for i, col in enumerate(CLASSIFIER_COLUMNS.values()):
            assert_same_estimates(got.estimate(i), estimate_limit(self.TS, col, 0.5, 1e12))

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([INF, NEG_INF, 0.0, 1.0, 1e12, -1e12, 2e12]),
                        st.floats(-1e13, 1e13),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=6,
            )
        ),
        st.sampled_from([1e-6, 1.0]),
        st.sampled_from([10.0, 1e12]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_columns(self, columns, tol, threshold):
        ts = [1.0 / (k + 1) for k in range(len(columns[0]))]
        got = _classify_limits(np.array(ts), np.array(columns).T, tol, threshold)
        assert len(got) == len(columns)
        for i, col in enumerate(columns):
            assert_same_estimates(got.estimate(i), estimate_limit(ts, col, tol, threshold))
