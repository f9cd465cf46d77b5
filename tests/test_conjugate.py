import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldpkit
from ldpkit.conjugate import abstract_lf, stable_abstract_lf
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import FamilyTable, LimitEstimate, lambda_family_table
from ldpkit.tilts import (
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    qn_family,
    two_slope_family,
)

from oracles import linear_restriction_conjugate, table_from_estimates, values_at

TOL = 2e-2


def dense_abstract_lf(family, table: FamilyTable, x_grid) -> np.ndarray:
    """Oracle: the sup over one ``h(x) - F(h)`` row per member."""
    xs = np.asarray(x_grid, dtype=float)
    H = values_at(family, xs)
    F = table.value
    vals = np.full(xs.shape, NEG_INF)
    finite = np.isfinite(F)
    if finite.any():
        vals = np.max(H[finite, :] - F[finite, None], axis=0, initial=NEG_INF)
    # F = +inf members contribute -inf: skip.  F = -inf members force +inf
    # unless the tilt itself is -inf at x.
    neg = np.isneginf(F)
    if neg.any():
        force = np.any(H[neg, :] > NEG_INF, axis=0)
        vals = np.where(force, INF, vals)
    return vals


def table_of(values) -> FamilyTable:
    """A converged table with ``values`` as every member's free energy."""
    v = np.array(values, dtype=float)
    return FamilyTable(
        np.ones(1), v[None, :], v, v, v, np.ones(v.size, dtype=bool), np.zeros(v.size)
    )


def fake_estimate(value):
    lo = min(value, value)
    return LimitEstimate(value, value, value, True, 0.0, ((1.0, value),))


class TestFamilyEvaluation:
    """A family and its table, as ``abstract_lf`` takes them."""

    def test_all_exist(self, coin_net, main_window):
        table = lambda_family_table(coin_net, linear_family(-2, 2, 9), main_window, TOL)
        assert table.converged.all()

    def test_mismatched_lengths_rejected(self):
        fam = linear_family(-1, 1, 3)
        with pytest.raises(ValueError, match="matching lengths"):
            abstract_lf(fam, table_of([0.0]), np.linspace(-1, 1, 5))

    def test_non_converged_blocks_abstract_lf(self):
        fam = explicit_family([TiltFunction.linear(1.0)])
        bad = LimitEstimate(0.0, 1.0, 1.0, False, 1.0, ((1.0, 0.0), (0.5, 1.0)))
        with pytest.raises(ValueError, match="converged"):
            abstract_lf(fam, table_from_estimates([bad]), np.linspace(-1, 1, 5))


class TestFamilyEvaluationTable:
    def test_abstract_lf_counts_unconverged_members(self):
        fam = explicit_family([TiltFunction.linear(s) for s in (0.0, 1.0, 2.0)])
        bad = LimitEstimate(0.0, 1.0, 1.0, False, 1.0, ((1.0, 0.0),))
        table = table_from_estimates([bad, fake_estimate(0.0), bad])
        assert table.converged.tolist() == [False, True, False]
        with pytest.raises(ValueError, match="^2 family member"):
            abstract_lf(fam, table, np.linspace(-1, 1, 5))


class TestAbstractLf:
    def test_zero_tilt_family_gives_zero(self):
        fam = explicit_family([TiltFunction.linear(0.0)])
        out = abstract_lf(fam, table_of([0.0]), np.linspace(-2, 2, 9))
        assert np.array_equal(out.values, np.zeros(9))

    def test_plus_inf_members_drop_out(self):
        fam = explicit_family([TiltFunction.linear(0.0), TiltFunction.linear(5.0)])
        table = table_of([0.0, INF])
        out = abstract_lf(fam, table, np.linspace(-1, 1, 5))
        assert np.array_equal(out.values, np.zeros(5))

    def test_all_members_infinite_gives_minus_inf(self):
        fam = explicit_family([TiltFunction.linear(1.0)])
        out = abstract_lf(fam, table_of([INF]), np.linspace(-1, 1, 5))
        assert np.all(np.isneginf(out.values))

    def test_minus_inf_member_forces_plus_inf(self):
        fam = explicit_family([TiltFunction.linear(1.0)])
        out = abstract_lf(fam, table_of([NEG_INF]), np.linspace(-1, 1, 5))
        assert np.all(np.isposinf(out.values))

    def test_family_monotonicity(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 41)
        small = two_slope_family((-2, 2), (-2, 2), 11)
        big = two_slope_family((-4, 4), (-4, 4), 21)  # superset of slopes
        union = family_union(small, big)
        a = abstract_lf(small, lambda_family_table(coin_net, small, main_window, TOL), xs)
        b = abstract_lf(union, lambda_family_table(coin_net, union, main_window, TOL), xs)
        assert np.all(a.values <= b.values + 1e-12)

    def test_coin_two_slope_surface(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 81)
        fam = two_slope_family((-4, 4), (-4, 4), 41)
        out = abstract_lf(fam, lambda_family_table(coin_net, fam, main_window, TOL), xs)
        at = lambda x: out.values[np.argmin(np.abs(xs - x))]
        assert abs(at(1.0)) <= 1e-3 and abs(at(-1.0)) <= 1e-3
        # raw truncated sup grows off |x| = 1 but stays finite
        assert 0.1 <= at(0.5) <= 4.1

    def test_no_dips_beyond_family_modulus(self, coin_net, main_window):
        # sup of finitely many continuous tilts is continuous: a grid point
        # may sit below its neighbors by at most (max slope) * step
        xs = np.linspace(-2, 2, 81)
        fam = two_slope_family((-4, 4), (-4, 4), 21)
        v = abstract_lf(fam, lambda_family_table(coin_net, fam, main_window, TOL), xs).values
        step = xs[1] - xs[0]
        modulus = 4.0 * step
        assert np.all(np.minimum(v[:-2], v[2:]) <= v[1:-1] + modulus + 1e-9)


SPECIAL_F = [INF, NEG_INF, 0.0, -0.0]


@st.composite
def slope_families(draw):
    """Linear, two-slope (unequal axes), doubled and union families."""
    ends = st.floats(-4.0, 4.0, allow_subnormal=False)
    lam = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    nu = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    res = draw(st.integers(2, 6))
    two = two_slope_family(tuple(lam), tuple(nu), res)
    lin = linear_family(lam[0], lam[1], res)
    return draw(st.sampled_from([
        two,
        two.doubled(),
        lin,
        lin.doubled(),
        family_union(qn_family(draw(st.integers(1, 3))), lin, two),
        family_union(two, lin).doubled(),
    ]))


class TestDistinctSlopeOracle:
    @given(
        fam=slope_families(),
        data=st.data(),
        xs=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_rows(self, fam, data, xs):
        n = len(fam)
        F = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))
        for i, v in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIAL_F)), max_size=4
        )):
            F[i] = v
        table = table_of(F)
        grid = np.unique(xs + [data.draw(st.sampled_from([0.0, -0.0]))])
        got = abstract_lf(fam, table, grid).values
        # values, not sign bits: a zero may come out as -0.0 on one side
        assert np.array_equal(got, dense_abstract_lf(fam, table, grid))

    def test_memory_does_not_scale_with_members_times_points(self):
        fam = two_slope_family((-4.0, 4.0), (-3.0, 5.0), 70)  # 4,900 members
        table = table_of(np.random.default_rng(0).normal(size=4900))
        xs = np.linspace(-3.0, 3.0, 2000)
        fam.custom  # cached on first use, not part of the sup
        tracemalloc.start()
        try:
            abstract_lf(fam, table, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense members x points float64 matrix alone is 78 MB
        assert peak < 16 * 2**20


class TestLinearRestriction:
    def test_coin_zero_on_unit_interval(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 81)
        fam = linear_family(-3, 3, 61)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        out = linear_restriction_conjugate(fam, table, xs)
        inside = np.abs(xs) <= 1.0
        assert np.max(np.abs(out.values[inside])) <= 1e-3

    def test_demzei_gives_abs(self, demzei_net, main_window):
        xs = np.linspace(-3, 3, 121)
        fam = linear_family(-1, 1, 21)
        table = lambda_family_table(demzei_net, fam, main_window, TOL, divergence_threshold=1e3)
        out = linear_restriction_conjugate(fam, table, xs)
        # conjugate of 0 on the sampled open (-1,1): |x| scaled by the grid edge
        edge = max(m.lam for m in fam.members)
        assert np.max(np.abs(out.values - edge * np.abs(xs))) <= 1e-3

    def test_single_member_gives_line(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 11)
        lam0 = 1.5
        fam = explicit_family([TiltFunction.linear(lam0)])
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        # a one-member linear family is handled by abstract_lf directly
        out = abstract_lf(fam, table, xs)
        expected = lam0 * xs - table.estimate(0).value
        assert np.allclose(out.values, expected)

    def test_requires_linear_family(self, coin_net, main_window):
        fam = two_slope_family((-1, 1), (-1, 1), 3)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        with pytest.raises(ValueError, match="linear"):
            linear_restriction_conjugate(fam, table, np.linspace(-1, 1, 5))

    def test_two_paths_agree(self, coin_net, demzei_net, main_window):
        # abstract sup over a linear family == conjugate of the sampled L
        xs = np.linspace(-2.5, 2.5, 101)
        for net, G, res, div in (
            (coin_net, (-3, 3), 61, 1e12),
            (demzei_net, (-1, 1), 21, 1e3),
        ):
            fam = linear_family(*G, res)
            table = lambda_family_table(net, fam, main_window, TOL, divergence_threshold=div)
            direct = abstract_lf(fam, table, xs)
            via_hull = linear_restriction_conjugate(fam, table, xs)
            assert np.max(np.abs(direct.values - via_hull.values)) <= 1e-6


class TestStability:
    def test_coin_flags_unstable_points(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 81)
        fam = two_slope_family((-4, 4), (-4, 4), 41)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        sc = stable_abstract_lf(coin_net, fam, table, xs, main_window, TOL)
        finite = np.isfinite(sc.values)
        assert np.allclose(xs[finite], [-1.0, 1.0])
        assert abs(sc.values[finite]).max() <= 1e-3
        # growth under doubling recorded for a flagged point
        raw = abstract_lf(fam, table, xs).values
        wide = fam.doubled()
        doubled = abstract_lf(
            wide, lambda_family_table(coin_net, wide, main_window, TOL), xs
        ).values
        i = np.argmin(np.abs(xs - 0.5))
        assert sc.meta["flagged"][i] and doubled[i] > raw[i] + 1e-3

    def test_demzei_pins_zero(self, demzei_net, main_window):
        xs = np.linspace(-3, 3, 121)
        fam = family_union(qn_family(10), linear_family(-1, 1, 21))
        table = lambda_family_table(demzei_net, fam, main_window, TOL, divergence_threshold=1e3)
        sc = stable_abstract_lf(
            demzei_net, fam, table, xs, main_window, TOL, divergence_threshold=1e3
        )
        finite = np.isfinite(sc.values)
        assert np.array_equal(xs[finite], np.array([0.0]))
        assert abs(sc.values[finite][0]) <= 1e-3

    def test_stable_values_keep_requested_family(self, coin_net, main_window):
        xs = np.linspace(-2, 2, 21)
        fam = two_slope_family((-4, 4), (-4, 4), 21)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        sc = stable_abstract_lf(coin_net, fam, table, xs, main_window, TOL)
        raw = abstract_lf(fam, table, xs).values
        unflagged = ~np.array(sc.meta["flagged"])
        assert unflagged.any()
        assert np.array_equal(sc.values[unflagged], raw[unflagged])
