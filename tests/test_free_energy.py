import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import ldpkit
from ldpkit import free_energy
from ldpkit.conjugate import stable_abstract_lf
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import (
    FamilyTable,
    L_from_table,
    WindowSpec,
    _classify_limits,
    _log_sum_exp_rows,
    _logaddexp,
    lambda_family_table,
    lambda_of,
    window_for_t_range,
)
from ldpkit.measures import FiniteSupportMeasure, ScaledMeasureNet
from ldpkit.scenario import MAX_SLOPE
from ldpkit.tilts import (
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    q_bump_tilt,
    qn_family,
    two_slope_family,
)

from oracles import estimate_limit, exp_power_integral, slope_log_sums, table_from_estimates

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
        fam = linear_family(-3, 3, 61)
        L = L_from_table(fam, lambda_family_table(coin_net, fam, main_window, TOL))
        assert np.max(np.abs(L.values - np.abs(L.xs))) <= 1e-3
        assert all(L.meta["converged"])

    def test_coin_L_is_convex_sequence(self, coin_net, main_window):
        fam = linear_family(-3, 3, 61)
        L = L_from_table(fam, lambda_family_table(coin_net, fam, main_window, TOL))
        slopes = np.diff(L.values) / np.diff(L.xs)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_demzei_zero_inside(self, demzei_net, main_window):
        fam = linear_family(-1, 1, 21)
        L = L_from_table(fam, lambda_family_table(demzei_net, fam, main_window, TOL, 1e3))
        assert np.max(np.abs(L.values)) <= 1e-3

    def test_demzei_wide_grid_flags_divergence(self, demzei_net, main_window):
        fam = linear_family(-2, 2, 39)
        L = L_from_table(fam, lambda_family_table(demzei_net, fam, main_window, TOL, 1e3))
        outside = np.abs(L.xs) >= 1.1 - 1e-9
        inside = np.abs(L.xs) <= 1.0 + 1e-9
        assert np.all(np.isposinf(L.values[outside]))
        assert np.max(np.abs(L.values[inside])) <= 1e-3

    def test_iid_zero_slope(self, iid_small_net):
        w = WindowSpec(100, 500, 8)
        fam = linear_family(-1, 1, 5)
        L = L_from_table(fam, lambda_family_table(iid_small_net, fam, w, 1e-6))
        assert L.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_meta_carries_the_table_brackets(self, demzei_net, main_window):
        fam = linear_family(-2, 2, 39)
        table = lambda_family_table(demzei_net, fam, main_window, TOL, 1e3)
        L = L_from_table(fam, table, "L_wide")
        assert L.label == "L_wide"
        assert L.xs.tobytes() == fam.lam.tobytes()
        assert L.values.tobytes() == table.value.tobytes()
        for key in ("converged", "liminf", "limsup"):
            assert L.meta[key] is getattr(table, key)

    def test_L_from_table_needs_linear_tilts(self, coin_net, main_window):
        fam = two_slope_family((-1, 1), (-1, 1), 3)
        table = lambda_family_table(coin_net, fam, main_window, TOL)
        with pytest.raises(ValueError, match="linear tilts"):
            L_from_table(fam, table)


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
        fam = linear_family(-3, 3, 31)
        L = L_from_table(fam, lambda_family_table(coin_net, fam, main_window, TOL))
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
        again = table_from_estimates(estimates)
        for name in ("ts", "rows", "value", "liminf", "limsup", "converged", "spread"):
            np.testing.assert_array_equal(getattr(again, name), getattr(table, name))
        assert repr(lambda_of(demzei_net, qn_family(2).members[1], main_window, TOL)) == (
            repr(estimates[-1])
        )

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
        got = _log_sum_exp_rows(x.copy())
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
        want = slope_log_sums(slopes, locs, logm, 0.01)
        monkeypatch.setattr(free_energy, "_BLOCK_TERMS", block)
        got = slope_log_sums(slopes, locs, logm, 0.01)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("name", ["ge-ex", "dem-zei"])
    def test_table_blocks_do_not_change_rows(self, name, samples, monkeypatch):
        # a table is evaluated in blocks of whole samples: dem-zei's family
        # has custom members (its sloped rows read 0.0 on this window, so it
        # checks where the columns go), ge-ex's is the two-slope grid (whose
        # rows also check that each sample keeps its own scale t)
        if name == "ge-ex":
            net, family = ldpkit.coin_example_net(), two_slope_family((-4, 4), (-4, 4), 41)
        else:
            net = ldpkit.demzei_example_net()
            family = family_union(qn_family(10), linear_family(-1.0, 1.0, 21))
        window = window_for_t_range(net, 1e-2, 1e-6, 48)
        blocks = []  # samples per _logaddexp call

        def rows_at(block_terms):
            blocks.clear()
            monkeypatch.setattr(free_energy, "_BLOCK_TERMS", block_terms)
            return lambda_family_table(net, family, window, TOL).rows

        monkeypatch.setattr(
            free_energy, "_logaddexp", lambda a, b: blocks.append(len(a)) or _logaddexp(a, b)
        )
        whole = rows_at(1 << 30)
        assert blocks == [whole.shape[0]]
        sloped = np.count_nonzero(~np.isnan(family.lam))
        assert rows_at(4 * samples * sloped).tobytes() == whole.tobytes()
        assert blocks[:-1] == [samples] * (len(blocks) - 1) and sum(blocks) == whole.shape[0]


def unmasked_log_sum_exp_rows(x: np.ndarray) -> np.ndarray:
    """Oracle: :func:`_log_sum_exp_rows` with ``exp`` run on every term."""
    if x.shape[1] == 0:
        return np.full(x.shape[0], NEG_INF)
    rows = np.arange(x.shape[0])
    top = x.argmax(axis=1)
    peak = x[rows, top]
    with np.errstate(invalid="ignore"):
        terms = np.exp(x - np.where(np.isfinite(peak), peak, 0.0)[:, None])
    terms[rows, top] = 0.0
    return peak + np.log1p(terms.sum(axis=1))


# offsets from a row's peak: where exp is 0.0, its subnormal band, its normal
# range, the band's edges and the special values
OFFSETS = st.one_of(
    st.floats(-5000.0, -746.0),
    st.floats(-745.2, -708.0),
    st.floats(-60.0, 0.0),
    st.sampled_from([-746.0, -745.14, -745.13, -708.4, -0.0, NEG_INF, INF, np.nan]),
)
PEAKS = st.one_of(st.sampled_from([0.0, NEG_INF]), st.floats(-1e6, 1e6))


def bits_and_warnings(kernel, x):
    """``kernel(x)``'s bytes and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kernel(x).tobytes()
    return out, [str(w.message) for w in caught]


class TestMaskedExp:
    @given(
        peaks=st.lists(PEAKS, min_size=1, max_size=6),
        width=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_unmasked_kernel(self, peaks, width, data):
        offsets = np.array(
            [data.draw(st.lists(OFFSETS, min_size=width, max_size=width)) for _ in peaks]
        )
        with np.errstate(invalid="ignore"):  # -inf + inf
            x = np.array(peaks)[:, None] + offsets
        # a +inf peak leaves the row unshifted: exp may overflow there, as before
        want = bits_and_warnings(unmasked_log_sum_exp_rows, x)
        assert bits_and_warnings(_log_sum_exp_rows, x.copy()) == want

    def test_special_rows(self):
        x = np.array([
            [0.0, -708.5, -745.0, -745.13],  # peak 0.0, every other term subnormal
            [0.0, -745.14, -746.0, -1e4],  # every other term 0.0
            [1e5, 1e5 - 745.0, 1e5 - 746.0, 1e5 - 700.0],
            [NEG_INF] * 4,
            [np.nan, 1.0, -800.0, NEG_INF],
            [INF, 1.0, -800.0, NEG_INF],
            [INF, INF, NEG_INF, NEG_INF],
        ])
        got = _log_sum_exp_rows(x.copy())
        assert got.tobytes() == unmasked_log_sum_exp_rows(x).tobytes()
        assert got[0] > 0.0 and got[1] == 0.0
        assert got[3] == NEG_INF and np.isnan(got[4]) and got[5] == got[6] == INF

    def test_exp_is_zero_exactly_below_the_mask(self):
        # the mask may skip only terms whose exp is exactly 0.0, and the
        # subnormal band above it must stay computed
        assert np.exp(free_energy._EXP_ZERO) == 0.0
        assert np.exp(-745.14) == 0.0
        assert np.exp(-745.13) > 0.0


# a first term and the gap to the second: both infinities, NaN, both zeros,
# ties, gaps of exactly 746 and the subnormal band of exp(-gap)
FIRST_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, INF, NEG_INF, np.nan, 1e308, -1e308, 5e-324]),
    st.floats(-1e6, 1e6),
)
GAPS = st.one_of(
    st.sampled_from([0.0, -0.0, 746.0, -746.0, 745.14, -745.13, 708.4, INF, NEG_INF, np.nan]),
    st.floats(-800.0, 800.0),
    st.floats(-745.2, -708.0),
    st.floats(708.0, 745.2),
    st.floats(),
)


class TestMaskedLogaddexp:
    @given(st.lists(st.tuples(FIRST_TERMS, GAPS, st.booleans()), min_size=1, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_logaddexp(self, pairs):
        with np.errstate(all="ignore"):
            a = np.array([p[0] for p in pairs])
            b = a - np.array([p[1] for p in pairs])
        swap = np.array([p[2] for p in pairs])
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        with np.errstate(all="ignore"):  # np.logaddexp warns on NaN and overflow
            want = np.logaddexp(a, b).tobytes()
        assert bits_and_warnings(lambda x: _logaddexp(*x), (a, b)) == (want, [])

    def test_special_pairs(self):
        a = np.array([-0.0, -0.0, 0.0, INF, NEG_INF, INF, -746.0, 1e308, np.nan])
        b = np.array([-0.0, -746.0, -746.0000000000001, INF, NEG_INF, NEG_INF, 0.0, -1e308, 1.0])
        got = _logaddexp(a, b)
        with np.errstate(all="ignore"):
            assert got.tobytes() == np.logaddexp(a, b).tobytes()
        # exp(-746) is exactly 0.0, and -0.0 + 0.0 is +0.0
        assert got[1] == 0.0 and not np.signbit(got[1]) and got[2] == 0.0


SIGNED_SLOPES = st.one_of(
    st.sampled_from([-3.0, -0.5, -0.0, 0.0, 0.5, 2.0]),  # both zeros, repeats likely
    st.floats(-4.0, 4.0),
)


def count_summed_rows(monkeypatch) -> list[int]:
    """Patch the row kernel to add up the rows (slope x sample) it is given."""
    rows = [0]
    kernel = free_energy._log_sum_exp_rows

    def counting(x, *args):
        rows[0] += x.shape[0]
        return kernel(x, *args)

    monkeypatch.setattr(free_energy, "_log_sum_exp_rows", counting)
    return rows


def all_tables(net, window):
    """The tables one ``run`` builds: linear grids, a family and its doubling,
    single tilts with custom ones among them."""
    family = two_slope_family((-2.0, 2.0), (-2.0, 2.0), 9)
    families = [
        linear_family(-2.0, 2.0, 11),
        family,
        family.doubled(),
        linear_family(-4.0, 4.0, 23),
        explicit_family([TiltFunction.linear(0.5), q_bump_tilt(2), TiltFunction.linear(0.0)]),
    ]
    return [lambda_family_table(net, f, window, tol=1.0) for f in families]


def small_iid_net():
    # iid laws differ in atom count from sample to sample; a fresh net holds
    # no window yet
    return ldpkit.iid_mean_example_net(ldpkit.bernoulli_half_base(), 400)


class TestWindowSums:
    @pytest.mark.parametrize("block", [1, 7, None])
    @given(
        measures=st.lists(finite_measures(), min_size=1, max_size=3),
        order=st.lists(st.integers(0, 2), min_size=2, max_size=7),
        requests=st.lists(
            st.tuples(st.sampled_from([0, 1]), st.lists(SIGNED_SLOPES, max_size=9)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_sums_equal_the_one_sample_kernel(self, block, measures, order, requests):
        # samples repeat measures, so groups of equal atom count form beside
        # singletons; a side may have no atoms; requests overlap in any order
        net = ScaledMeasureNet(
            t_of=lambda k: 0.3 / k,
            measure_of=lambda k: measures[order[k - 1] % len(measures)],
            max_index=len(order),
        )
        window = WindowSpec(1, len(order), len(order))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(free_energy, "_BLOCK_TERMS", block)
            sums = free_energy.window_of(net, window)
            for side, slopes in requests:
                slopes = np.array(slopes, dtype=float)
                got = sums.slope_sums(side, slopes)
                assert got.shape == (len(sums.ts), slopes.size)
                for j, k in enumerate(window.indices(net)):
                    m = net.measure(int(k))
                    part = (m.locations <= 0.0) == (side == 0)
                    want = slope_log_sums(
                        slopes, m.locations[part], m.log_masses[part], sums.ts[j]
                    )
                    assert got[j].tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_table_rows_keep_the_one_sample_bits(self, block, monkeypatch):
        # linear, two-slope and custom members: each row is t * logaddexp of
        # the side sums, and a custom s*x is the sum over all atoms at slope s
        rng = np.random.default_rng(3)
        measures = [
            FiniteSupportMeasure(
                np.sort(rng.uniform(-3.0, 3.0, size)), rng.uniform(-40.0, -3.0, size)
            )
            for size in (9, 9, 14)
        ]
        net = ScaledMeasureNet(lambda k: 0.3 / k, lambda k: measures[k % 3], max_index=6)
        window = WindowSpec(1, 6, 6)
        if block is not None:
            monkeypatch.setattr(free_energy, "_BLOCK_TERMS", block)
        custom = [-1.5, 0.0, 2.5]
        family = family_union(
            linear_family(-2.0, 2.0, 5),
            two_slope_family((-3.0, 1.0), (-1.0, 3.0), 3),
            explicit_family(
                [TiltFunction.custom(f"x{s}", lambda xs, s=s: s * xs) for s in custom]
            ),
        )
        table = lambda_family_table(net, family, window, tol=1.0)
        for j, k in enumerate(window.indices(net)):
            m, t = net.measure(int(k)), table.ts[j]
            left = m.locations <= 0.0
            a = slope_log_sums(family.lam[:-3], m.locations[left], m.log_masses[left], t)
            b = slope_log_sums(family.nu[:-3], m.locations[~left], m.log_masses[~left], t)
            c = slope_log_sums(np.array(custom), m.locations, m.log_masses, t)
            want = np.concatenate((t * np.logaddexp(a, b), t * c))
            assert table.rows[j].tobytes() == want.tobytes()

    def test_store_is_shared_and_dies_with_the_net(self):
        net = small_iid_net()
        spec = WindowSpec(100, 400, 6)
        window = free_energy.window_of(net, spec)
        assert free_energy.window_of(net, spec) is window
        other = free_energy.window_of(net, WindowSpec(100, 400, 5))
        assert other is not window
        assert net.windows == {spec: window, WindowSpec(100, 400, 5): other}
        refs = [weakref.ref(net), weakref.ref(window)]
        del net, window, other
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_side_groups_wait_for_a_slope_sum(self, kernel_calls):
        net = small_iid_net()
        window = free_energy.window_of(net, WindowSpec(100, 400, 6))
        window.powered([0.0], [1.0])
        assert window._sides is None  # a rate-only window stacks no sides
        # one kernel call per atom count, with each distinct measure a row once
        sizes = [net.measure(int(k)).locations.size for k in WindowSpec(100, 400, 6).indices(net)]
        assert sorted(call.log_masses.shape for call in kernel_calls) == sorted(
            (sizes.count(n), n) for n in set(sizes)
        )
        lambda_family_table(net, linear_family(-1.0, 1.0, 3), WindowSpec(100, 400, 6), tol=1.0)
        assert window._sides is not None

    def test_custom_tilt_is_evaluated_once_per_table(self):
        calls = []

        def fn(xs):
            calls.append(xs.size)
            return np.abs(xs)

        net = small_iid_net()
        window = WindowSpec(100, 400, 6)
        family = explicit_family([TiltFunction.custom("abs", fn), TiltFunction.linear(1.0)])
        table = lambda_family_table(net, family, window, tol=1.0)
        atoms = [net.measure(int(k)).locations.size for k in window.indices(net)]
        assert calls == [sum(atoms)]
        np.testing.assert_array_equal(table.rows[:, 0], table.rows[:, 1])  # |x| = x on [0, 1]

    def test_every_slope_is_summed_once_per_op(self, monkeypatch):
        net = small_iid_net()
        window = WindowSpec(100, 400, 6)
        rows = count_summed_rows(monkeypatch)
        all_tables(net, window)
        family = two_slope_family((-2.0, 2.0), (-2.0, 2.0), 9)
        table = lambda_family_table(net, family, window, tol=1.0)
        stable_abstract_lf(net, family, table, np.linspace(0.1, 0.9, 5), window, tol=1.0)
        # the minimum: each distinct slope once per side and sample, plus
        # one row per sample for each custom tilt (qn:2 here, in one table);
        # rows, not terms, since a concave side sums only part of each row
        lam, nu = set(), set()
        for f in (family.doubled(), linear_family(-2.0, 2.0, 11), linear_family(-4.0, 4.0, 23)):
            lam.update(f.lam.tolist())
            nu.update(f.nu.tolist())
        lam.update([0.5, 0.0])
        nu.update([0.5, 0.0])
        want = 0
        for k in window.indices(net):
            locs = net.measure(int(k)).locations
            left = int(np.count_nonzero(locs <= 0.0))
            want += len(lam) * (left > 0) + len(nu) * (locs.size > left) + 1
        assert rows[0] == want


def one_sample_sums(slopes, t, locs, logm):
    """``_slope_log_sums`` over a group of one sample."""
    return free_energy._slope_log_sums(slopes, np.array([t]), locs[None], logm[None])[:, 0]


def record_kernel_calls(monkeypatch) -> list[tuple[int, int, bool]]:
    """Patch the row kernel to record ``(rows, terms, pruned)`` per call."""
    calls = []
    kernel = free_energy._log_sum_exp_rows

    def recording(x, zeros=None, at=0):
        calls.append((x.shape[0], x.size, zeros is not None))
        return kernel(x, zeros, at)

    monkeypatch.setattr(free_energy, "_log_sum_exp_rows", recording)
    return calls


def assert_sums_equal_the_oracle(slopes, t, locs, logm, calls=None):
    """The oracle's bits and warnings; ``calls`` keeps only the program's."""
    want = bits_and_warnings(lambda s: slope_log_sums(s, locs, logm, t), slopes)
    if calls is not None:
        calls.clear()
    assert bits_and_warnings(lambda s: one_sample_sums(s, t, locs, logm), slopes) == want


def cramer_slopes() -> np.ndarray:
    """The distinct slopes a cramer run sums: its lambda grid, its family
    doubled, and its varadhan tilts."""
    family = two_slope_family((-4.0, 4.0), (-4.0, 4.0), 41).doubled()
    tilts = [1.0, -1.0, 2.0, -2.0, 0.5, 0.0, 1.5, 0.3]
    return np.unique(np.concatenate([linear_family(-4.0, 4.0, 255).lam, family.lam, family.nu, tilts]))


def binomial_side(n: int) -> FiniteSupportMeasure:
    """The iid Bernoulli(1/2) mean law of ``n`` draws, without its atom at 0."""
    m = ldpkit.measures._iid_mean_law(ldpkit.bernoulli_half_base().normalized(), n)
    return FiniteSupportMeasure(m.locations[1:], m.log_masses[1:])


@st.composite
def concave_measures(draw):
    """3 to 300 atoms whose chord slopes strictly decrease."""
    size = draw(st.integers(3, 300))
    scale = draw(st.sampled_from([1e-3, 3e-2, 1.0]))  # flat to steep
    chords = scale * np.array(draw(st.lists(st.integers(-3000, 3000), min_size=size - 1,
                                            max_size=size - 1, unique=True)))
    gaps = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=size - 1, max_size=size - 1)))
    locs = np.concatenate(([0.0], np.cumsum(gaps))) + draw(st.floats(-300.0, 300.0))
    logm = np.concatenate(([0.0], np.cumsum(np.sort(chords)[::-1] * gaps)))
    return locs, logm - logsumexp(logm)


class TestRunLogSums:
    """A concave side sums only the run of terms near each slope's peak, with
    the bits and warnings of the whole-row oracle ``slope_log_sums``."""

    def test_iid_laws_over_cramers_slopes(self, monkeypatch):
        net = ldpkit.iid_mean_example_net(ldpkit.bernoulli_half_base(), 8192)
        spec = WindowSpec(4096, 8192, 2)
        window = free_energy.window_of(net, spec)
        slopes = cramer_slopes()
        calls = record_kernel_calls(monkeypatch)
        got = [bits_and_warnings(lambda s: window.slope_sums(side, s), slopes) for side in (0, 1)]
        calls = calls.copy()  # the oracle below calls the kernel too
        for side in (0, 1):
            want = []
            for j, k in enumerate(spec.indices(net)):
                m = net.measure(int(k))
                part = (m.locations <= 0.0) == (side == 0)
                want.append(slope_log_sums(slopes, m.locations[part], m.log_masses[part],
                                           window.ts[j]))
            assert got[side] == (np.array(want).tobytes(), [])
        # the one atom at x = 0 is summed whole; the 4,096 + 8,192 others in
        # runs, each row once, with under a third of the terms
        assert spec.indices(net).tolist() == [4096, 8192]
        assert sum(rows for rows, _, pruned in calls if not pruned) == 2 * slopes.size
        assert sum(rows for rows, _, pruned in calls if pruned) == 2 * slopes.size
        terms = sum(size for _, size, pruned in calls if pruned)
        assert terms < (4096 + 8192) * slopes.size / 3

    @pytest.mark.parametrize("bump", [None, 500, 1])
    def test_a_non_concave_side_keeps_whole_rows(self, bump, monkeypatch):
        # a binomial law with one chord slope out of order is not concave,
        # and nor is a lattice with random masses
        m = binomial_side(1000)
        locs, logm = m.locations, m.log_masses.copy()
        if bump is None:
            logm = np.random.default_rng(1).uniform(-80.0, -8.0, locs.size)
        else:
            logm[bump] -= 1.0
        calls = record_kernel_calls(monkeypatch)
        assert_sums_equal_the_oracle(cramer_slopes(), 1e-3, locs, logm, calls)
        assert calls and not any(pruned for _, _, pruned in calls)

    @pytest.mark.parametrize("atoms", [1, 2])
    def test_one_and_two_atom_sides_keep_whole_rows(self, atoms, monkeypatch):
        locs, logm = np.array([0.25, 0.5][:atoms]), np.log([0.4, 0.6][:atoms])
        calls = record_kernel_calls(monkeypatch)
        assert_sums_equal_the_oracle(cramer_slopes(), 1e-4, locs, logm, calls)
        assert calls and not any(pruned for _, _, pruned in calls)

    def test_max_slope_rows_keep_whole_rows(self, monkeypatch):
        # s * x / t reaches 4e103, far past the reach where a run is sound:
        # the sample keeps whole rows for every slope of the request
        m = binomial_side(4096)
        calls = record_kernel_calls(monkeypatch)
        for slopes, pruned in (([-MAX_SLOPE, -1.0, MAX_SLOPE, 1.0], False), ([-1.0, 1.0], True)):
            assert_sums_equal_the_oracle(np.array(slopes), 1 / 4096, m.locations, m.log_masses,
                                         calls)
            assert [p for _, _, p in calls] == [pruned]

    def test_overflowing_peak_search_keeps_its_bits(self, monkeypatch):
        # s / t overflows where s * x / t does not, at atoms below 1e-298:
        # the run is found all the same, and no warning is raised
        m = binomial_side(64)
        calls = record_kernel_calls(monkeypatch)
        assert_sums_equal_the_oracle(np.array([-1e300, 1e300]), 1e-10, m.locations * 1e-300,
                                     m.log_masses, calls)
        assert [p for _, _, p in calls] == [True]

    def test_subnormal_band_terms_keep_their_last_bits(self, monkeypatch):
        # the peak at x = 0 stands 726.8 above its two neighbours, whose
        # terms stay in exp's subnormal band [-745.13, -708.4] at every slope
        # here, and are all the sum holds
        locs = np.arange(2000.0) - 1000.0
        logm = -726.8 * np.abs(locs) - 1e-3 * locs * locs
        slopes = np.linspace(-18.0, 18.0, 145)
        calls = record_kernel_calls(monkeypatch)
        assert_sums_equal_the_oracle(slopes, 1.0, locs, logm, calls)
        assert all(pruned for _, _, pruned in calls)
        got = one_sample_sums(slopes, 1.0, locs, logm)
        assert np.all((got > 0.0) & (got < 2 * np.exp(-708.4)))

    @pytest.mark.parametrize("curve", [1e-3, 1e-2])
    @pytest.mark.parametrize("t", [1.0, 0.1])
    def test_wide_runs_keep_the_pairwise_sum(self, curve, t, monkeypatch):
        # thousands of comparable terms, and sums near log 1 = 0 at slope 0:
        # the last bits depend on the order in which the whole rows are added
        d = np.arange(3000.0) - 1300.0
        logm = -curve * d * d
        logm -= logsumexp(logm)
        calls = record_kernel_calls(monkeypatch)
        assert_sums_equal_the_oracle(np.linspace(-2.0, 2.0, 41), t, d / 100.0, logm, calls)
        assert all(pruned for _, _, pruned in calls)
        assert sum(size for _, size, _ in calls) < 41 * 3000 * 0.8

    @given(concave_measures(), st.lists(SIGNED_SLOPES, min_size=1, max_size=30),
           st.floats(1e-3, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_concave_measures_keep_their_bits(self, measure, slopes, t):
        # one row per block, so each row computes its own run and no wider
        locs, logm = measure
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(free_energy, "_BLOCK_TERMS", 1)
            assert_sums_equal_the_oracle(np.array(slopes) * 500.0, t, locs, logm)


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
