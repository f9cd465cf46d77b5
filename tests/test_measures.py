import functools
import math
from decimal import Decimal, localcontext
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import ldpkit
from ldpkit import pipeline
from ldpkit.extreal import NEG_INF
from ldpkit.measures import (
    FiniteSupportMeasure,
    Interval,
    RegionSet,
    ScaledMeasureNet,
    _iid_mean_law,
    _merge_atoms,
    log_masses_in,
)
from ldpkit.scenario import load_scenario
from ldpkit.tilts import TiltFunction

import oracles
from oracles import bernoulli_half, exp_power_integral, log_mass_in, region_power_mass

COIN = FiniteSupportMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
H1 = TiltFunction.linear(1.0)
H0 = TiltFunction.linear(0.0)


class TestFiniteSupportMeasure:
    def test_atoms_sorted_and_merged(self):
        m = FiniteSupportMeasure.from_atoms([(1.0, 0.25), (-1.0, 0.25), (1.0 + 1e-13, 0.25)])
        assert np.allclose(m.locations, [-1.0, 1.0])
        assert np.allclose(np.exp(m.log_masses), [0.25, 0.5])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            FiniteSupportMeasure.from_atoms([(0.0, 0.0)])

    def test_rejects_super_probability(self):
        with pytest.raises(ValueError, match="total mass"):
            FiniteSupportMeasure.from_atoms([(0.0, 0.7), (1.0, 0.7)])

    @pytest.mark.parametrize("excess, accepted", [(0.5e-9, True), (2e-9, False)])
    def test_total_mass_slack(self, excess, accepted):
        # the bound is exp(log1p(MASS_SLACK)); spread over many atoms, the
        # check must still see the sum
        n = 1000
        logm = np.full(n, math.log1p(excess) - math.log(n))
        locs = np.arange(n, dtype=float)
        if accepted:
            FiniteSupportMeasure(locs, logm)
        else:
            with pytest.raises(ValueError, match="total mass"):
                FiniteSupportMeasure(locs, logm)

    @pytest.mark.parametrize("locs", [
        [math.nan, 1.0], [0.0, math.nan], [-math.inf, 1.0], [0.0, math.inf],
    ], ids=["nan-first", "nan-last", "-inf", "+inf"])
    def test_rejects_non_finite_locations(self, locs):
        with pytest.raises(ValueError, match="locations must be finite and strictly increasing"):
            FiniteSupportMeasure(np.array(locs), np.log([0.5, 0.5]))
        # merging leaves a NaN location in place, so the measure rejects it
        with pytest.raises(ValueError, match="locations must be finite and strictly increasing"):
            FiniteSupportMeasure.from_atoms(zip(locs, [0.5, 0.5]))

    @pytest.mark.parametrize("locs", [[1.0, 1.0], [1.0, 0.0]])
    def test_rejects_unsorted_locations(self, locs):
        with pytest.raises(ValueError, match="locations must be finite and strictly increasing"):
            FiniteSupportMeasure(np.array(locs), np.log([0.5, 0.5]))

    @pytest.mark.parametrize("logm", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_log_masses(self, logm):
        with pytest.raises(ValueError, match="every atom must carry a positive finite mass"):
            FiniteSupportMeasure(np.array([0.0, 1.0]), np.array([-1.0, logm]))

    def test_sub_probability_allowed(self):
        m = FiniteSupportMeasure.from_atoms([(0.0, 0.5)])
        assert math.exp(m.log_total_mass) == pytest.approx(0.5)
        assert not m.is_probability()

    def test_log_atoms_below_linear_underflow(self):
        m = oracles.from_log_atoms([(-5.0, -1e4), (0.0, 0.0)])
        assert m.log_masses[0] == -1e4
        assert np.exp(m.log_masses[0]) == 0.0  # a linear mass underflows, the log mass is exact

    def test_normalized(self):
        m = FiniteSupportMeasure.from_atoms([(0.0, 0.25), (1.0, 0.25)])
        assert m.normalized().log_total_mass == 0.0


class TestExpPowerIntegral:
    def test_coin_slope_one_small_t(self):
        # hand log-sum-exp: 1 + 0.01*log((1+exp(-200))/2)
        assert exp_power_integral(COIN, H1, 0.01) == pytest.approx(
            0.9930685281944005, abs=1e-12
        )

    def test_zero_tilt_probability_measure_is_exact_zero(self):
        assert exp_power_integral(COIN, H0, 0.37) == 0.0

    def test_dirac_half_mass(self):
        m = FiniteSupportMeasure.from_atoms([(0.0, 0.5)])
        assert exp_power_integral(m, H0, 0.5) == pytest.approx(
            -0.34657359027997264, abs=1e-12
        )

    def test_zero_measure_gives_minus_inf(self):
        m = FiniteSupportMeasure.from_atoms([])
        assert exp_power_integral(m, H1, 0.1) == NEG_INF

    def test_tilt_minus_inf_on_support(self):
        dead = TiltFunction.custom("dead", lambda xs: np.full_like(xs, NEG_INF))
        assert exp_power_integral(COIN, dead, 0.1) == NEG_INF

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            exp_power_integral(COIN, H1, 0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50),
                st.floats(1e-6, 0.16),  # six atoms stay below total mass 1
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda p: round(p[0], 6),
        ),
        st.floats(0.01, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, atoms, t):
        m1 = FiniteSupportMeasure.from_atoms(atoms)
        m2 = FiniteSupportMeasure.from_atoms(list(reversed(atoms)))
        v1 = exp_power_integral(m1, H1, t)
        v2 = exp_power_integral(m2, H1, t)
        assert v1 == pytest.approx(v2, abs=1e-12)

    @given(st.floats(-5, 5), st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_constant_tilt_gives_c_plus_t_log_mass(self, c, t):
        m = FiniteSupportMeasure.from_atoms([(-2.0, 0.3), (0.5, 0.4), (3.0, 0.2)])
        const = TiltFunction.custom("const", lambda xs, c=c: np.full_like(xs, c))
        expected = c + t * m.log_total_mass
        assert exp_power_integral(m, const, t) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_coin_linear_tilt_approaches_abs_slope(self, k):
        t = 10.0 ** (-k)
        for lam in (-2.0, -0.5, 1.0, 3.0):
            v = exp_power_integral(COIN, TiltFunction.linear(lam), t)
            assert abs(v - abs(lam)) <= t * math.log(2.0) + 1e-15

    def test_no_overflow_for_huge_exponents(self):
        # |h(x)/t| up to 1e8: max-shift keeps everything finite
        big = TiltFunction.linear(1e6)
        with np.errstate(over="raise"):
            v = exp_power_integral(COIN, big, 0.01)
        assert np.isfinite(v)


class TestRegionPowerMass:
    def test_coin_closed_interval(self):
        r = RegionSet.closed(0.5, 2.0)
        assert region_power_mass(COIN, r, 0.1) == pytest.approx(
            0.9330329915368074, abs=1e-12
        )

    def test_empty_region(self):
        assert region_power_mass(COIN, RegionSet(()), 0.3) == 0.0

    def test_full_line_probability(self):
        r = RegionSet.closed(-math.inf, math.inf)
        assert region_power_mass(COIN, r, 0.123) == pytest.approx(1.0)

    @given(st.floats(0.01, 3.0), st.floats(-2, 0), st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_region(self, t, lo, hi):
        small = RegionSet.closed(lo, hi)
        large = RegionSet.closed(lo - 1.0, hi + 1.0)
        assert region_power_mass(COIN, small, t) <= region_power_mass(COIN, large, t) + 1e-15


def mask_log_mass(m, region):
    """Oracle: the mask + logsumexp sum that ``log_masses_in`` replaced."""
    mask = region.mask(m.locations)
    return float(logsumexp(m.log_masses[mask])) if mask.any() else NEG_INF


def assert_log_close(got, want):
    # rtol 1e-12; log masses near 0 (nearly all the mass) get 1e-14 absolute
    assert got == want or abs(got - want) <= 1e-12 * abs(want) + 1e-14, (got, want)


@st.composite
def measures(draw):
    """Up to 12 atoms on a half-integer lattice, normalized to total mass 1."""
    locs = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=12, unique=True))
    logm = draw(st.lists(st.floats(-800, 0), min_size=len(locs), max_size=len(locs)))
    logm = np.array(logm) - logsumexp(logm)
    return oracles.from_log_atoms(zip(np.array(locs) / 2.0, logm))


# interval ends: on atoms, between atoms, past every atom, and +-inf
ENDS = st.one_of(
    st.integers(-14, 14).map(lambda i: i / 2.0),
    st.floats(-8, 8),
    st.sampled_from([-math.inf, math.inf]),
)


class TestLogMassesIn:
    @given(measures(), st.lists(st.tuples(ENDS, ENDS, st.booleans(), st.booleans()),
                                min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_mask_oracle(self, m, ends):
        rows = []
        for a, b, lo_open, hi_open in ends:
            lo, hi = min(a, b), max(a, b)
            if lo == hi:  # degenerate [x, x]
                lo_open = hi_open = False
            rows.append((lo, hi, lo_open, hi_open))
        got = m.log_masses_in(*map(np.array, zip(*rows)))
        assert got.shape == (len(rows),)
        for value, row in zip(got, rows):
            assert_log_close(float(value), mask_log_mass(m, RegionSet((Interval(*row),))))

    @given(measures(), st.lists(ENDS, min_size=2, max_size=8, unique=True),
           st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_region_mass_matches_mask_oracle(self, m, cuts, flags):
        cuts = sorted(cuts)
        ivs = tuple(
            Interval(lo, hi, flags[2 * i], flags[2 * i + 1])
            for i, (lo, hi) in enumerate(zip(cuts[0::2], cuts[1::2]))
        )
        region = RegionSet(ivs)
        assert_log_close(log_mass_in(m, region), mask_log_mass(m, region))

    def test_empty_degenerate_and_reversed_intervals(self):
        zero = FiniteSupportMeasure.from_atoms([])
        assert np.all(zero.log_masses_in([-math.inf, 0.0], [math.inf, 1.0]) == NEG_INF)
        got = COIN.log_masses_in([1.0, 0.0, 2.0, 3.0], [-1.0, 0.5, 2.0, math.inf])
        assert np.all(got == NEG_INF)
        # [x, x] holds the atom at x only when both ends are closed
        assert COIN.log_masses_in(1.0, 1.0, False, False) == math.log(0.5)
        assert COIN.log_masses_in(1.0, 1.0) == NEG_INF
        assert log_mass_in(COIN, RegionSet(())) == NEG_INF

    def test_run_past_last_atom(self):
        # (1, 2] starts its run at index n = 2, the padding slot
        got = COIN.log_masses_in([1.0, 0.5], [2.0, 2.0], lo_open=True, hi_open=False)
        assert got.tolist() == [NEG_INF, math.log(0.5)]

    def test_broadcasts(self):
        d = np.array([0.5, 2.0, 4.0])
        got = COIN.log_masses_in(np.array([[-1.0], [0.0]]) - d, np.array([[-1.0], [0.0]]) + d)
        assert got.shape == (2, 3)
        assert got[0].tolist() == [math.log(0.5), math.log(0.5), 0.0]
        assert got[1].tolist() == [NEG_INF, 0.0, 0.0]

    def test_demzei_tiny_outer_atoms_survive(self):
        # k = 30: outer masses exp(-900) beside a centre of mass 1 - 2 exp(-900);
        # prefix sums would give log(S(30.5) - S(29.5)) = log(1 - 1) = -inf
        k = 30
        m = ldpkit.demzei_example_net().measure(k)
        assert m.log_masses.tolist() == [-k**2, math.log1p(-2 * math.exp(-k**2)), -k**2]
        got = m.log_masses_in([k - 0.5, -k - 0.5, -0.5], [k + 0.5, -k + 0.5, k + 0.5])
        assert got.tolist() == [-k**2, -k**2, 0.0]
        outside = RegionSet.complement_of_closed(-1.0, 1.0)
        assert log_mass_in(m, outside) == -k**2 + math.log(2.0)


def reduceat_log_masses_in(m, lo, hi, lo_open=True, hi_open=True):
    """Oracle: the per-atom ``reduceat`` sum that the sparse table replaced."""
    lo, hi, lo_open, hi_open = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), lo_open, hi_open
    )
    find = lambda x, side: np.searchsorted(m.locations, x, side)
    i0 = np.where(lo_open, find(lo, "right"), find(lo, "left"))
    i1 = np.where(hi_open, find(hi, "left"), find(hi, "right"))
    padded = np.append(m.log_masses, NEG_INF)
    runs = np.logaddexp.reduceat(padded, np.stack([i0, i1], axis=-1).ravel())[::2]
    return np.where(i1 > i0, runs.reshape(lo.shape), NEG_INF)


def lattice_measure(n, seed=0):
    """``n`` atoms at 0, 1, ..., n-1 with log-masses spread over [-700, 0]."""
    rng = np.random.default_rng(seed)
    logm = rng.uniform(-700.0, 0.0, n) * rng.uniform(0.0, 1.0, n) ** 4
    return FiniteSupportMeasure(np.arange(float(n)), logm - logsumexp(logm))


def run_bounds(i0, i1):
    """Open interval ends holding exactly the lattice atoms ``i0 .. i1-1``."""
    return np.asarray(i0) - 0.5, np.asarray(i1) - 0.5


def assert_matches_oracles(m, lo, hi, lo_open=True, hi_open=True):
    """Bit for bit the sparse table's masses, and close to the reduceat sums."""
    got = m.log_masses_in(lo, hi, lo_open, hi_open)
    table = oracles.sparse_table_log_masses_in(m, lo, hi, lo_open, hi_open)
    assert got.shape == table.shape
    assert got.view(np.int64).tolist() == table.view(np.int64).tolist()
    want = reduceat_log_masses_in(m, lo, hi, lo_open, hi_open)
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert_log_close(g, w)


class TestSparseTable:
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(-4, 604), st.integers(-4, 604),
                              st.booleans(), st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_reduceat_oracle(self, n, seed, ends):
        # half-integer ends sit on atoms or between them, so the flags matter
        m = lattice_measure(n, seed)
        lo, hi, lo_open, hi_open = map(np.array, zip(*(
            (min(a, b) / 2.0, max(a, b) / 2.0, fa, fb) for a, b, fa, fb in ends
        )))
        assert_matches_oracles(m, lo, hi, lo_open, hi_open)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 77])
    def test_single_atom_runs_are_the_atoms(self, n):
        m = lattice_measure(n)
        x = m.locations
        assert m.log_masses_in(x, x, False, False).tolist() == m.log_masses.tolist()
        assert m.log_masses_in(*run_bounds(np.arange(n), np.arange(1, n + 1))).tolist() \
            == m.log_masses.tolist()

    @pytest.mark.parametrize("n", [2, 37, 300])
    def test_runs_from_index_zero_and_to_n(self, n):
        m = lattice_measure(n, seed=n)
        k = np.arange(n + 1)
        assert_matches_oracles(m, *run_bounds(np.zeros_like(k), k))
        assert_matches_oracles(m, *run_bounds(k, np.full_like(k, n)))
        # the same runs written with infinite ends
        assert_matches_oracles(m, -math.inf, k - 0.5)
        assert_matches_oracles(m, k - 0.5, math.inf)

    def test_runs_across_power_of_two_boundaries(self):
        m = lattice_measure(300, seed=1)
        i0, i1 = [], []
        for b in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            for left in (1, 2, 3, b - 1, b):
                for right in (1, 2, 3, b, 44):
                    if 0 <= b - left and b + right <= 300:
                        i0.append(b - left)
                        i1.append(b + right)
        assert_matches_oracles(m, *run_bounds(i0, i1))

    @pytest.mark.parametrize("n", [1, 2, 4, 64, 256])
    def test_power_of_two_size_every_run(self, n):
        m = lattice_measure(n, seed=n)
        i0, i1 = np.triu_indices(n + 1)
        assert_matches_oracles(m, *run_bounds(i0, i1))

    @pytest.mark.parametrize("n", range(0, 20))
    def test_every_run_of_small_measures(self, n):
        m = lattice_measure(n, seed=n)
        i0, i1 = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
        assert_matches_oracles(m, *run_bounds(i0, i1))

    def test_scans_equal_the_sparse_table_bit_for_bit(self):
        # one call mixes every kind of run: runs across the top midpoint
        # (level 9 of 1000 atoms) and low ones, single atoms, empty runs
        # and infinite ends
        m = lattice_measure(1000, seed=5)
        i0 = [0, 1, 511, 500, 0, 3, 512, 7, 999, 0, 1000, 600, 300]
        i1 = [1000, 999, 513, 1000, 512, 5, 513, 8, 1000, 0, 1000, 600, 700]
        assert oracles.sparse_table(m).shape == (11, 1001)  # row 0, then levels 0..9
        assert_matches_oracles(m, *run_bounds(i0, i1))
        inf = math.inf
        assert_matches_oracles(m, [-inf, -inf, 511.5, -inf, 2.0], [inf, 511.5, inf, -inf, 2.0],
                               [True, True, True, True, False], [True, True, True, True, False])
        # exp(-k**2) outer atoms beside a centre of mass 1 - 2 exp(-k**2),
        # and balls about the centre that reach one, both or neither
        for k in (2, 30, 1000):
            d = ldpkit.demzei_example_net().measure(k)
            x = np.array([-k, -k + 0.5, 0.0, 0.5, k - 0.5, k])
            r = np.array([[0.25], [k - 0.5], [k], [k + 0.5], [inf]])
            assert_matches_oracles(d, x - r, x + r)
            assert_matches_oracles(d, x - r, x + r, False, False)


@st.composite
def stacked_rows(draw):
    """1 to 5 measures of one atom count (0 to 40 atoms), each on its own
    integer lattice, so that one query reaches runs of different levels in
    different rows."""
    n = draw(st.integers(0, 40))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        locs = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True))
        logm = np.array(draw(st.lists(st.floats(-800, 0), min_size=n, max_size=n)))
        if n:
            logm -= logsumexp(logm)
        rows.append(FiniteSupportMeasure(np.array(sorted(locs), dtype=float), logm))
    return rows


# interval ends on the lattice (on atoms or not), between it, and +-inf
LATTICE_ENDS = st.one_of(
    st.integers(-62, 62).map(float),
    st.integers(-124, 124).map(lambda i: i / 2.0),
    st.sampled_from([-math.inf, math.inf]),
)


def assert_rows_match(rows, lo, hi, lo_open=True, hi_open=True):
    """One stacked call, bit for bit each row's one-row call and its sparse table."""
    locs = np.stack([m.locations for m in rows])
    logm = np.stack([m.log_masses for m in rows])
    got = log_masses_in(locs, logm, lo, hi, lo_open, hi_open)
    assert got.shape[0] == len(rows)
    for m, row in zip(rows, got):
        one = m.log_masses_in(lo, hi, lo_open, hi_open)
        table = oracles.sparse_table_log_masses_in(m, lo, hi, lo_open, hi_open)
        assert row.shape == one.shape == table.shape
        assert row.view(np.int64).tolist() == one.view(np.int64).tolist()
        assert row.view(np.int64).tolist() == table.view(np.int64).tolist()


class TestStackedLogMassesIn:
    """The kernel over rows of one atom count against its one-row calls and
    the sparse-table oracle."""

    @given(stacked_rows(), st.lists(st.tuples(LATTICE_ENDS, LATTICE_ENDS, st.booleans(),
                                              st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_one_row_calls_and_the_table(self, rows, ends):
        lo, hi, lo_open, hi_open = map(np.array, zip(*(
            (min(a, b), max(a, b), fa, fb) for a, b, fa, fb in ends
        )))
        assert_rows_match(rows, lo, hi, lo_open, hi_open)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_queries_at_atoms(self, lo_open, hi_open):
        # every pair of atoms of each row as ends, and ends one row's atoms
        # that are not another's
        rows = [lattice_measure(9, seed=1), FiniteSupportMeasure(
            np.arange(0.0, 18.0, 2.0), lattice_measure(9, seed=2).log_masses)]
        x = np.arange(-1.0, 19.0)
        lo, hi = np.meshgrid(x, x)
        keep = lo <= hi
        assert_rows_match(rows, lo[keep], hi[keep], lo_open, hi_open)

    def test_rows_need_different_levels(self):
        # the same ends hold runs [0, 2), [3, 8) and [0, 8) in the three
        # rows (levels 0, 2 and 2), then [1, 2), [4, 8) and [2, 8) (one
        # atom, levels 1 and 2), then [0, 1), [3, 7) and [0, 8)
        rows = [FiniteSupportMeasure(np.arange(8.0) * scale + shift, lattice_measure(8).log_masses)
                for scale, shift in ((4.0, 0.0), (1.0, -3.0), (0.5, 0.0))]
        assert_rows_match(rows, [-0.5, 0.5], [4.5, 6.5], [False, True], [True, False])
        assert_rows_match(rows, -0.5, 3.75)

    def test_demzei_rows(self):
        # exp(-k**2) outer atoms beside a centre of mass 1 - 2 exp(-k**2)
        net = ldpkit.demzei_example_net()
        rows = [net.measure(k) for k in (1, 2, 5, 30, 31, 1000, 10**6)]
        x = np.array([-1000.0, -30.0, -2.0, -1.0, 0.0, 1.0, 2.0, 30.0, 1000.0])
        r = np.array([[0.0], [0.5], [1.0], [29.0], [30.0], [math.inf]])
        for lo_open in (False, True):
            assert_rows_match(rows, x - r, x + r, lo_open, not lo_open)
        got = log_masses_in(np.stack([m.locations for m in rows]),
                            np.stack([m.log_masses for m in rows]), -0.5, 0.5)
        assert got.tolist() == [m.log_masses[1] for m in rows]

    def test_one_atom_rows(self):
        rows = [FiniteSupportMeasure.from_atoms([(float(k), 0.5)]) for k in (-3, 0, 2, 7)]
        x = np.array([-4.0, -3.0, 0.0, 1.0, 2.0, 7.0, 8.0])
        for flags in ((False, False), (True, True), (True, False), (False, True)):
            assert_rows_match(rows, x, x + 2.0, *flags)
            assert_rows_match(rows, -math.inf, x, *flags)
            assert_rows_match(rows, x, math.inf, *flags)

    def test_empty_runs_and_infinite_ends(self):
        rows = [lattice_measure(5, seed=s) for s in range(3)]
        inf = math.inf
        lo = [-inf, -inf, inf, -inf, 10.0, -5.0, 2.5, 2.0]
        hi = [-inf, inf, inf, -1.0, inf, -4.0, 2.5, 2.0]
        assert_rows_match(rows, lo, hi)
        assert_rows_match(rows, lo, hi, False, False)
        assert_rows_match([FiniteSupportMeasure(np.zeros(0), np.zeros(0))] * 2, lo, hi)


class TestRegionSet:
    def test_open_excludes_endpoint(self):
        r = RegionSet.open(-1.0, 1.0)
        assert r.mask(np.array([1.0, 0.999])).tolist() == [False, True]

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError):
            RegionSet((Interval(0, 2), Interval(1, 3)))

    def test_intersect(self):
        a = RegionSet.closed(-1.0, 1.0)
        b = RegionSet.open(0.0, 3.0)
        c = oracles.intersect(a, b)
        assert len(c.intervals) == 1
        iv = c.intervals[0]
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (0.0, 1.0, True, False)

    def test_complement_rays(self):
        r = RegionSet.complement_of_closed(-1.0, 1.0)
        assert r.mask(np.array([5.0, -2.0, 1.0])).tolist() == [True, True, False]


class TestExampleNets:
    def test_coin_at_4(self, coin_net):
        m, t = coin_net.measure(4), coin_net.t(4)
        assert t == 0.25
        assert m.locations.tolist() == [-1.0, 1.0]
        assert np.exp(m.log_masses).tolist() == [0.5, 0.5]

    def test_coin_is_probability(self, coin_net):
        assert math.exp(coin_net.measure(1).log_total_mass) == pytest.approx(1.0)

    def test_coin_schedule_monotone(self, coin_net):
        ts = [coin_net.t(k) for k in range(1, 102)]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_demzei_at_2(self, demzei_net):
        m, t = demzei_net.measure(2), demzei_net.t(2)
        assert t == 0.5
        p = math.exp(-4.0)
        assert np.allclose(m.locations, [-2.0, 0.0, 2.0])
        assert np.exp(m.log_masses)[0] == pytest.approx(p, rel=1e-12)
        assert np.exp(m.log_masses)[1] == pytest.approx(1.0 - 2.0 * p, rel=1e-12)

    def test_demzei_total_mass_one(self, demzei_net):
        for k in (1, 2, 10, 100):
            assert abs(demzei_net.measure(k).log_total_mass) < 1e-12

    def test_demzei_atoms_need_no_sorting_or_merging(self, demzei_net):
        # the build skips from_log_atoms; its atoms are already sorted and
        # at least 1 apart, so the measures keep the same bits
        for k in (1, 2, 3, 30, 31, 1000, 12345, 10**6):
            m = demzei_net.measure(k)
            eps = 1.0 / k
            logp = -1.0 / (eps * eps)
            center = math.log1p(-2.0 * math.exp(logp)) + 0.0
            want = oracles.from_log_atoms(
                [(eps * logp, logp), (0.0, center), (-eps * logp, logp)]
            )
            assert m.locations.tobytes() == want.locations.tobytes()
            assert m.log_masses.tobytes() == want.log_masses.tobytes()

    def test_demzei_default_schedule_diverges(self):
        # eps_k * log p(eps_k) = -k -> -inf under the default schedule
        for k in (1, 5, 50):
            eps = 1.0 / k
            assert eps * (-1.0 / eps**2) == -k

    def test_iid_two_fold_convolution(self, iid_small_net):
        m, t = iid_small_net.measure(2), iid_small_net.t(2)
        assert t == 0.5
        assert np.allclose(m.locations, [0.0, 0.5, 1.0])
        assert np.allclose(np.exp(m.log_masses), [0.25, 0.5, 0.25])

    def test_iid_n_one_is_base(self, iid_small_net):
        m = iid_small_net.measure(1)
        base = bernoulli_half()
        assert np.allclose(m.locations, base.locations)
        assert np.allclose(np.exp(m.log_masses), np.exp(base.log_masses))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_iid_support_size(self, iid_small_net, n):
        assert iid_small_net.measure(n).locations.size == n + 1

    def test_iid_rejects_sub_probability_base(self):
        base = FiniteSupportMeasure.from_atoms([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(ValueError, match="probability"):
            ldpkit.iid_mean_example_net(base, 10)

    @pytest.mark.parametrize("atoms", [
        pytest.param([(0.25, 1.0)], id="dirac"),
        pytest.param([(-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)], id="three-atom"),
    ])
    def test_iid_rejects_a_base_not_of_two_atoms(self, atoms):
        base = FiniteSupportMeasure.from_atoms(atoms)
        want = f"^iid mean net needs a base of two atoms, not {len(atoms)}$"
        with pytest.raises(ValueError, match=want):
            ldpkit.iid_mean_example_net(base, 10)

    @pytest.mark.parametrize("p", [5e-324, 1 - 2**-53])
    def test_bernoulli_scenarios_at_extreme_p_have_two_atom_bases(self, p, tmp_path):
        # the open interval (0, 1) that load_scenario allows keeps both
        # masses positive, so no scenario reaches the rejection above
        text = resources.files("ldpkit").joinpath("data/scenarios/cramer.cfg").read_text()
        cfg = tmp_path / "cramer.cfg"
        cfg.write_text(text.replace("\np = 0.5\n", f"\np = {p!r}\n"))
        scenario = load_scenario(cfg)
        assert scenario.net_params["p"] == p
        law = pipeline.build_net(scenario).measure(1)
        assert law.locations.tolist() == [0.0, 1.0]
        assert np.exp(law.log_masses) == pytest.approx([1.0 - p, p], rel=1e-12)

    def test_net_index_range_errors(self, coin_net):
        for k in (0, coin_net.max_index + 1):
            with pytest.raises(IndexError):
                coin_net.measure(k)
            with pytest.raises(IndexError):
                coin_net.t(k)

    def test_net_requires_decreasing_t(self):
        with pytest.raises(ValueError, match="decreasing"):
            ScaledMeasureNet(lambda k: 1.0, lambda k: COIN, max_index=10)

    @pytest.mark.parametrize("max_index", [2, 3])
    def test_smallest_nets_require_decreasing_t(self, max_index):
        with pytest.raises(ValueError, match="decreasing"):
            ScaledMeasureNet(lambda k: 1.0, lambda k: COIN, max_index=max_index)
        # decreasing up to max_index - 1, flat at the last index
        flat_end = lambda k: 1.0 / min(k, max_index - 1)
        with pytest.raises(ValueError, match="decreasing"):
            ScaledMeasureNet(flat_end, lambda k: COIN, max_index=max_index)

    @pytest.mark.parametrize("max_index", [2, 3])
    def test_smallest_nets_build(self, max_index):
        for net in (
            ldpkit.coin_example_net(max_index),
            ldpkit.iid_mean_example_net(bernoulli_half(), max_index),
        ):
            assert net.t(max_index) == 1.0 / max_index
            assert net.measure(max_index).locations.size in (2, max_index + 1)
            with pytest.raises(IndexError):
                net.t(max_index + 1)


# a window bound: a float, or an index into the schedule (so bounds hit t values)
T_BOUND = st.one_of(st.floats(1e-4, 2e3), st.integers(0, 39))


class TestIndexRangeForT:
    @given(
        ts=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40, unique=True),
        bounds=st.tuples(T_BOUND, T_BOUND),
    )
    @example(ts=[4.0, 3.0, 2.0, 1.0], bounds=(2.5, 1.5))  # selects k = 3 alone
    @example(ts=[4.0, 3.0, 2.0, 1.0], bounds=(9.0, 5.0))  # above every t
    @example(ts=[4.0, 3.0, 2.0, 1.0], bounds=(0.9, 0.5))  # below every t
    @example(ts=[4.0, 3.0, 2.0, 1.0], bounds=(1, 2))  # ends on t values: k = 2, 3
    @example(ts=[4.0, 3.0], bounds=(5.0, 0.5))  # the whole net
    @settings(max_examples=300, deadline=None)
    def test_bisect_matches_loops(self, ts, bounds):
        ts = sorted(ts, reverse=True)
        net = ScaledMeasureNet(lambda k: ts[k - 1], lambda k: COIN, max_index=len(ts))
        t_max, t_min = (ts[b % len(ts)] if isinstance(b, int) else b for b in bounds)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(net.index_range_for_t, t_max, t_min) == outcome(
            oracles.index_range_for_t, net, t_max, t_min
        )


class RollingIidMeanBuilder:
    """Reference law of the empirical mean: one base convolution per step.

    The rolling n-fold convolution that the iid net used before its law
    became a pure function of n; kept as the oracle for ``_iid_mean_law``.
    """

    def __init__(self, base: FiniteSupportMeasure):
        self.base = base.normalized()
        self._n = 1
        self._sum_locs = self.base.locations.copy()
        self._sum_logm = self.base.log_masses.copy()

    def __call__(self, n: int) -> FiniteSupportMeasure:
        if n < self._n:
            self._n = 1
            self._sum_locs = self.base.locations.copy()
            self._sum_logm = self.base.log_masses.copy()
        while self._n < n:
            locs = (self._sum_locs[:, None] + self.base.locations[None, :]).ravel()
            logm = (self._sum_logm[:, None] + self.base.log_masses[None, :]).ravel()
            self._sum_locs, self._sum_logm = _merge_atoms(locs, logm)
            self._n += 1
        return FiniteSupportMeasure(self._sum_locs / n, self._sum_logm).normalized()


ORACLE_NS = [1, 2, 3, 7, 16, 33, 100]
OFF_LATTICE_PAIR = FiniteSupportMeasure.from_atoms([(-0.3, 0.4), (0.7, 0.6)])


def _assert_same_law(got: FiniteSupportMeasure, want: FiniteSupportMeasure):
    assert got.locations.shape == want.locations.shape
    np.testing.assert_allclose(got.locations, want.locations, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.log_masses, want.log_masses, rtol=1e-12, atol=1e-12)


# the two-atom law's bound against the exact binomial, in units in the last
# place; full sweeps of every k at n = 4096, 8192 and 65536 read at most 8.5
LAW_ULPS = 16


@functools.cache
def exact_log_comb(n: int, k: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(math.comb(n, k)).ln()


def assert_law_within_ulps(p: float, n: int, ks) -> None:
    """``_iid_mean_law`` on the base ``{0: 1-p, 1: p}`` against
    ``ln C(n, k) + k ln p + (n-k) ln q`` at 60 digits, with ``p`` and ``q``
    the exact shares of the base's two masses."""
    base = FiniteSupportMeasure.from_atoms([(0.0, 1.0 - p), (1.0, p)])
    got = _iid_mean_law(base, n).log_masses
    m_a, m_b = (Decimal(float(m)) for m in np.exp(base.log_masses))
    with localcontext() as ctx:
        ctx.prec = 60
        log_p, log_q = ((m / (m_a + m_b)).ln() for m in (m_b, m_a))
        for k in ks:
            want = exact_log_comb(n, k) + k * log_p + (n - k) * log_q
            ulps = abs(Decimal(float(got[k])) - want) / Decimal(math.ulp(float(want)))
            assert ulps <= LAW_ULPS, (n, k, float(ulps))


# 1e-310 is subnormal: n p is too, and k / (n p) overflows
LAW_PS = [0.5, 0.25, 1e-310]


class TestIidMeanLaw:
    @pytest.mark.parametrize("p", LAW_PS)
    def test_two_atom_law_every_k_within_ulps(self, p):
        for n in range(1, 16):
            assert_law_within_ulps(p, n, range(n + 1))

    @pytest.mark.parametrize("p", LAW_PS)
    @pytest.mark.parametrize("n", [4096, 8192, 65536])
    def test_two_atom_law_sampled_k_within_ulps(self, n, p):
        # both ends, their neighbours, the mode and 45 draws; a sweep of
        # every k takes seconds per n
        drawn = np.random.default_rng(n).integers(0, n + 1, 45).tolist()
        assert_law_within_ulps(p, n, sorted({0, 1, int((n + 1) * p), n - 1, n, *drawn}))

    @pytest.mark.parametrize("p", [0.5, 0.3, 1e-3])
    @pytest.mark.parametrize("n", [1, 2, 7, 600, 8192, 16384])
    def test_closed_form_is_the_binomial_law(self, n, p):
        base = FiniteSupportMeasure.from_atoms([(0.0, 1.0 - p), (1.0, p)])
        m = _iid_mean_law(base, n)
        lp, lq = math.log(p), math.log1p(-p)
        want, comb = [], 1
        for k in range(n + 1):
            want.append(math.log(comb) + k * lp + (n - k) * lq)
            comb = comb * (n - k) // (k + 1)
        assert np.array_equal(m.locations, np.arange(n + 1) / n)
        assert np.max(np.abs(m.log_masses - np.array(want))) <= 1e-9

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_two_atom_off_lattice_matches_rolling_oracle(self, n):
        oracle = RollingIidMeanBuilder(OFF_LATTICE_PAIR)
        _assert_same_law(_iid_mean_law(OFF_LATTICE_PAIR, n), oracle(n))

    @pytest.mark.parametrize("base, n", [
        pytest.param(FiniteSupportMeasure.from_atoms([(0.0, 1.0 - p), (1.0, p)]), n,
                     id=f"p={p}-n={n}")
        for p in (0.5, 0.25) for n in (1, 2, 7, 15, 4096, 8192)
    ])
    def test_one_measure_keeps_the_bits_of_normalized(self, base, n, monkeypatch):
        # the law was once built raw and then normalized(); built once from
        # the raw log-masses, it must keep every bit
        raw = []
        log_sum = ldpkit.measures._log_sum
        monkeypatch.setattr(
            "ldpkit.measures._log_sum", lambda logm: raw.append(logm.copy()) or log_sum(logm)
        )
        got = _iid_mean_law(base, n)
        monkeypatch.undo()
        want = FiniteSupportMeasure(got.locations, raw[0]).normalized()
        assert got.log_masses.tobytes() == want.log_masses.tobytes()

    def test_pure_in_n(self):
        base = bernoulli_half()
        first = _iid_mean_law(base, 8192)
        _iid_mean_law(base, 4096)
        again = _iid_mean_law(base, 8192)
        assert first.locations.tobytes() == again.locations.tobytes()
        assert first.log_masses.tobytes() == again.log_masses.tobytes()
        net = ldpkit.iid_mean_example_net(base, 8192)
        for n in (8192, 4096):
            net.measure(n)
        fresh = ldpkit.iid_mean_example_net(base, 8192).measure(8192)
        assert net.measure(8192).log_masses.tobytes() == fresh.log_masses.tobytes()
