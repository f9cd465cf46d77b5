import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpkit.convex import (
    SLOPE_DIVERGENCE,
    DerivativeRange,
    GridFormatError,
    GridFunction,
    brute_force_conjugate,
    chord_slopes,
    conv_lemma_check,
    convex_lsc_hull,
    derivative_range,
    essential_smoothness_check,
    inf_over_open,
    interior_mask,
    lf_transform,
    load_grid_csv,
    save_grid_csv,
)
from ldpkit.convex import _reprs, _runs
from ldpkit.extreal import INF, NEG_INF
from ldpkit.measures import RegionSet

import oracles
from oracles import one_sided_derivatives
from conftest import conjugate_dual_grid, random_convex_grid


def abs_grid(n=61, span=3.0):
    xs = np.linspace(-span, span, n)
    return GridFunction(xs, np.abs(xs), label="abs")


def parabola_grid(n=401, span=5.0):
    xs = np.linspace(-span, span, n)
    return GridFunction(xs, xs**2 / 2, label="parabola")


def flat_with_walls(n=241, wall=1.0, span=3.0):
    # n=241 on [-3,3] puts +-1.0 exactly on the grid
    xs = np.linspace(-span, span, n)
    vals = np.where(np.abs(xs) <= wall, 0.0, INF)
    return GridFunction(xs, vals, label="flat")


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))

    def test_proper(self):
        f = GridFunction(np.array([0.0, 1.0]), np.array([INF, 2.0]))
        assert f.is_proper
        g = GridFunction(np.array([0.0, 1.0]), np.array([NEG_INF, 2.0]))
        assert not g.is_proper

    def test_csv_round_trip(self, tmp_path):
        f = GridFunction(
            np.array([-1.0, 0.0, 2.5]), np.array([INF, 0.3333333333333333, NEG_INF])
        )
        path = tmp_path / "g.csv"
        save_grid_csv(f, path)
        g = load_grid_csv(path)
        assert np.array_equal(g.xs, f.xs)
        assert np.array_equal(g.values, f.values)

    def test_csv_error_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.0,1.0\nbad line\n")
        with pytest.raises(GridFormatError, match=":2"):
            load_grid_csv(path)

    @pytest.mark.parametrize("x", [float("nan"), INF, NEG_INF])
    def test_non_finite_grid_point_rejected(self, x):
        # a NaN abscissa once passed the monotonicity check unseen
        with pytest.raises(ValueError, match="grid points must be finite"):
            GridFunction(np.array([0.0, 1.0, x]), np.zeros(3))

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_csv_non_finite_x_names_line(self, tmp_path, x):
        path = tmp_path / "g.csv"
        path.write_text(f"# x,value\n0.0,1.0\n{x},0.0\n")
        with pytest.raises(GridFormatError, match=f"g.csv:3: grid point x = {x} is not finite"):
            load_grid_csv(path)

    def test_csv_monotone_enforced(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1.0,1.0\n0.5,1.0\n")
        with pytest.raises(GridFormatError, match="increasing"):
            load_grid_csv(path)


# signed zeros, both NaN signs, the infinities and the extreme magnitudes;
# drawn from a short list, they repeat within an array
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, float("nan"), -float("nan"), INF, NEG_INF, 5e-324, -5e-324, 1e308, -1e308]
)


class TestReprs:
    @given(st.lists(st.one_of(EDGE_FLOATS, st.floats()), max_size=40))
    @example([])
    @example([0.0, -0.0, 0.0, float("nan"), -0.0, INF, NEG_INF, 5e-324, 1e308, -1e308, 1e308])
    @settings(max_examples=200, deadline=None)
    def test_equals_repr_of_every_entry(self, values):
        a = np.array(values, dtype=float)
        for arr in (a, a[::2]):  # a strided view too
            assert _reprs(arr) == list(map(repr, arr.tolist()))
            assert _reprs(arr, scalars=True) == list(map(repr, arr))


class TestLfTransform:
    def test_abs_conjugate_zero_inside(self):
        f = abs_grid()
        dual = np.linspace(-2, 2, 81)
        star = lf_transform(f, dual)
        inside = np.abs(dual) <= 1.0
        assert np.max(np.abs(star.values[inside])) == 0.0
        off = np.array(star.meta["off_slope_range"])
        assert np.array_equal(off, np.abs(dual) > 1.0)

    def test_parabola_self_conjugate(self):
        f = parabola_grid()
        dual = np.linspace(-3, 3, 301)
        star = lf_transform(f, dual)
        step = f.xs[1] - f.xs[0]
        assert np.max(np.abs(star.values - dual**2 / 2)) <= step**2

    def test_matches_brute_force_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_convex_grid(rng, n=300, inf_tails=True)
            dual = conjugate_dual_grid(f)
            a = lf_transform(f, dual)
            b = brute_force_conjugate(f, dual)
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_output_convex_and_lsc(self):
        rng = np.random.default_rng(11)
        f = random_convex_grid(rng, n=200)
        star = lf_transform(f, conjugate_dual_grid(f))
        s = chord_slopes(star)
        assert np.all(np.diff(s) >= -1e-9)

    def test_improper_rejected(self):
        f = GridFunction(np.array([0.0, 1.0]), np.array([NEG_INF, 1.0]))
        with pytest.raises(ValueError, match="improper"):
            lf_transform(f, np.array([0.0, 1.0]))

    def test_order_reversal(self):
        rng = np.random.default_rng(3)
        f = random_convex_grid(rng, n=150)
        g = GridFunction(f.xs, f.values + rng.uniform(0.0, 1.0, f.xs.size))
        dual = conjugate_dual_grid(f)
        fstar = lf_transform(f, dual)
        gstar = brute_force_conjugate(g, dual)
        assert np.all(gstar.values <= fstar.values + 1e-12)


class TestBruteForce:
    def test_single_finite_point_gives_line(self):
        xs = np.linspace(-2, 2, 5)
        vals = np.full(5, INF)
        vals[3] = 0.5  # atom at x = 1
        f = GridFunction(xs, vals)
        dual = np.linspace(-1, 1, 9)
        star = brute_force_conjugate(f, dual)
        assert np.allclose(star.values, dual * 1.0 - 0.5)

    def test_zero_on_interval_gives_abs(self):
        xs = np.linspace(-1, 1, 201)
        f = GridFunction(xs, np.zeros_like(xs))
        dual = np.linspace(-3, 3, 121)
        star = brute_force_conjugate(f, dual)
        assert np.max(np.abs(star.values - np.abs(dual))) <= 1e-12


class TestHull:
    def test_convex_input_is_fixpoint(self):
        rng = np.random.default_rng(5)
        f = random_convex_grid(rng, n=100)
        h = convex_lsc_hull(f)
        assert np.max(np.abs(h.values - f.values)) <= 1e-9

    def test_two_vee_example(self):
        f = GridFunction(
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        )
        h = convex_lsc_hull(f)
        assert np.allclose(h.values, [1.0, 0.0, 0.0, 0.0, 1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hull_below_input(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-5, 5, 40))
        xs = xs + np.arange(40) * 1e-6  # make strictly increasing
        vals = rng.uniform(-3, 3, 40)
        f = GridFunction(xs, vals)
        h = convex_lsc_hull(f)
        assert np.all(h.values <= f.values + 1e-12)

    def test_fenchel_moreau_biconjugate(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            f = random_convex_grid(rng, n=200, inf_tails=True)
            dual = conjugate_dual_grid(f)
            star = lf_transform(f, dual)
            bistar = lf_transform(star, f.xs)
            hull = convex_lsc_hull(f)
            inner = np.isfinite(hull.values)
            inner[0] = inner[-1] = False
            assert np.max(np.abs(bistar.values[inner] - hull.values[inner])) <= 1e-8


class TestDerivatives:
    def test_abs_kink(self):
        f = abs_grid()
        assert one_sided_derivatives(f, 30) == (-1.0, 1.0)

    def test_parabola_interior(self):
        f = parabola_grid(101, 5.0)
        i = 60
        left, right = one_sided_derivatives(f, i)
        x = f.xs[i]
        step = f.xs[1] - f.xs[0]
        assert abs(left - x) <= step and abs(right - x) <= step
        assert left <= right

    def test_domain_edges(self):
        f = flat_with_walls()
        idx = np.flatnonzero(np.isfinite(f.values))
        # right endpoint of [-1, 1]: slope 0 from inside, +inf off the domain
        assert one_sided_derivatives(f, idx[-1]) == (0.0, INF)
        assert one_sided_derivatives(f, idx[0]) == (NEG_INF, 0.0)
        g = abs_grid()
        assert one_sided_derivatives(g, 0)[0] == NEG_INF
        assert one_sided_derivatives(g, g.xs.size - 1)[1] == INF

    def test_infinite_value_rejected(self):
        f = flat_with_walls()
        with pytest.raises(ValueError, match="finite"):
            one_sided_derivatives(f, 0)

    def test_one_sided_monotone_for_convex(self):
        rng = np.random.default_rng(17)
        f = random_convex_grid(rng, n=60)
        pairs = [one_sided_derivatives(f, i) for i in range(1, f.xs.size - 1)]
        for (l1, r1), (l2, r2) in zip(pairs, pairs[1:]):
            assert l1 <= r1 + 1e-12
            assert r1 <= l2 + 1e-12


def loop_distance(rng: DerivativeRange, x: float) -> float:
    """Oracle: :meth:`DerivativeRange.distance` component by component."""
    best = INF
    for lo, hi in rng.components:
        if lo <= x <= hi:
            return 0.0
        best = min(best, abs(x - lo), abs(x - hi))
    return best


class TestDerivativeRange:
    def test_array_queries_equal_the_component_loop(self):
        # bounds and queries on a 1/8 lattice, so queries hit bounds, ties
        # between two bounds are exact, and single-point components occur
        gen = np.random.default_rng(5)
        for _ in range(3000):
            ends = np.sort(gen.choice(np.arange(-40, 41), 2 * gen.integers(0, 6), replace=False))
            pairs = ends.reshape(-1, 2) / 4.0
            points = gen.random(len(pairs)) < 0.3
            pairs[points, 1] = pairs[points, 0]
            rng = DerivativeRange(tuple(map(tuple, pairs.tolist())), 0.0)
            xs = np.concatenate([gen.integers(-96, 97, 20) / 8.0, [INF, NEG_INF], pairs.ravel()])
            slack = gen.choice([0.0, 0.125, 0.25, 1.0], xs.size)
            want = [loop_distance(rng, x) for x in xs.tolist()]
            assert rng.distance(xs).tolist() == want
            assert rng.covers(xs, slack).tolist() == [d <= c for d, c in zip(want, slack)]
            assert [rng.distance(x) for x in xs.tolist()] == want

    def test_abs_two_points(self):
        rng = derivative_range(abs_grid(), (-2, 2))
        assert len(rng.components) == 2
        assert rng.covers(-1.0, 1e-9) and rng.covers(1.0, 1e-9)
        assert not rng.covers(0.0, 0.5)

    def test_flat_single_point(self):
        xs = np.linspace(-1, 1, 21)
        f = GridFunction(xs, np.zeros_like(xs))
        rng = derivative_range(f, (-1, 1))
        assert rng.components == ((0.0, 0.0),)

    def test_parabola_fills_interval(self):
        rng = derivative_range(parabola_grid(), (-1, 1))
        assert len(rng.components) == 1
        lo, hi = rng.components[0]
        assert lo == pytest.approx(-1.0, abs=0.05)
        assert hi == pytest.approx(1.0, abs=0.05)

    def test_range_inside_slope_envelope(self):
        rng_src = np.random.default_rng(23)
        f = random_convex_grid(rng_src, n=80)
        s = chord_slopes(f)
        dr = derivative_range(f, (f.xs[0], f.xs[-1]))
        lo, hi = dr.components[0][0], dr.components[-1][1]
        assert lo >= s.min() - 1e-12 and hi <= s.max() + 1e-12

    def test_misses_grid(self):
        with pytest.raises(ValueError, match="misses"):
            derivative_range(abs_grid(), (10.0, 11.0))


class TestDomains:
    def test_coin_conjugate_style_domains(self):
        xs = np.linspace(-2, 2, 41)
        f = GridFunction(xs, np.where(np.isclose(np.abs(xs), 1.0), 0.0, INF))
        runs = _runs(f.finite_mask)
        assert f.xs[runs].tolist() == [[-1.0, -1.0], [1.0, 1.0]]
        assert not interior_mask(f.finite_mask).any()

    def test_single_point_domain(self):
        vals = np.full(11, INF)
        vals[4] = 2.0
        f = GridFunction(np.linspace(0, 1, 11), vals)
        assert _runs(f.finite_mask).tolist() == [[4, 4]]
        assert not interior_mask(f.finite_mask).any()

    def test_full_grid(self):
        f = parabola_grid(11, 1.0)
        assert _runs(f.finite_mask).tolist() == [[0, 10]]
        inner = interior_mask(f.finite_mask)
        assert inner.tolist() == [False] + [True] * 9 + [False]

    @given(st.lists(st.booleans(), max_size=40))
    @example([])
    @example([False])
    @example([True])
    @example([False] * 6)
    @example([True] * 6)
    @example([True, False] * 4)
    @example([False, True] * 4 + [False])
    @settings(max_examples=300, deadline=None)
    def test_run_finder_matches_loops(self, mask):
        mask = np.array(mask, dtype=bool)
        assert [tuple(r) for r in _runs(mask).tolist()] == oracles.finite_runs(mask)
        assert interior_mask(mask).tolist() == oracles.interior_mask(mask).tolist()


class TestEssentialSmoothness:
    def test_abs_fails_with_kink_witness(self):
        ok, diag = essential_smoothness_check(abs_grid())
        assert not ok
        assert diag["kink_points"][0]["x"] == 0.0

    def test_parabola_holds(self):
        ok, diag = essential_smoothness_check(parabola_grid())
        assert ok and not diag["kink_points"] and not diag["boundary_failures"]

    def test_flat_with_walls_fails_at_boundary(self):
        ok, diag = essential_smoothness_check(flat_with_walls())
        assert not ok
        assert diag["witnessed_boundaries"] == [-1.0, 1.0]
        assert diag["boundary_failures"]

    def test_steep_walls_pass(self):
        # c x^2 / 2 on [-1, 1]: the boundary chords have slope c (1 - h/2)
        xs = np.linspace(-2, 2, 401)
        for scale, smooth in ((1e-6, False), (1.0, False), (2.0, True)):
            c = scale * SLOPE_DIVERGENCE
            f = GridFunction(xs, np.where(np.abs(xs) <= 1.0, c * xs**2 / 2, INF))
            ok, diag = essential_smoothness_check(f)
            assert ok == smooth
            assert not diag["kink_points"]
            assert len(diag["boundary_failures"]) == (0 if smooth else 2)


class TestInfOverOpen:
    def test_abs_over_interval(self):
        assert inf_over_open(abs_grid(), RegionSet.open(0.5, 3.0)) == 0.5

    def test_boundary_limit_from_inside(self):
        f = flat_with_walls(wall=1.0)
        # region just past the domain edge: the limit at 1 from inside counts
        val = inf_over_open(f, RegionSet.open(1.0 - 1e-9, 2.0))
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_disjoint_region_gives_plus_inf(self):
        f = flat_with_walls(wall=1.0)
        assert inf_over_open(f, RegionSet.open(2.0, 3.0)) == INF

    def test_touch_point_excluded_for_open_region(self):
        f = flat_with_walls(wall=1.0)
        assert inf_over_open(f, RegionSet.open(1.0, 2.0)) == INF
        assert inf_over_open(f, RegionSet.closed(1.0, 2.0)) == 0.0

    def test_conv_lemma_examples(self):
        f = abs_grid()
        ok, lhs, rhs = conv_lemma_check(f, RegionSet.open(0.5, 3.0))
        assert ok and lhs == rhs == 0.5
        flat = flat_with_walls()
        ok, lhs, rhs = conv_lemma_check(flat, RegionSet.open(1.0 - 1e-6, 2.0))
        assert ok and lhs == rhs
        ok, lhs, rhs = conv_lemma_check(flat, RegionSet.open(1.5, 2.0))
        assert ok and lhs == INF and rhs == INF

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conv_lemma_random(self, seed):
        rng = np.random.default_rng(seed)
        f = random_convex_grid(rng, n=80, inf_tails=True)
        lo = rng.uniform(f.xs[0] - 2, f.xs[-1] + 1)
        hi = lo + rng.uniform(0.1, 4.0)
        ok, lhs, rhs = conv_lemma_check(f, RegionSet.open(lo, hi), tol=1e-9)
        assert ok
