import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpkit.scenario import ScenarioError, parse_tilt_label
from ldpkit.tilts import (
    TiltFamily,
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    q_bump_tilt,
    qn_family,
    two_slope_family,
)


def test_linear_family_interior_spacing():
    fam = linear_family(-1.0, 1.0, 3)
    assert [m.lam for m in fam.members] == [-0.5, 0.0, 0.5]


def test_linear_family_resolution_two():
    fam = linear_family(0.0, 1.0, 2)
    assert np.allclose([m.lam for m in fam.members], [1 / 3, 2 / 3])


def test_linear_family_members_are_linear():
    fam = linear_family(-2.0, 5.0, 7)
    assert all(m.kind == "linear" for m in fam.members)


def test_linear_family_rejects_empty_interval():
    with pytest.raises(ValueError):
        linear_family(1.0, 1.0, 5)


def test_two_slope_family_grid_count():
    fam = two_slope_family((-2, 2), (-2, 2), 5)
    assert len(fam) == 25


def test_two_slope_diagonal_acts_linear():
    member = TiltFunction.two_slope(1.0, 1.0)
    xs = np.linspace(-3, 3, 13)
    assert np.array_equal(member.eval_array(xs), TiltFunction.linear(1.0).eval_array(xs))


def test_two_slope_piecewise_values():
    member = TiltFunction.two_slope(-1.0, 2.0)
    assert member.eval_array([-3.0, 2.0, 0.0]).tolist() == [3.0, 4.0, 0.0]


def test_qn_values():
    assert q_bump_tilt(2).eval_array([0.0]).tolist() == [0.0]
    assert q_bump_tilt(1).eval_array([1.0]) == pytest.approx([math.exp(-1) - 1], abs=1e-14)
    assert q_bump_tilt(3).eval_array([-1.0]) == pytest.approx([3 * math.exp(-1) + 1], abs=1e-14)


def test_qn_family_members():
    fam = qn_family(4)
    assert [m.label for m in fam.members] == ["qn:1", "qn:2", "qn:3", "qn:4"]


def test_parse_tilt_labels_qn_and_unknown():
    xs = np.linspace(-6.0, 6.0, 49)
    tilt = parse_tilt_label("qn:7")
    assert np.array_equal(tilt.eval_array(xs), q_bump_tilt(7).eval_array(xs))
    with pytest.raises(ScenarioError):
        parse_tilt_label("nope:1")


def test_custom_tilt_must_not_return_plus_inf():
    bad = TiltFunction.custom("bad", lambda xs: np.full_like(xs, np.inf))
    with pytest.raises(ValueError, match="inf"):
        bad.eval_array(np.array([0.0]))


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(1e-8, 1e-3))
@settings(max_examples=80, deadline=None)
def test_two_slope_continuous_at_origin(lam, nu, delta):
    member = TiltFunction.two_slope(lam, nu)
    left, right = member.eval_array([-delta, delta])
    gap = abs(left - right)
    assert gap <= (abs(lam) + abs(nu)) * delta + 1e-15


@given(st.floats(-4, 4))
@settings(max_examples=50, deadline=None)
def test_linear_equals_degenerate_two_slope(lam):
    xs = np.linspace(-10, 10, 41)
    a = TiltFunction.linear(lam).eval_array(xs)
    b = TiltFunction.two_slope(lam, lam).eval_array(xs)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "family",
    [
        linear_family(-2, 2, 9),
        two_slope_family((-3, 3), (-3, 3), 5),
        qn_family(6),
    ],
)
def test_builtin_tilts_bounded_above_on_compacts(family):
    xs = np.linspace(-50.0, 50.0, 2001)
    for member in family.members:
        assert np.max(member.eval_array(xs)) < np.inf


class TestDoubling:
    def test_linear_doubling_contains_original(self):
        fam = linear_family(-1, 1, 5)
        wide = fam.doubled()
        orig = {m.lam for m in fam.members}
        new = {m.lam for m in wide.members}
        assert orig <= new

    def test_two_slope_doubling_contains_original(self):
        fam = two_slope_family((-2, 2), (-2, 2), 7)
        wide = fam.doubled()
        orig = {(m.lam, m.nu) for m in fam.members}
        new = {(m.lam, m.nu) for m in wide.members}
        assert orig <= new
        assert any(abs(m.lam) > 2 for m in wide.members)

    def test_qn_doubling(self):
        assert len(qn_family(5).doubled()) == 10

    def test_union_doubles_parts(self):
        fam = family_union(qn_family(2), linear_family(-1, 1, 3))
        wide = fam.doubled()
        assert len(wide) == 4 + 7


LABELLED_FAMILIES = {
    "linear": linear_family(-4.0, 4.0, 7),
    "two-slope": two_slope_family((-4.0, 4.0), (-1.0, 3.0), 5),
    "linear doubled": linear_family(-2.0, 2.0, 4).doubled(),
    "two-slope doubled": two_slope_family((-2.0, 2.0), (-2.0, 2.0), 5).doubled(),
    "qn": qn_family(3),
    "union": family_union(qn_family(2), linear_family(-1.0, 1.0, 3)),
    "union doubled": family_union(
        qn_family(2), two_slope_family((-1.0, 1.0), (0.0, 2.0), 3)
    ).doubled(),
    "explicit": explicit_family([
        TiltFunction.linear(0.5),
        TiltFunction.two_slope(-1.0, 2.0),
        q_bump_tilt(4),
        TiltFunction.linear(np.float64(-4.0)),
    ]),
}


class TestSlopeArrays:
    @pytest.mark.parametrize("name", LABELLED_FAMILIES)
    def test_labels_equal_member_labels(self, name):
        family = LABELLED_FAMILIES[name]
        assert family.labels() == [m.label for m in family.members]
        assert len(family) == len(family.members)

    @pytest.mark.parametrize("name", LABELLED_FAMILIES)
    def test_slopes_equal_member_slopes(self, name):
        family = LABELLED_FAMILIES[name]
        want = [
            (np.nan, np.nan) if m.kind == "custom"
            else (m.lam, m.lam if m.nu is None else m.nu)
            for m in family.members
        ]
        np.testing.assert_array_equal(family.lam, [p[0] for p in want])
        np.testing.assert_array_equal(family.nu, [p[1] for p in want])
        assert family.custom == tuple(m for m in family.members if m.kind == "custom")

    def test_labels_keep_the_numpy_scalar_repr(self):
        # the committed goldens pin numpy 2's scalar repr in family labels
        assert linear_family(-5.0, 3.0, 3).labels()[0] == "linear:np.float64(-3.0)"
        assert two_slope_family((-4, 4), (-4, 4), 2).labels()[1] == (
            "two_slope:np.float64(-4.0):np.float64(4.0)"
        )

    def test_signed_zero_slopes_keep_their_reprs(self):
        # -0.0 == 0.0, but the reprs differ: labels key the slopes by bits
        zeros = np.array([0.0, -0.0, 1.0, -0.0])
        fam = TiltFamily("two_slope", zeros, zeros[::-1])
        assert fam.labels() == [m.label for m in fam.members]
        assert fam.labels()[:2] == [
            "two_slope:np.float64(0.0):np.float64(-0.0)",
            "two_slope:np.float64(-0.0):np.float64(1.0)",
        ]
        assert TiltFamily("linear", zeros, zeros).labels() == [
            f"linear:np.float64({z})" for z in ("0.0", "-0.0", "1.0", "-0.0")
        ]

    def test_two_slope_member_order_is_lam_outer(self):
        fam = two_slope_family((-1.0, 1.0), (0.0, 4.0), 3)
        lam_axis, nu_axis = np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 4.0, 3)
        assert [(m.lam, m.nu) for m in fam.members] == [
            (l, n) for l in lam_axis for n in nu_axis
        ]

    def test_slope_arrays_are_read_only(self):
        lambdas = np.array([0.0, 1.0])
        fam = TiltFamily("linear", lambdas, lambdas)
        with pytest.raises(ValueError):
            fam.lam[0] = 5.0
        lambdas[0] = 5.0  # the family keeps its own copy
        assert fam.lam[0] == 0.0
