"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The iid empirical-mean net is built once per module (closed-form binomial
laws up to n = 16384) and shared across criteria 5-8.
"""

import math
import time

import numpy as np
import pytest

import ldpkit
from ldpkit.cli import main as cli_main
from ldpkit.conjugate import abstract_lf, stable_abstract_lf
from ldpkit.convex import chord_slopes, essential_smoothness_check, lf_transform
from ldpkit.free_energy import L_from_table, lambda_family_table
from ldpkit.measures import RegionSet
from ldpkit.scenario import Tolerances
from ldpkit.tilts import (
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    q_bump_tilt,
    qn_family,
    two_slope_family,
)
from ldpkit.verifier import (
    RangeTargets,
    derivative_bound_scan,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
    varadhan_identity_check,
)

from conftest import conjugate_dual_grid, random_convex_grid
from oracles import bernoulli_half, brute_force_conjugate, conv_lemma_check, convex_lsc_hull

TOL = 2e-2  # window-bracket convergence tolerance for the 1/k nets
RADIUS = 2.0 ** -10  # the packaged scenarios' ball radius
FILTER_TOL = Tolerances.filter


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """200 random proper convex grid functions with 1000 points each."""
    rng = np.random.default_rng(20240817)
    funcs = [
        random_convex_grid(rng, n=1000, inf_tails=(i % 3 == 0)) for i in range(200)
    ]
    duals = [conjugate_dual_grid(f, extra=300) for f in funcs]
    return funcs, duals


@pytest.fixture(scope="module")
def iid_net():
    return ldpkit.iid_mean_example_net(bernoulli_half(), 16500)


@pytest.fixture(scope="module")
def iid_window():
    return ldpkit.WindowSpec(8192, 16384, 2)


@pytest.fixture(scope="module")
def iid_L(iid_net, iid_window):
    """Free energy of linear tilts on (-4, 4), 255 interior points."""
    fam = linear_family(-4, 4, 255)
    return L_from_table(fam, lambda_family_table(iid_net, fam, iid_window, 1e-6))


@pytest.fixture(scope="module")
def iid_rfe_slopes(iid_net, iid_window, iid_L):
    """Rate estimates on a grid containing all chord slopes of L."""
    slopes = chord_slopes(iid_L)
    uniform = np.linspace(0.017, 0.983, 484)
    xs = np.unique(np.concatenate([uniform, slopes]))
    return rate_grid(iid_net, xs, RADIUS, iid_window)


@pytest.fixture(scope="module")
def iid_aligned(iid_net, iid_window):
    """Atom-aligned rate grid (multiples of 1/512) with ball radius 2^-15,
    where powered-ball estimates are exact single-atom quantities."""
    xs = np.arange(math.ceil(0.02 * 512), math.floor(0.98 * 512) + 1) / 512.0
    rfe = rate_grid(iid_net, xs, 2.0 ** -15, iid_window)
    lin = linear_family(-4, 4, 31)
    L31 = L_from_table(lin, lambda_family_table(iid_net, lin, iid_window, 1e-6))
    fam = two_slope_family((-3.75, 3.75), (-3.75, 3.75), 31)
    fam_table = lambda_family_table(iid_net, fam, iid_window, 1e-6)
    return dict(xs=xs, rfe=rfe, L=L31, fam=fam, fam_table=fam_table)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_conjugate_oracle_equivalence(corpus):
    funcs, duals = corpus
    t0 = time.perf_counter()
    worst = 0.0
    for f, dual in zip(funcs, duals):
        fast = lf_transform(f, dual)
        slow = brute_force_conjugate(f, dual)
        worst = max(worst, float(np.max(np.abs(fast.values - slow.values))))
    elapsed = time.perf_counter() - t0
    report(
        "1 conjugate-oracle",
        worst <= 1e-9 and elapsed < 5.0,
        f"max|fast-brute|={worst:.2e} tol=1e-9, runtime={elapsed:.2f}s < 5s",
    )


def test_criterion_2_fenchel_moreau(corpus):
    funcs, duals = corpus
    worst = 0.0
    for f, dual in zip(funcs, duals):
        star = lf_transform(f, dual)
        bistar = lf_transform(star, f.xs)
        hull = convex_lsc_hull(f)
        interior = np.isfinite(hull.values)
        idx = np.flatnonzero(interior)
        interior[idx[0]] = interior[idx[-1]] = False
        gap = np.max(np.abs(bistar.values[interior] - hull.values[interior]))
        worst = max(worst, float(gap))
    report(
        "2 fenchel-moreau",
        worst <= 1e-8,
        f"max|biconjugate-hull|={worst:.2e} tol=1e-8 at interior points",
    )


def test_criterion_3_coin_reproduction(coin_net, main_window, rate_window):
    t0 = time.perf_counter()
    # L matches |lambda| within 1e-3 on (-3, 3)
    lin = linear_family(-3, 3, 61)
    L = L_from_table(lin, lambda_family_table(coin_net, lin, main_window, TOL))
    l_err = float(np.max(np.abs(L.values - np.abs(L.xs))))

    # family table matches max(-lam, nu) within 1e-3 on [-4, 4]^2
    fam = two_slope_family((-4, 4), (-4, 4), 41)
    table = lambda_family_table(coin_net, fam, main_window, TOL)
    fam_err = max(
        abs(v - max(-m.lam, m.nu)) for m, v in zip(fam.members, table.value.tolist())
    )

    # abstract conjugate: <= 1e-3 at +-1, flagged +inf elsewhere under doubling
    xs = np.linspace(-2, 2, 81)
    sc = stable_abstract_lf(coin_net, fam, table, xs, main_window, TOL)
    at_atoms = np.isclose(np.abs(xs), 1.0)
    abstract_ok = (
        float(np.max(np.abs(sc.values[at_atoms]))) <= 1e-3
        and bool(np.all(np.isposinf(sc.values[~at_atoms])))
    )

    rfe = rate_grid(coin_net, xs, RADIUS, rate_window)
    ldp_ok = vague_ldp_check(rfe, 1e-3)["holds"]

    L_star = lf_transform(L, xs)
    targets = RangeTargets(rfe=rfe, abstract_star=sc, linear_star=L_star, lambda_bar_zero=0.0)
    ellis = range_condition_check(L, (-3, 3), targets, "ellis-two-slope", FILTER_TOL)

    L_sub = L.restrict_open(-0.5, 0.5)
    targets_sub = RangeTargets(
        rfe=rfe, abstract_star=sc, linear_star=lf_transform(L_sub, xs), lambda_bar_zero=0.0
    )
    geb_sub = range_condition_check(
        L_sub, (-0.5, 0.5), targets_sub, "gartner-ellis-b", FILTER_TOL
    )
    sub_fails_densely = (not geb_sub["holds"]) and (
        sum(1 for w in geb_sub["witnesses"] if -1 < w < 1) >= 20
    )
    elapsed = time.perf_counter() - t0
    report(
        "3 two-point-example",
        l_err <= 1e-3
        and fam_err <= 1e-3
        and abstract_ok
        and ldp_ok
        and ellis["holds"]
        and sub_fails_densely
        and elapsed < 10.0,
        f"|L-|lam||={l_err:.1e}, |family-max(-lam,nu)|={fam_err:.1e} (tol 1e-3), "
        f"abstract ok={abstract_ok}, vague-ldp={ldp_ok}, ellis={ellis['holds']}, "
        f"sub-interval range condition fails={sub_fails_densely}, "
        f"runtime={elapsed:.2f}s < 10s",
    )


def test_criterion_4_escaping_example(demzei_net, main_window, rate_window):
    t0 = time.perf_counter()
    DIV = 1e3
    # L ~ 0 within 1e-3 on (-1, 1), flagged +inf for |lam| >= 1 + step
    wide = linear_family(-2, 2, 39)
    Lw = L_from_table(wide, lambda_family_table(demzei_net, wide, main_window, TOL, DIV))
    step = 0.1
    inside = np.abs(Lw.xs) <= 1.0 + 1e-12
    beyond = np.abs(Lw.xs) >= 1.0 + step - 1e-12
    l_ok = float(np.max(np.abs(Lw.values[inside]))) <= 1e-3 and bool(
        np.all(np.isposinf(Lw.values[beyond]))
    )

    # free energies of the bump tilts vanish within 1e-3 for n <= 10
    q_table = lambda_family_table(demzei_net, qn_family(10), main_window, TOL, DIV)
    q_err = max(abs(v) for v in q_table.value.tolist())

    # rate function = abstract conjugate = indicator-style at 0
    xs = np.linspace(-3, 3, 121)
    fam = family_union(qn_family(10), linear_family(-1, 1, 21))
    table = lambda_family_table(demzei_net, fam, main_window, TOL, DIV)
    sc = stable_abstract_lf(demzei_net, fam, table, xs, main_window, TOL, DIV)
    origin = xs == 0.0
    indicator_ok = abs(sc.values[origin][0]) <= 1e-3 and bool(
        np.all(np.isposinf(sc.values[~origin]))
    )
    rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
    ldp_ok = vague_ldp_check(rfe, 1e-3)["holds"]
    J = rfe.l0
    j_matches = abs(J.values[origin][0]) <= 1e-3 and bool(
        np.all(np.isposinf(J.values[~origin]))
    )

    # J == linear conjugate on dom(J) = {0}; differs off it (theorem-allowed)
    lin = linear_family(-1, 1, 21)
    L = L_from_table(lin, lambda_family_table(demzei_net, lin, main_window, TOL, DIV))
    L_star = lf_transform(L, xs)
    dom = np.isfinite(J.values)
    cmp_out = rate_comparison(J, L_star, sc, {"dom_J": dom}, 1e-3)
    off_dom = [
        e for e in cmp_out["allowed_differences"] if e["comparison"] == "J_vs_linear"
    ][0]
    cmp_ok = cmp_out["holds"] and off_dom["count"] >= 100

    elapsed = time.perf_counter() - t0
    report(
        "4 escaping-example",
        l_ok and q_err <= 1e-3 and indicator_ok and ldp_ok and j_matches and cmp_ok
        and elapsed < 10.0,
        f"L ok={l_ok}, max|F(Q_n)|={q_err:.1e} (tol 1e-3), "
        f"J=abstract-indicator={indicator_ok and j_matches}, "
        f"J==L* on dom(J) and differs off dom={cmp_ok}, runtime={elapsed:.2f}s < 10s",
    )


def test_criterion_5_sandwich_chain(
    coin_net, demzei_net, main_window, rate_window, iid_net, iid_window, iid_aligned
):
    slack = 1e-6
    worst_all = {}

    # two-point net
    xs = np.linspace(-2, 2, 81)
    lin = linear_family(-3, 3, 61)
    L = L_from_table(lin, lambda_family_table(coin_net, lin, main_window, TOL))
    fam = two_slope_family((-4, 4), (-4, 4), 41)
    table = lambda_family_table(coin_net, fam, main_window, TOL)
    sc = stable_abstract_lf(coin_net, fam, table, xs, main_window, TOL)
    rfe = rate_grid(coin_net, xs, RADIUS, rate_window)
    out1 = sandwich_check(lf_transform(L, xs), sc, rfe, slack)
    worst_all["coin"] = out1["worst"]["violation"]

    # escaping net
    xs = np.linspace(-3, 3, 121)
    lin = linear_family(-1, 1, 21)
    L = L_from_table(lin, lambda_family_table(demzei_net, lin, main_window, TOL, 1e3))
    fam = family_union(qn_family(10), lin)
    table = lambda_family_table(demzei_net, fam, main_window, TOL, 1e3)
    sc = stable_abstract_lf(demzei_net, fam, table, xs, main_window, TOL, 1e3)
    rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
    out2 = sandwich_check(lf_transform(L, xs), sc, rfe, slack)
    worst_all["dem-zei"] = out2["worst"]["violation"]

    # iid empirical mean, atom-aligned grid
    al = iid_aligned
    star = abstract_lf(al["fam"], al["fam_table"], al["xs"])
    out3 = sandwich_check(lf_transform(al["L"], al["xs"]), star, al["rfe"], slack)
    worst_all["iid"] = out3["worst"]["violation"]

    report(
        "5 sandwich-chain",
        out1["holds"] and out2["holds"] and out3["holds"],
        "max violations "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst_all.items())
        + f" (slack {slack:.0e})",
    )


def test_criterion_6_derivative_bound(
    coin_net, demzei_net, main_window, rate_window, iid_net, iid_window,
    iid_L, iid_rfe_slopes,
):
    tol = 1e-3
    results = {}

    xs = np.linspace(-2, 2, 81)
    lin = linear_family(-3, 3, 61)
    L = L_from_table(lin, lambda_family_table(coin_net, lin, main_window, TOL))
    rfe = rate_grid(coin_net, xs, RADIUS, rate_window)
    out = derivative_bound_scan(L, rfe, tol)
    results["coin(-3,3)"] = (out["holds"], len(out["failures"]))

    xs = np.linspace(-3, 3, 121)
    lin = linear_family(-1, 1, 21)
    L = L_from_table(lin, lambda_family_table(demzei_net, lin, main_window, TOL, 1e3))
    rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
    out = derivative_bound_scan(L, rfe, tol)
    results["dem-zei(-1,1)"] = (out["holds"], len(out["failures"]))

    out = derivative_bound_scan(iid_L, iid_rfe_slopes, tol)
    results["iid(-4,4)"] = (out["holds"], len(out["failures"]))

    report(
        "6 derivative-bound",
        all(ok for ok, _ in results.values()),
        ", ".join(
            f"{name}: {'all points hold' if ok else f'{n} failures'}"
            for name, (ok, n) in results.items()
        )
        + f" (tol {tol:.0e})",
    )


def test_criterion_7_varadhan_identity(
    coin_net, demzei_net, main_window, rate_window, iid_net, iid_window, iid_aligned
):
    tol = 1e-3

    def tilts_for(kind):
        if kind == "coin":
            lin = [-2.5, -1.0, -0.3, 0.7, 1.4, 2.2, 3.0, 0.0]
            two = [(-1, 2), (0.5, 1.5), (2, -1), (-2.5, 0.3), (1, 1), (0, 1.2),
                   (-0.7, 2.8), (3, -2)]
            qs = [1, 2, 3, 5]
        elif kind == "dem-zei":
            lin = [-0.9, -0.5, -0.2, 0.0, 0.1, 0.4, 0.7, 0.9]
            two = [(-1, 1), (-0.5, 0.2), (0, 1), (-1, 0), (2, -2), (0.3, 0.9),
                   (1.5, 0.5), (-0.8, -0.3)]
            qs = [1, 2, 5, 10]
        else:
            lin = [-3, -2, -1, -0.4, 0.7, 1.6, 2.5, 3]
            two = [(-1, 2), (0.5, 1.5), (2, -1), (-2.5, 0.3), (1, 1), (0, 1.2),
                   (-0.7, 2.8), (3, -2)]
            qs = [1, 2, 3, 5]
        return (
            [TiltFunction.linear(v) for v in lin]
            + [TiltFunction.two_slope(a, b) for a, b in two]
            + [q_bump_tilt(n) for n in qs]
        )

    worst = {}
    all_ok = True

    def check(name, net, window, rfe, *tolerances):
        nonlocal all_ok
        tilts = tilts_for(name)
        table = lambda_family_table(net, explicit_family(tilts), window, *tolerances)
        out = varadhan_identity_check(tilts, table, rfe, tol)
        assert len(out["tilts"]) == 20
        all_ok &= out["holds"]
        worst[name] = max(abs(row["free_energy"] - row["sup_form"]) for row in out["tilts"])

    xs = np.linspace(-2, 2, 81)
    check("coin", coin_net, main_window, rate_grid(coin_net, xs, RADIUS, rate_window), TOL)
    xs = np.linspace(-3, 3, 121)
    rfe = rate_grid(demzei_net, xs, RADIUS, rate_window)
    check("dem-zei", demzei_net, main_window, rfe, TOL, 1e3)
    check("iid", iid_net, iid_window, iid_aligned["rfe"], 1e-3)

    report(
        "7 varadhan-identity",
        all_ok,
        "20 tilts per net, worst |F(h) - sup(h - l1)|: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" (tol {tol:.0e})",
    )


def test_criterion_8_cramer_cross_check(iid_net, iid_window, iid_L, iid_rfe_slopes):
    # independent oracle: golden-section maximization of lam*x - L(lam) per x
    xs_f, vals_f = iid_L.xs, iid_L.values

    def oracle(x, iters=90):
        phi = (math.sqrt(5.0) - 1.0) / 2.0

        def g(lam):
            return lam * x - float(np.interp(lam, xs_f, vals_f))

        a, b = float(xs_f[0]), float(xs_f[-1])
        c, d = b - phi * (b - a), a + phi * (b - a)
        gc, gd = g(c), g(d)
        for _ in range(iters):
            if gc >= gd:
                b, d, gd = d, c, gc
                c = b - phi * (b - a)
                gc = g(c)
            else:
                a, c, gc = c, d, gd
                d = a + phi * (b - a)
                gd = g(d)
        mid = 0.5 * (a + b)
        return max(g(mid), gc, gd)

    dual = np.linspace(0.0525, 0.9475, 180)
    star = lf_transform(iid_L, dual)
    oracle_vals = np.array([oracle(x) for x in dual])
    conj_err = float(np.max(np.abs(star.values - oracle_vals)))

    smooth_ok, diag = essential_smoothness_check(iid_L)

    L_star_rate = lf_transform(iid_L, iid_rfe_slopes.grid)
    targets = RangeTargets(
        rfe=iid_rfe_slopes,
        abstract_star=L_star_rate,  # unused by the linear condition
        linear_star=L_star_rate,
        lambda_bar_zero=0.0,
    )
    ge_a = range_condition_check(iid_L, (-4, 4), targets, "gartner-ellis-a", FILTER_TOL)

    report(
        "8 cramer-cross-check",
        conj_err <= 1e-6 and smooth_ok and ge_a["holds"],
        f"max|conjugate-oracle|={conj_err:.2e} (tol 1e-6) on (0.05,0.95), "
        f"essentially smooth={smooth_ok}, derivative-range condition holds="
        f"{ge_a['holds']}",
    )


def test_criterion_9_restriction_lemma():
    rng = np.random.default_rng(4242)
    worst = 0.0
    checked = 0
    for _ in range(100):
        f = random_convex_grid(rng, n=240, inf_tails=True)
        for _ in range(20):
            lo = rng.uniform(f.xs[0] - 2.0, f.xs[-1] + 1.0)
            hi = lo + rng.uniform(0.05, 5.0)
            ok, lhs, rhs = conv_lemma_check(f, RegionSet.open(lo, hi), tol=1e-9)
            gap = 0.0 if lhs == rhs else abs(lhs - rhs)
            worst = max(worst, gap)
            checked += 1
            assert ok
    report(
        "9 restriction-lemma",
        worst <= 1e-9 and checked == 2000,
        f"{checked} (function, open region) pairs, worst |inf gap|={worst:.2e} "
        "(tol 1e-9)",
    )


def test_criterion_10_reproduce_determinism(tmp_path, capsys):
    outcomes = {}
    for name in ("ge-ex", "dem-zei"):
        reports = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            rc = cli_main(["reproduce", name, "--out-dir", str(out)])
            assert rc == 0, f"reproduce {name} run {run} did not match its golden"
            reports.append((out / f"{name}_report.json").read_bytes())
        outcomes[name] = reports[0] == reports[1]
    capsys.readouterr()
    report(
        "10 reproduce-determinism",
        all(outcomes.values()),
        "two consecutive runs byte-identical and matching committed goldens: "
        + ", ".join(f"{k}={v}" for k, v in outcomes.items()),
    )
