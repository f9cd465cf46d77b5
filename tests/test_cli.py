import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from importlib import resources

import ldpkit
from ldpkit import convex, pipeline
from ldpkit.cli import main
from ldpkit.convex import load_grid_csv, save_grid_csv, GridFunction
from ldpkit.free_energy import lambda_of
from ldpkit.extreal import INF, NEG_INF
from ldpkit.pipeline import (
    PipelineState,
    _ArrayText,
    _json_pieces,
    _jsonify,
    golden_diff,
    run_free_energy,
    run_scenario,
)
from ldpkit.scenario import KNOWN_CHECKS, CheckParams, ScenarioError, load_scenario
from ldpkit.tilts import TiltFunction


def packaged_scenario(name):
    with resources.as_file(
        resources.files("ldpkit").joinpath(f"data/scenarios/{name}.cfg")
    ) as path:
        return load_scenario(path)

MINI_SCENARIO = """
[net]
kind = coin
max_index = 100000

[window]
t_max = 1e-2
t_min = 1e-5
samples = 24

[rate-window]
t_max = 1e-3
t_min = 1e-5
samples = 16

[lambda-grid]
lo = -2.0
hi = 2.0
resolution = 21

[family]
kind = two-slope
lo = -3.0
hi = 3.0
resolution = 13

[x-grid]
lo = -1.5
hi = 1.5
points = 31

[tolerances]
convergence = 2e-2
value = 5e-3
ldp = 5e-3
equality = 5e-3

[checks]
run = vague-ldp, exp-tight, sandwich, conjugate-consistency, rate-compare, range-dom-abstract
informational = gartner-ellis-a
eps_list = 0.1
r_schedule = 1, 2
regions = closed:0.5:1.5
varadhan_tilts = linear:1

[output]
prefix = mini
"""


@pytest.fixture()
def mini_scenario(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_SCENARIO)
    return path


class TestScenarioParsing:
    def test_load(self, mini_scenario):
        sc = load_scenario(mini_scenario)
        assert sc.net_kind == "coin"
        assert sc.run_checks[0] == "vague-ldp"
        assert sc.tolerances.value == 5e-3

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO + "\n[bogus]\nx = 1\n")
        with pytest.raises(ScenarioError, match="unknown section"):
            load_scenario(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO.replace("kind = coin", "kind = coin\nwhat = 3"))
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(path)

    def test_unknown_check_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO.replace("run = vague-ldp", "run = not-a-check"))
        with pytest.raises(ScenarioError, match="unknown check"):
            load_scenario(path)

    def test_bad_number_positions(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO.replace("t_max = 1e-2", "t_max = soup"))
        with pytest.raises(ScenarioError, match=r"\[window\] t_max"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value", [
        ("r_schedule", "1, -2"),  # once passed: the bad radius was never reached
        ("r_schedule", "-2, 1"),
        ("r_schedule", "nan, 1"),
        ("r_schedule", "1, inf"),
        ("eps_list", "0"),
        ("eps_list", "0.1, soup"),
    ])
    def test_check_lists_must_be_finite_and_positive(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        old = {"r_schedule": "r_schedule = 1, 2", "eps_list": "eps_list = 0.1"}[key]
        path.write_text(MINI_SCENARIO.replace(old, f"{key} = {value}"))
        with pytest.raises(ScenarioError, match=rf"\[checks\] {key}"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"[checks] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("ldp", "nan"),  # once loaded: vague-ldp then failed at exit 1
        ("equality", "nan"),  # once loaded: rate-compare then failed at exit 1
        ("ldp", "inf"),
        ("value", "-inf"),
        ("equality", "0"),
    ])
    def test_tolerances_must_be_finite_and_positive(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO.replace(f"{key} = 5e-3", f"{key} = {value}"))
        # the reader stops a non-finite number, naming the file, section and key
        where = f"{path}: [tolerances] {key}: " + (
            "must lie in (0, inf), got 0.0" if value == "0" else f"not a finite number: {value!r}"
        )
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert where in str(exc.value)
        assert main(["run", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "free-energy"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_tol_override_must_be_finite_and_positive(self, mini_scenario, capsys, command, value):
        # --tol nan once ran the whole pipeline, then died on a varadhan tilt
        assert main([command, str(mini_scenario), "--tol", value]) == 2
        assert f"--tol {value}: not a finite number: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "1075", "100000000"])
    def test_delta_count_must_give_a_positive_radius(self, tmp_path, capsys, count):
        # 2^-1075 rounds to 0.0: such a count once loaded, and run then
        # stopped at the rate grid without naming the file or the key
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO + f"\n[deltas]\ncount = {count}\n")
        message = "must be >= 1" if count == "0" else "must be <= 1074"
        with pytest.raises(ScenarioError, match=rf"\[deltas\] count: {message}, got {count}$"):
            load_scenario(path)
        assert main(["free-energy", str(path)]) == 2
        assert "[deltas] count" in capsys.readouterr().err

    def test_smallest_delta_count_radius_is_positive(self, tmp_path):
        # 2^-1074 vanishes beside any normal x, so the grid is subnormal
        path = tmp_path / "tiny.cfg"
        tiny_grid = MINI_SCENARIO.replace("lo = -1.5\nhi = 1.5", "lo = -1e-308\nhi = 1e-308")
        path.write_text(tiny_grid + "\n[deltas]\ncount = 1074\n")
        assert PipelineState(load_scenario(path)).rfe.radius == 5e-324

    def test_delta_count_must_not_vanish_beside_the_grid(self, tmp_path, capsys):
        # ge-ex's x grid reaches |x| = 2, where 2 + 2^-52 rounds to 2: every
        # ball would be empty and every rate +inf
        text = resources.files("ldpkit").joinpath("data/scenarios/ge-ex.cfg").read_text()
        path = tmp_path / "ge-ex.cfg"
        path.write_text(text.replace("count = 10", "count = 51"))
        assert load_scenario(path).delta_count == 51
        path.write_text(text.replace("count = 10", "count = 52"))
        with pytest.raises(ScenarioError, match=r"\[deltas\] count: 52 .* vanishes"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"{path}: [deltas] count: 52" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        MINI_SCENARIO + "\n[checks]\nrun = vague-ldp\n",
        MINI_SCENARIO.replace("kind = coin", "kind = coin\nkind = coin"),
        "samples = 3\n" + MINI_SCENARIO,
    ], ids=["repeated-section", "repeated-key", "line-before-header"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text):
        # configparser's own errors once escaped as a traceback and exit 1
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="bad.cfg"):
            load_scenario(path)
        assert main(["run", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, where", [
        # each once loaded, then failed at run time naming no file, or was
        # ignored: unread keys, and check parameters of unrequested checks
        ("regions = closed:0.5:1.5", "regions = closed:0.5:x2", "[checks] regions"),
        ("regions = closed:0.5:1.5", "regions = nope", "[checks] regions"),
        ("varadhan_tilts = linear:1", "varadhan_tilts = lin:2", "[checks] varadhan_tilts"),
        ("informational = gartner-ellis-a", "informational = gartner-ellis-b-sub",
         "[checks] sub_lo: missing required key"),
        ("eps_list = 0.1", "sub_lo = 0.5\nsub_hi = -0.5",
         "[checks] sub_hi: must lie in (0.5, 1e+100), got -0.5"),
        ("eps_list = 0.1", "two_slope_lo = 4\ntwo_slope_hi = -4",
         "[checks] two_slope_hi: must lie in (4.0, 1e+100), got -4.0"),
        ("eps_list = 0.1", "two_slope_resolution = 1", "[checks] two_slope_resolution"),
        ("max_index = 100000", "max_n = 100", "[net] unknown key 'max_n'"),
        ("max_index = 100000", "p = 7", "[net] unknown key 'p'"),
        ("kind = coin", "kind = iid-bernoulli", "[net] unknown key 'max_index'"),
        ("kind = two-slope\nlo = -3.0\nhi = 3.0\nresolution = 13",
         "kind = qn-plus-linear\nlo = -3.0", "[family] unknown key 'lo'"),
        ("kind = two-slope\nlo = -3.0\nhi = 3.0\nresolution = 13",
         "kind = qn-plus-linear\nresolution = 13", "[family] unknown key 'resolution'"),
        ("resolution = 13", "resolution = 13\nn_max = 4", "[family] unknown key 'n_max'"),
        # each once loaded, then failed at run time naming no file (iid
        # max_n = 1 named max_index), or ran: a reversed two-slope interval
        ("max_index = 100000", "max_index = 1", "[net] max_index: must be >= 2"),
        ("kind = coin\nmax_index = 100000", "kind = iid-bernoulli\nmax_n = 1",
         "[net] max_n: must be >= 2"),
        ("resolution = 13", "resolution = 1", "[family] resolution: must be >= 2"),
        ("kind = two-slope\nlo = -3.0\nhi = 3.0", "kind = linear\nlo = 4\nhi = -4",
         "[family] hi: must lie in (4.0, 1e+100), got -4.0"),
        ("lo = -3.0\nhi = 3.0", "lo = 4\nhi = 4",
         "[family] hi: must lie in (4.0, 1e+100), got 4.0"),
        ("lo = -3.0\nhi = 3.0", "lo = 4\nhi = -4",
         "[family] hi: must lie in (4.0, 1e+100), got -4.0"),
        ("kind = two-slope\nlo = -3.0\nhi = 3.0\nresolution = 13",
         "kind = qn-plus-linear\nn_max = 0", "[family] n_max: must be >= 1"),
        # non-finite numbers: numpy warnings then a blamed L, a blamed ball
        # radius, and a run that ended in an unconverged tilt
        ("lo = -2.0\nhi = 2.0", "lo = -2.0\nhi = inf",
         "[lambda-grid] hi: not a finite number: 'inf'"),
        ("lo = -1.5", "lo = -inf", "[x-grid] lo: not a finite number: '-inf'"),
        ("t_max = 1e-2", "t_max = inf", "[window] t_max: not a finite number: 'inf'"),
        ("t_max = 1e-3", "t_max = nan", "[rate-window] t_max: not a finite number: 'nan'"),
        # entries once read with a bare float(): nan and inf tilts failed at
        # run time naming no key, or warned and exited 0; a nan region ran
        ("varadhan_tilts = linear:1", "varadhan_tilts = linear:nan",
         "[checks] varadhan_tilts: bad tilt spec 'linear:nan': not a finite number: 'nan'"),
        ("varadhan_tilts = linear:1", "varadhan_tilts = two_slope:inf:1",
         "[checks] varadhan_tilts: bad tilt spec 'two_slope:inf:1': not a finite number: 'inf'"),
        ("regions = closed:0.5:1.5", "regions = open:nan:1",
         "[checks] regions: not a finite number: 'nan'"),
        # slopes past MAX_SLOPE: overflow warnings in the tilt kernel and the
        # hull, then exit 1, or exit 2 blaming unconverged family members
        ("varadhan_tilts = linear:1", "varadhan_tilts = linear:1e308",
         "[checks] varadhan_tilts: bad tilt spec 'linear:1e308': "
         "must lie in (-1e+100, 1e+100), got 1e+308"),
        ("lo = -2.0\nhi = 2.0", "lo = -2.0\nhi = 1e300",
         "[lambda-grid] hi: must lie in (-2.0, 1e+100), got 1e+300"),
    ], ids=["region-number", "region-spec", "tilt-spec", "sub-required", "sub-reversed",
            "two-slope-reversed", "two-slope-resolution", "coin-max_n", "coin-p",
            "iid-max_index", "qn-lo", "qn-resolution", "two-slope-n_max",
            "coin-max_index-1", "iid-max_n-1", "family-resolution-1", "linear-reversed",
            "two-slope-empty", "family-reversed", "qn-n_max-0", "lambda-hi-inf",
            "x-lo-inf", "window-t_max-inf", "rate-window-t_max-nan", "tilt-nan",
            "tilt-inf", "region-nan", "tilt-slope-1e308", "lambda-hi-1e300"])
    def test_bad_setting_exits_2_at_load(self, tmp_path, capsys, old, new, where):
        path = tmp_path / "bad.cfg"
        assert MINI_SCENARIO.count(old) == 1
        path.write_text(MINI_SCENARIO.replace(old, new))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert f"{path}: {where}" in str(exc.value)
        assert main(["run", str(path)]) == 2
        assert f"{path}: {where}" in capsys.readouterr().err

    def test_slope_off_the_rate_grid_names_the_check_and_grid(self, tmp_path, capsys):
        # at p = 1e-300 L's slopes near 0 leave cramer's x grid: the error once
        # named neither the check nor the grid
        text = resources.files("ldpkit").joinpath("data/scenarios/cramer.cfg").read_text()
        assert text.count("p = 0.5") == 1
        path = tmp_path / "cramer.cfg"
        path.write_text(text.replace("p = 0.5", "p = 1e-300"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: derivative-bound: slope ")
        assert err.endswith("lies outside the rate grid span: [x-grid] spans 0.017..0.983\n")

    def test_two_slope_hi_alone_reaches_the_auxiliary_family(self, tmp_path, monkeypatch):
        # two_slope_hi without two_slope_lo was once dropped without a word
        path = tmp_path / "aux.cfg"
        path.write_text(MINI_SCENARIO.replace("kind = two-slope", "kind = linear").replace(
            "eps_list = 0.1", "eps_list = 0.1\ntwo_slope_hi = 3"
        ))
        sc = load_scenario(path)
        assert sc.check_params.two_slope == (-4.0, 3.0, 41)
        built = []
        two_slope_family = pipeline.two_slope_family
        monkeypatch.setattr(
            "ldpkit.pipeline.two_slope_family",
            lambda *args: built.append(args) or two_slope_family(*args),
        )
        pipeline._run_check(PipelineState(sc), "ellis-two-slope")
        assert built == [((-4.0, 3.0), (-4.0, 3.0), 41)]

    def test_no_checks_section_gets_the_defaults(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text(MINI_SCENARIO[:MINI_SCENARIO.index("[checks]")] + "[output]\nprefix = mini\n")
        assert load_scenario(path).check_params == CheckParams()

    def test_percent_is_a_plain_character(self, tmp_path):
        # interpolation once made '%b' a configparser error at exit 1
        path = tmp_path / "pct.cfg"
        path.write_text(MINI_SCENARIO.replace("prefix = mini", "prefix = mini%b"))
        assert load_scenario(path).name == "mini%b"

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINI_SCENARIO.replace("[net]", "[deltas]").replace(
            "kind = coin", "count = 5"
        ))
        with pytest.raises(ScenarioError, match=r"missing required section \[net\]"):
            load_scenario(path)


class TestRunScenario:
    def test_report_shape_and_files(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        sc = load_scenario(mini_scenario)
        report, ok = run_scenario(sc, out_dir=str(out))
        assert ok
        assert list(report)[:2] == ["schema_version", "scenario"]
        for key in ("tables", "family", "checks", "verdict"):
            assert key in report
        assert (out / "mini_report.json").exists()
        for table in ("L", "L_star", "abstract_star", "l0", "l1", "J"):
            csv_path = out / f"mini_{table}.csv"
            assert csv_path.exists()
            load_grid_csv(csv_path)  # round-trips through the loader

    def test_csv_round_trip_precision(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        sc = load_scenario(mini_scenario)
        report, _ = run_scenario(sc, out_dir=str(out))
        gf = load_grid_csv(out / "mini_L.csv")
        want = np.array(report["tables"]["L"]["values"], dtype=float)
        assert np.max(np.abs(gf.values - want)) <= 1e-12

    def test_reports_byte_identical(self, mini_scenario, tmp_path):
        sc = load_scenario(mini_scenario)
        run_scenario(sc, out_dir=str(tmp_path / "a"))
        run_scenario(sc, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "mini_report.json").read_bytes()
        b = (tmp_path / "b" / "mini_report.json").read_bytes()
        assert a == b

    def test_free_energy_builds_no_conjugate_or_rate(self, mini_scenario, monkeypatch):
        sc = load_scenario(mini_scenario)
        want = run_free_energy(sc)

        def unused(*args, **kwargs):
            raise AssertionError("free-energy does not report this")

        # explicit_family builds only the single tilts (varadhan and linear:0)
        for name in ("rate_grid", "stable_abstract_lf", "lf_transform", "explicit_family"):
            monkeypatch.setattr(f"ldpkit.pipeline.{name}", unused)
        assert run_free_energy(sc) == want

    def test_run_builds_no_tilt_object_per_member(self, monkeypatch):
        # ge-ex evaluates 61 + 1,681 + 4,900 slope-array members; only the
        # varadhan tilts and linear:0 become TiltFunction objects
        sc = packaged_scenario("ge-ex")
        varadhan = sc.check_params.varadhan_tilts
        built = []
        init = TiltFunction.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(TiltFunction, "__init__", counting_init)
        run_scenario(sc)
        assert len(built) <= len(varadhan) + 1

    @pytest.mark.parametrize("name, windows", [("ge-ex", 2), ("cramer", 1)])
    def test_net_holds_one_window_per_spec(self, name, windows, monkeypatch):
        # ge-ex has a main and a rate window; cramer's [rate-window] defaults
        # to [window], so its rate grid and checks read the main window
        nets = []
        build = pipeline.build_net
        monkeypatch.setattr(pipeline, "build_net", lambda sc: nets.append(build(sc)) or nets[-1])
        run_scenario(packaged_scenario(name))
        assert [len(net.windows) for net in nets] == [windows]

    @pytest.mark.parametrize("name", ["ge-ex", "dem-zei", "cramer"])
    def test_single_tilt_table_equals_lambda_of(self, name):
        # one table for the varadhan tilts and linear:0, bit for bit the
        # estimates of one lambda_of call per tilt
        state = PipelineState(packaged_scenario(name))
        tol = state.scenario.tolerances
        tilts, table = state.single_tilts
        assert tilts[:-1] == list(state.scenario.check_params.varadhan_tilts)
        assert tilts[-1].label == "linear:0.0"
        for i, tilt in enumerate(tilts):
            want = lambda_of(
                state.net, tilt, state.window, tol.convergence, tol.divergence_threshold
            )
            assert repr(table.estimate(i)) == repr(want), tilt.label
        assert state.lambda_bar_zero == table.estimate(len(tilts) - 1).value

    def test_empty_check_list_reports_tables_only(self, tmp_path):
        cfg = MINI_SCENARIO.replace(
            "run = vague-ldp, exp-tight, sandwich, conjugate-consistency, rate-compare, range-dom-abstract",
            "run =",
        ).replace("informational = gartner-ellis-a", "informational =")
        path = tmp_path / "empty.cfg"
        path.write_text(cfg)
        report, ok = run_scenario(load_scenario(path), out_dir=None)
        assert ok and report["checks"] == []
        assert "L" in report["tables"]

    @pytest.mark.parametrize("family", ["two-slope", "linear"])
    def test_every_check_id_gives_its_entry(self, tmp_path, family):
        # every KNOWN_CHECKS id through the pipeline, on a lambda grid and a
        # sub_G that both exclude 0; the linear family makes ellis-two-slope
        # build its auxiliary two-slope family
        cfg = (
            MINI_SCENARIO.replace("lo = -2.0", "lo = 0.5")
            .replace("kind = two-slope", f"kind = {family}")
            .replace("run = vague-ldp, exp-tight, sandwich, conjugate-consistency, "
                     "rate-compare, range-dom-abstract", "run = " + ", ".join(KNOWN_CHECKS))
            .replace("informational = gartner-ellis-a", "informational =\nsub_lo = 1\nsub_hi = 2")
        )
        path = tmp_path / "all.cfg"
        path.write_text(cfg)
        report, ok = run_scenario(load_scenario(path))
        assert not ok
        assert [c["condition_id"] for c in report["checks"]] == list(KNOWN_CHECKS)
        fields = {
            "vague-ldp": ["max_gap", "tol"],
            "exp-tight": ["table"],
            "ldp-bounds": ["regions"],
            "varadhan": ["tilts", "tol"],
            "derivative-bound": ["failures", "tol"],
            "sandwich": ["worst", "slack"],
            "conjugate-consistency": ["max_gap", "witnesses"],
            "rate-compare": ["checks", "allowed_differences"],
        }
        range_fields = ["witnesses", "witness_count", "conclusions", "notes"]
        for entry in report["checks"]:
            cid = entry["condition_id"]
            want = ["condition_id", "holds", *fields.get(cid, range_fields), "informational"]
            assert list(entry) == want, cid
            assert entry["informational"] is False
            if cid in fields:
                continue
            notes = ["merge_gap", "closure", "target_size", "range_components"]
            if cid.startswith("range-int"):
                notes.insert(2, "proper_convex_premise")
            notes += {
                "gartner-ellis-a": ["essentially_smooth"],
                "gartner-ellis-b": ["zero_in_G"],
                "gartner-ellis-b-sub": ["sub_G", "zero_in_G"],
                "ellis-two-slope": ["premise_all_exist"],
            }.get(cid, [])
            assert list(entry["notes"]) == notes, cid
            assert len(entry["witnesses"]) == min(entry["witness_count"], 16), cid
            if cid.startswith("gartner-ellis-b"):
                assert entry["notes"]["zero_in_G"] is False and not entry["holds"]
                assert entry["conclusions"] == []
        by_id = {c["condition_id"]: c for c in report["checks"]}
        assert by_id["gartner-ellis-b-sub"]["notes"]["sub_G"] == [1.0, 2.0]
        assert [list(row) for row in by_id["exp-tight"]["table"]] == [["eps", "R", "estimate"]]
        assert [list(r) for r in by_id["ldp-bounds"]["regions"]] == [
            ["kind", "estimate", "capacity", "violation", "holds"]
        ]
        assert [list(t) for t in by_id["varadhan"]["tilts"]] == [
            ["tilt", "free_energy", "sup_form", "holds"]
        ]
        assert list(by_id["sandwich"]["worst"]) == ["violation", "link", "x"]
        compare = by_id["rate-compare"]
        assert [list(c) for c in compare["checks"]] == 4 * [
            ["comparison", "mask", "holds", "max_violation", "witnesses"]
        ]
        assert [list(d) for d in compare["allowed_differences"]] == 2 * [
            ["comparison", "outside_masks", "count"]
        ]

    def test_infinities_serialized_as_strings(self, mini_scenario):
        sc = load_scenario(mini_scenario)
        report, _ = run_scenario(sc, out_dir=None)
        vals = report["tables"]["J"]["values"]
        assert "inf" in vals

    @pytest.mark.parametrize("arr", [
        np.array([1.5, INF, -0.0, NEG_INF, 1e-300, INF]),
        np.array([True, False]),
        np.array([3, -4]),
        np.empty(0),
    ])
    def test_array_leaves_serialize_like_scalar_leaves(self, arr):
        # one tolist per array must write what the per-element path writes
        assert json.dumps(_jsonify(arr)) == json.dumps(_jsonify(list(arr)))

    def test_mixed_list_leaves(self):
        mixed = ["linear:-4.0", INF, NEG_INF, np.bool_(True), np.float64(-0.5), np.float64(NEG_INF)]
        got = _jsonify(mixed)
        assert got == ["linear:-4.0", "inf", "-inf", True, -0.5, "-inf"]
        assert [type(v) for v in got] == [str, str, str, bool, float, str]
        labels = ("linear:0.0", "two_slope:1.0:-1.0")
        assert _jsonify(labels) == list(labels) and type(_jsonify(labels)) is list


# strings with the C encoder's item separator, newlines, escapes and
# non-ASCII text; floats with NaN, both infinities and -0.0
JSON_TEXT = st.one_of(
    st.text(), st.sampled_from([", ", "\n", ",\n ", 'a"b\\c', "é — ü 𝔼"])
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), INF, NEG_INF]),
    JSON_TEXT,
)
# the report tree's own leaves: float arrays with NaN, both infinities and
# -0.0, bool and int arrays, numpy scalars; every array kind may be empty
SPECIAL_FLOATS = st.sampled_from([-0.0, float("nan"), INF, NEG_INF])
NUMPY_LEAVES = st.one_of(
    st.lists(st.one_of(st.floats(), SPECIAL_FLOATS), max_size=8).map(
        lambda v: np.array(v, dtype=float)
    ),
    st.lists(st.booleans(), max_size=8).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.one_of(st.floats(), SPECIAL_FLOATS).map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
JSON_TREES = st.recursive(
    st.one_of(JSON_SCALARS, NUMPY_LEAVES),
    lambda kids: st.one_of(
        st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(JSON_TEXT, kids)
    ),
    max_leaves=40,
)


class TestJsonPieces:
    @given(JSON_TREES)
    @settings(max_examples=150, deadline=None)
    def test_equals_json_dumps_indent_1(self, obj):
        got = "".join(_json_pieces(obj, text=_ArrayText()))
        assert got == json.dumps(_jsonify(obj), indent=1)

    @pytest.mark.parametrize("name", ["ge-ex", "dem-zei", "cramer"])
    def test_packaged_reports(self, name):
        sc = packaged_scenario(name)
        for report in (run_scenario(sc)[0], run_free_energy(sc)):
            got = "".join(_json_pieces(report, text=_ArrayText()))
            assert got == json.dumps(report, indent=1)


class TestWrittenFiles:
    """Each distinct value of a float array is formatted once per write; the
    files must read as ``json.dumps(indent=1)`` and ``repr`` lines of the
    returned report."""

    @staticmethod
    def csv_lines(*columns):
        return "".join(",".join(row) + "\n" for row in zip(*columns))

    @staticmethod
    def reprs(values):
        return [repr(float(v)) for v in values]  # "inf" strings back to floats

    @pytest.mark.parametrize("name", ["ge-ex", "dem-zei", "cramer"])
    def test_packaged_outputs(self, name, tmp_path):
        sc = packaged_scenario(name)
        report, _ = run_scenario(sc, out_dir=str(tmp_path / "run"))
        free = run_free_energy(sc, out_dir=str(tmp_path / "fe"))
        for out_dir, rep, json_name in (
            ("run", report, "report"), ("fe", free, "free_energy")
        ):
            read = lambda f: (tmp_path / out_dir / f"{name}_{f}").read_text(encoding="utf-8")
            assert read(f"{json_name}.json") == json.dumps(rep, indent=1) + "\n"
            for table, grid in rep["tables"].items():
                want = self.csv_lines(self.reprs(grid["xs"]), self.reprs(grid["values"]))
                assert read(f"{table}.csv") == want, table
        family = report["family"]
        want = self.csv_lines(
            family["members"],
            self.reprs(family["values"]),
            [str(c).lower() for c in family["converged"]],
        )
        assert (tmp_path / "run" / f"{name}_family.csv").read_text(encoding="utf-8") == want

    def test_each_array_is_formatted_once(self, monkeypatch, tmp_path):
        # ge-ex's x grid backs five tables, and l0 and J share their values;
        # within an array, each distinct bit pattern is formatted once
        requests, arrays, formatted = [], {}, []
        original = pipeline._ArrayText.reprs

        def recorded(self, arr):
            requests.append(id(arr))
            arrays[id(arr)] = arr
            return original(self, arr)

        def counted(x):
            if type(x) is float:  # the family labels format numpy scalars
                formatted.append(x)
            return repr(x)

        monkeypatch.setattr(pipeline._ArrayText, "reprs", recorded)
        monkeypatch.setattr(convex, "repr", counted, raising=False)
        run_scenario(packaged_scenario("ge-ex"), out_dir=str(tmp_path))
        assert len(requests) >= len(arrays) + 5
        distinct = [np.unique(a.view(np.int64)) for a in arrays.values()]
        assert sum(d.size for d in distinct) < sum(a.size for a in arrays.values())
        want = np.sort(np.concatenate(distinct))
        assert np.array_equal(np.sort(np.array(formatted).view(np.int64)), want)

    def test_commands_build_no_json_safe_copy(self, monkeypatch, tmp_path, capsys):
        # run and free-energy read the report tree; only its leaves are
        # converted, piece by piece, by the writer
        whole = []
        original = pipeline._jsonify
        monkeypatch.setattr(pipeline, "_jsonify", lambda obj: (
            whole.append(isinstance(obj, dict) and "schema_version" in obj) or original(obj)
        ))
        cfg = str(resources.files("ldpkit").joinpath("data/scenarios/ge-ex.cfg"))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        assert main(["free-energy", cfg]) == 0
        assert whole and not any(whole)
        assert "[PASS] vague-ldp" in capsys.readouterr().out


class TestCliCommands:
    def test_run_exit_status(self, mini_scenario, tmp_path, capsys):
        rc = main(["run", str(mini_scenario), "--out-dir", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] vague-ldp" in out
        assert "(informational)" in out

    def test_window_and_tol_overrides_echoed(self, mini_scenario, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            [
                "run", str(mini_scenario),
                "--out-dir", str(out),
                "--window", "1e-3:1e-5:16",
                "--tol", "0.05",
            ]
        )
        assert rc == 0
        report = json.loads((out / "mini_report.json").read_text())
        assert report["scenario"]["window"]["t_max"] == 1e-3
        assert report["scenario"]["tolerances"]["convergence"] == 0.05

    @pytest.mark.parametrize("window, message", [
        ("1e-6:1e-2:48", "needs 0 < t_min < t_max"),
        ("1e-2:1e-6:1", "samples must be >= 2"),
        ("1e-2:1e-6:x", "not an integer: 'x'"),
        ("inf:1e-6:24", "not a finite number: 'inf'"),  # once ran, exit 0
    ], ids=["reversed", "one-sample", "not-a-number", "infinite"])
    def test_bad_window_override_exits_2(self, mini_scenario, capsys, window, message):
        # each once exited 2 with an error that did not name --window
        assert main(["free-energy", str(mini_scenario), "--window", window]) == 2
        assert f"--window {window}: {message}" in capsys.readouterr().err

    def test_unconverged_run_names_the_tol_flag(self, mini_scenario, capsys):
        # the value came from --tol: the error once named [tolerances] convergence
        assert main(["run", str(mini_scenario), "--tol", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert "have no converged free energy within --tol 5e-324\n" in err
        assert "[tolerances]" not in err

    def test_too_narrow_window_names_the_window_flag(self, mini_scenario, capsys):
        # t in [9.99e-3, 1e-2] holds only k = 100: the error once named [window] t_max
        assert main(["run", str(mini_scenario), "--window", "1e-2:9.99e-3:2"]) == 2
        err = capsys.readouterr().err
        assert "--window 1e-2:9.99e-3:2: t-range selects fewer than two indices" in err
        assert "[window]" not in err

    def test_free_energy_command(self, mini_scenario, tmp_path, capsys):
        rc = main(["free-energy", str(mini_scenario), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "mini_free_energy.json").exists()
        assert (tmp_path / "o" / "mini_L.csv").exists()

    def test_conjugate_command(self, tmp_path, capsys):
        xs = np.linspace(-3, 3, 61)
        save_grid_csv(GridFunction(xs, np.abs(xs)), tmp_path / "f.csv")
        rc = main(
            [
                "conjugate",
                str(tmp_path / "f.csv"),
                str(tmp_path / "fstar.csv"),
                "--dual-grid=-1:1:41",
            ]
        )
        assert rc == 0
        star = load_grid_csv(tmp_path / "fstar.csv")
        assert np.max(np.abs(star.values)) <= 1e-12

    def test_conjugate_parabola(self, tmp_path):
        xs = np.linspace(-5, 5, 801)
        save_grid_csv(GridFunction(xs, xs**2 / 2), tmp_path / "f.csv")
        rc = main(
            [
                "conjugate",
                str(tmp_path / "f.csv"),
                str(tmp_path / "fstar.csv"),
                "--dual-grid=-2:2:101",
            ]
        )
        assert rc == 0
        star = load_grid_csv(tmp_path / "fstar.csv")
        assert np.max(np.abs(star.values - star.xs**2 / 2)) <= 1e-3

    def test_conjugate_malformed_csv(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("0.0,1.0\nnot a row\n")
        rc = main(
            [
                "conjugate",
                str(tmp_path / "bad.csv"),
                str(tmp_path / "out.csv"),
                "--dual-grid=0:1:5",
            ]
        )
        assert rc == 2
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        pytest.param(row, f"grid point x = {row.split(',')[0]} is not finite", id=row)
        for row in ("nan,0", "inf,1", "-inf,1")
    ] + [pytest.param("1,nan", "value at x = 1.0 is NaN", id="1,nan")])
    def test_conjugate_non_finite_grid_point_exits_2(self, tmp_path, capsys, row, message):
        # nan once dropped out silently (exit 0); inf wrote inf values; a NaN
        # value failed without naming its line
        (tmp_path / "f.csv").write_text(f"-1.0,1.0\n0.0,0.0\n{row}\n")
        out = tmp_path / "out.csv"
        assert main(["conjugate", str(tmp_path / "f.csv"), str(out), "--dual-grid=-2:2:5"]) == 2
        assert f"f.csv:3: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ("-1,1e308\n0,-1e308\n1,1e308\n", "f.csv:2: chord slope from x = -1.0 to x = 0.0"),
        ("0,0\n5e-324,1e300\n", "f.csv:2: chord slope from x = 0.0 to x = 5e-324"),
        ("-1e308,0\n1e308,1\n", "f.csv:2: grid step from x = -1e+308 to x = 1e+308"),
    ], ids=["values", "step", "grid-step"])
    def test_conjugate_overflowing_chord_slope_exits_2(self, tmp_path, capsys, rows, message):
        # finite values whose chord slope or grid step overflows once warned
        # from numpy ("overflow encountered in subtract") and exited 0; the
        # suite turns such a warning into an error
        (tmp_path / "f.csv").write_text(rows)
        out = tmp_path / "out.csv"
        assert main(["conjugate", str(tmp_path / "f.csv"), str(out), "--dual-grid=-2:2:5"]) == 2
        assert f"{message} is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, spec", [
        ("0,0\n1e300,1\n", "-1e10:1e10:5"),
        ("0,0\n1e200,1e200\n2e200,0\n", "-1:1:5"),
    ], ids=["transform", "hull"])
    def test_conjugate_overflowing_products_exit_2(self, tmp_path, capsys, rows, spec):
        # dual * x - v, or the hull's cross product (v2 - v1) * (x - x1),
        # once overflowed with a numpy warning and exited 0
        (tmp_path / "f.csv").write_text(rows)
        out = tmp_path / "out.csv"
        assert main(["conjugate", str(tmp_path / "f.csv"), str(out), f"--dual-grid={spec}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dual-grid {spec}: with the grid of {tmp_path / 'f.csv'}")
        assert err.endswith("the conjugate's products overflow\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("-inf:1:5", "not a finite number: '-inf'"),
        ("-1:nan:5", "not a finite number: 'nan'"),
        ("1:-1:5", "must lie in (1.0, inf), got -1.0"),
        ("-1:1:1", "must be >= 2, got 1"),
        ("-1:1:x", "not an integer: 'x'"),
        ("-1:1", "expects lo:hi:n"),
        ("-1e308:1e308:5", "span hi - lo = inf is not finite"),
    ], ids=["inf", "nan", "reversed", "one-point", "not-a-number", "two-parts", "span"])
    def test_bad_dual_grid_exits_2(self, tmp_path, capsys, spec, message):
        # -inf once warned twice and then blamed NaN values; x named no flag;
        # an overflowing span once warned three times and named no flag
        xs = np.linspace(-3, 3, 7)
        save_grid_csv(GridFunction(xs, np.abs(xs)), tmp_path / "f.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["conjugate", str(tmp_path / "f.csv"), str(tmp_path / "o.csv"),
                       f"--dual-grid={spec}"])
        assert rc == 2
        assert f"error: --dual-grid {spec}: {message}" in capsys.readouterr().err

    def test_scenario_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("[net]\nkind = coin\n")
        rc = main(["run", str(tmp_path / "bad.cfg")])
        assert rc == 2
        assert "missing required section" in capsys.readouterr().err

    def test_reproduce_without_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "ge-ex"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_out_dir_report_is_the_golden(self, tmp_path):
        # regenerating a golden means copying <out-dir>/<name>_report.json
        assert main(["reproduce", "ge-ex", "--out-dir", str(tmp_path)]) == 0
        golden = resources.files("ldpkit").joinpath("data/goldens/ge-ex.json")
        assert (tmp_path / "ge-ex_report.json").read_bytes() == golden.read_bytes()

    def test_reproduce_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "unknown-example"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command, threads", [("run", "4"), ("free-energy", "2")])
    def test_threads_above_one_rejected(self, mini_scenario, command, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(mini_scenario), "--threads", threads])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name", [("run", "mini_report.json"), ("free-energy", "mini_free_energy.json")]
    )
    def test_threads_one_is_accepted(self, mini_scenario, tmp_path, command, name):
        # the benchmark harness's command line
        argv = [command, str(mini_scenario), "--out-dir", str(tmp_path), "--threads", "1"]
        assert main(argv) == 0
        assert (tmp_path / name).exists()

    def test_reproduce_rejects_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "ge-ex", "--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


# Hostile inputs: one value drawn from HOSTILE goes into one scenario key,
# list entry, CSV row or flag.  main must end at exit 0 or 1 (a RuntimeWarning
# is an error in this suite), or at exit 2 with an error that names the file
# and line, the section and key, or the flag.
HOSTILE = ("0", "-0", "5e-324", "1e308", "-1e308", "nan", "inf", "-inf", "",
           str(10**30), str(-10**30), "9" * 400)

# the packaged scenarios on small grids, so that a run takes some 20 ms
SMALL = {
    "ge-ex": {("net", "max_index"): "1000", ("window", "t_min"): "1e-3",
              ("window", "samples"): "6", ("rate-window", "t_max"): "1e-2",
              ("rate-window", "t_min"): "1e-3", ("rate-window", "samples"): "4",
              ("lambda-grid", "resolution"): "13", ("family", "resolution"): "7",
              ("x-grid", "points"): "17"},
    "dem-zei": {("net", "max_index"): "10000", ("window", "t_min"): "1e-4",
                ("window", "samples"): "6", ("rate-window", "t_max"): "1e-2",
                ("rate-window", "t_min"): "1e-3", ("rate-window", "samples"): "4",
                ("lambda-grid", "resolution"): "9", ("wide-lambda-grid", "resolution"): "9",
                ("family", "n_max"): "3", ("x-grid", "points"): "25",
                ("checks", "two_slope_resolution"): "5"},
    "cramer": {("net", "max_n"): "64", ("window", "t_max"): "3.125e-2",
               ("window", "t_min"): "1.5625e-2", ("lambda-grid", "resolution"): "17",
               ("family", "resolution"): "7", ("x-grid", "points"): "33",
               ("tolerances", "convergence"): "0.05"},
}


def _values(text: str) -> dict[tuple[str, str], str]:
    """The value of each ``(section, key)`` of a scenario text."""
    values, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            values[section, key] = value
    return values


def _with_values(text: str, edits: dict) -> str:
    """``text`` with the value of each ``(section, key)`` in ``edits`` replaced."""
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        key = line.split("=")[0].strip()
        if (section, key) in edits and not line.startswith("#"):
            line = f"{key} = {edits[section, key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _small(name: str) -> str:
    text = resources.files("ldpkit").joinpath(f"data/scenarios/{name}.cfg").read_text()
    return _with_values(text, SMALL[name])


def _is_numbers(value: str) -> bool:
    try:
        return all(math.isfinite(float(tok)) for tok in value.split(","))
    except ValueError:
        return False


NUMERIC_KEYS = [(name, *where) for name in SMALL
                for where, value in _values(_small(name)).items() if _is_numbers(value)]
SPANS = [(section, "lo", "hi") for section in ("lambda-grid", "family", "x-grid")] + [
    ("window", "t_min", "t_max"), ("rate-window", "t_min", "t_max"),
    ("checks", "sub_lo", "sub_hi")]
ENTRIES = [("varadhan_tilts", form) for form in
           ("linear:{}", "two_slope:{}:1", "two_slope:-1:{}", "qn:{}")] + [
    ("regions", form) for form in ("open:{}:1", "closed:-1:{}")]
hostile = st.sampled_from(HOSTILE)
part = st.sampled_from(HOSTILE + ("-1", "1", "1e-2", "1e-3", "4"))
csv_text = st.sampled_from(HOSTILE + ("-1", "1", "1e200", "2e200", "1e300"))
HOSTILE_CASES = st.one_of(
    st.tuples(st.just("key"), st.sampled_from(NUMERIC_KEYS), hostile),
    st.tuples(st.just("swap"), st.sampled_from(SPANS)),
    st.tuples(st.just("entry"), st.sampled_from(ENTRIES), hostile),
    st.tuples(st.just("csv"), st.lists(st.tuples(csv_text, csv_text), min_size=1, max_size=3),
              st.sampled_from(["-1:1:5", "-1e10:1e10:5"])),
    st.tuples(st.just("flag"), st.just("--tol"), hostile),
    st.tuples(st.just("flag"), st.sampled_from(["--window", "--dual-grid"]),
              st.lists(part, min_size=3, max_size=3).map(":".join)),
)
# an error of a run names the scenario section and key to change
RUN_ERROR = r".*\[[\w-]+\] \w+"


def _hostile_argv(case: tuple, tmp: Path) -> tuple[list[str], str]:
    """``case``'s command line, and the pattern that its exit-2 error must match."""
    kind, *args = case
    path = tmp / "hostile.cfg"
    if kind == "csv":
        rows, spec = args
        csv = tmp / "f.csv"
        csv.write_text("".join(f"{x},{v}\n" for x, v in rows))
        argv = ["conjugate", str(csv), str(tmp / "out.csv"), f"--dual-grid={spec}"]
        return argv, rf"{re.escape(str(csv))}(?::\d+)?: |--dual-grid {re.escape(spec)}: "
    if kind == "flag":
        flag, text = args
        if flag == "--dual-grid":
            xs = np.linspace(-3, 3, 7)
            save_grid_csv(GridFunction(xs, np.abs(xs)), tmp / "f.csv")
            argv = ["conjugate", str(tmp / "f.csv"), str(tmp / "out.csv")]
        else:
            path.write_text(_small("ge-ex"))
            argv = ["run", str(path)]
        # a run that fails on the flag's value names the flag as a key's error would
        named = rf"{flag} {re.escape(text)}"
        return argv + [f"{flag}={text}"], rf"{named}: |.* within {named}$"
    if kind == "key":
        (name, section, key), text = args
        edits = {(section, key): text}
    elif kind == "swap":
        name, ((section, lo, hi),) = "ge-ex", args
        values = _values(_small(name))
        edits = {(section, lo): values[section, hi], (section, hi): values[section, lo]}
    else:  # entry: the list holds the one hostile entry
        name, ((key, form), text) = "ge-ex", args
        edits = {("checks", key): form.format(text)}
    path.write_text(_with_values(_small(name), edits))
    return ["run", str(path)], rf"{re.escape(str(path))}: \[[\w-]+\] \w+: "


@given(case=HOSTILE_CASES)
# the cases that once escaped: each exited 0 or 1 with a numpy warning, or
# exited 2 naming neither the file, the key nor the flag
@example(case=("entry", ("varadhan_tilts", "linear:{}"), "nan"))
@example(case=("entry", ("varadhan_tilts", "two_slope:{}:1"), "inf"))
@example(case=("entry", ("regions", "open:{}:1"), "nan"))
@example(case=("key", ("ge-ex", "tolerances", "equality"), "0"))
@example(case=("flag", "--tol", "nan"))
@example(case=("flag", "--window", "inf:1e-6:24"))
@example(case=("flag", "--dual-grid", "-1e308:1e308:5"))
@example(case=("entry", ("varadhan_tilts", "linear:{}"), "1e308"))
@example(case=("key", ("ge-ex", "lambda-grid", "hi"), "1e300"))
@example(case=("key", ("cramer", "net", "p"), "1e-300"))
@example(case=("csv", [("0", "0"), ("1", "nan")], "-1:1:5"))
@example(case=("csv", [("-1", "1e308"), ("0", "-1e308"), ("1", "1e308")], "-1:1:5"))
@example(case=("csv", [("-1e308", "0"), ("1e308", "1")], "-1:1:5"))
@example(case=("csv", [("0", "0"), ("1e300", "1")], "-1e10:1e10:5"))
@example(case=("csv", [("0", "0"), ("1e200", "1e200"), ("2e200", "0")], "-1:1:5"))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_hostile_input_runs_or_names_its_source(case):
    with tempfile.TemporaryDirectory() as tmp:
        argv, source = _hostile_argv(case, Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2)
    if status == 2:
        assert re.match(rf"error: (?:{source}|{RUN_ERROR})", err.getvalue()), err.getvalue()


# no command loads scipy: not the coin and escaping nets, nor cramer's iid
# law and measure totals
_COLD_START = """
import sys
from importlib import resources

import ldpkit, ldpkit.cli
from ldpkit.pipeline import run_scenario
from ldpkit.scenario import load_scenario

scenarios = resources.files("ldpkit").joinpath("data/scenarios")
for cfg in sorted(p for p in scenarios.iterdir() if p.name.endswith(".cfg")):
    with resources.as_file(cfg) as path:
        load_scenario(path)
for command, name in (("run", "ge-ex"), ("free-energy", "dem-zei")):
    with resources.as_file(scenarios.joinpath(name + ".cfg")) as path:
        ldpkit.cli.main([command, str(path), "--out-dir", sys.argv[1]])
with resources.as_file(scenarios.joinpath("cramer.cfg")) as path:
    run_scenario(load_scenario(path))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_start_does_not_import_scipy(tmp_path):
    src = str(Path(ldpkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestGoldenDiff:
    def test_numeric_tolerance(self):
        assert golden_diff({"x": 1.0000000001}, {"x": 1.0}) == []
        assert golden_diff({"x": 1.1}, {"x": 1.0}) != []

    def test_structural(self):
        assert golden_diff({"a": [1, 2]}, {"a": [1, 2, 3]}) != []
        assert golden_diff({"a": "inf"}, {"a": "inf"}) == []
        assert golden_diff({"a": "inf"}, {"a": "-inf"}) != []
        assert golden_diff({}, {"a": 1}) == [("$.a: missing")]
