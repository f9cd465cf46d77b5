import json
import sys

import numpy as np
import pytest

from importlib import resources

from ldpkit.cli import main
from ldpkit.convex import load_grid_csv, save_grid_csv, GridFunction
from ldpkit.free_energy import lambda_of
from ldpkit.extreal import INF, NEG_INF
from ldpkit.pipeline import (
    PipelineState,
    _jsonify,
    golden_diff,
    run_free_energy,
    run_scenario,
)
from ldpkit.scenario import ScenarioError, load_scenario, parse_tilt_labels
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


# 512 iid Bernoulli draws: concurrent family evaluations share the net's
# measure cache and miss on the same indices
IID_SCENARIO = """
[net]
kind = iid-bernoulli
max_n = 512
p = 0.5

[window]
t_max = 3.90625e-3
t_min = 1.953125e-3
samples = 2

[lambda-grid]
lo = -2.0
hi = 2.0
resolution = 21

[family]
kind = two-slope
lo = -2.0
hi = 2.0
resolution = 9

[x-grid]
lo = 0.05
hi = 0.95
points = 19

[tolerances]
convergence = 1e-2

[checks]
run = conjugate-consistency

[output]
prefix = iid
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

    @pytest.mark.parametrize(
        "text", [MINI_SCENARIO, IID_SCENARIO], ids=["mini", "iid"]
    )
    def test_threads_do_not_change_report(self, text, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        sc = load_scenario(path)
        run_scenario(sc, out_dir=str(tmp_path / "a"), threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the worker threads finely
        try:
            run_scenario(sc, out_dir=str(tmp_path / "b"), threads=4)
        finally:
            sys.setswitchinterval(interval)
        name = f"{sc.output_prefix}_report.json"
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    def test_free_energy_builds_no_conjugate_or_rate(self, mini_scenario, monkeypatch):
        sc = load_scenario(mini_scenario)
        want = run_free_energy(sc)

        def unused(*args, **kwargs):
            raise AssertionError("free-energy does not report this")

        # pipeline's own lambda_family_table evaluates only the single tilts
        # (varadhan and linear:0); the reported families go through conjugate
        for name in ("rate_grid", "stable_abstract_lf", "lf_transform", "lambda_family_table"):
            monkeypatch.setattr(f"ldpkit.pipeline.{name}", unused)
        assert run_free_energy(sc) == want

    def test_run_builds_no_tilt_object_per_member(self, monkeypatch):
        # ge-ex evaluates 61 + 1,681 + 4,900 slope-array members; only the
        # varadhan tilts and linear:0 become TiltFunction objects
        sc = packaged_scenario("ge-ex")
        varadhan = parse_tilt_labels(sc.check_params["varadhan_tilts"])
        built = []
        init = TiltFunction.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(TiltFunction, "__init__", counting_init)
        run_scenario(sc)
        assert len(built) <= len(varadhan) + 1

    @pytest.mark.parametrize("name", ["ge-ex", "dem-zei", "cramer"])
    def test_single_tilt_table_equals_lambda_of(self, name):
        # one table for the varadhan tilts and linear:0, bit for bit the
        # estimates of one lambda_of call per tilt
        state = PipelineState(packaged_scenario(name))
        tol = state.scenario.tolerances
        tilts, table = state.single_tilts
        assert [t.label for t in tilts[:-1]] == [
            t.label for t in parse_tilt_labels(state.scenario.check_params["varadhan_tilts"])
        ]
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


class TestGoldenDiff:
    def test_numeric_tolerance(self):
        assert golden_diff({"x": 1.0000000001}, {"x": 1.0}) == []
        assert golden_diff({"x": 1.1}, {"x": 1.0}) != []

    def test_structural(self):
        assert golden_diff({"a": [1, 2]}, {"a": [1, 2, 3]}) != []
        assert golden_diff({"a": "inf"}, {"a": "inf"}) == []
        assert golden_diff({"a": "inf"}, {"a": "-inf"}) != []
        assert golden_diff({}, {"a": 1}) == [("$.a: missing")]
