import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qmemctl import ScenarioFormatError, checks, filtering, montecarlo, pipeline
from qmemctl.cli import load_scenario, main

REFERENCE = {
    "n": 2,
    "m": 2,
    "R": [[1.0, 0.0], [0.0, 1.0]],
    "M": [[1.0, 0.0], [0.0, 1.0]],
    "N": [[0.0, 1.0]],
    "D": [[1.0, 0.0]],
    "F": [[1.0, 0.0], [0.0, 1.0]],
    "Pi": [[1.0]],
    "mean0": [1.0, 0.0],
    "cov0": [[0.5, 0.0], [0.0, 0.5]],
    "tau": 5.0,
}


def write_scenario(path: Path, **overrides) -> Path:
    data = dict(REFERENCE)
    data.update(overrides)
    for key in [k for k, v in data.items() if v is None]:
        del data[key]
    path.write_text(json.dumps(data))
    return path


class TestLoadScenario:
    def test_minimal_file_with_defaults(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", mean0=None, cov0=None, tau=2.5)
        spec = load_scenario(path)
        assert (spec.n, spec.m, spec.d, spec.r, spec.s) == (2, 2, 1, 1, 2)
        assert spec.steps == 5000  # 2000 per unit time
        np.testing.assert_array_equal(spec.mean0, np.zeros(2))
        np.testing.assert_array_equal(spec.cov0, 0.5 * np.eye(2))

    def test_flat_matrices_accepted(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", R=[1.0, 0.0, 0.0, 1.0])
        spec = load_scenario(path)
        np.testing.assert_array_equal(spec.R, np.eye(2))

    def test_wrong_entry_count_names_field(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", R=[1.0, 2.0, 3.0])
        with pytest.raises(ScenarioFormatError, match="'R'"):
            load_scenario(path)

    def test_missing_penalty_with_actuation(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", Pi=None)
        with pytest.raises(ScenarioFormatError, match="'Pi'"):
            load_scenario(path)

    def test_missing_required_field(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", D=None)
        with pytest.raises(ScenarioFormatError, match="'D'"):
            load_scenario(path)

    def test_declared_dimension_mismatch(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", d=2)
        with pytest.raises(ScenarioFormatError, match="'N'"):
            load_scenario(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", Q=[[1.0]])
        with pytest.raises(ScenarioFormatError, match="unknown"):
            load_scenario(path)

    def test_json_syntax_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioFormatError, match="line"):
            load_scenario(path)

    def test_no_actuation_scenario(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", N=None, Pi=None)
        spec = load_scenario(path)
        assert spec.d == 0
        assert spec.Pi.shape == (0, 0)

    @pytest.mark.parametrize("field, value", [
        ("tau", "abc"), ("tau", None), ("tau", True), ("tau", float("inf")),
        ("tau", float("nan")), pytest.param("tau", 10**400, id="tau-huge-int"),
        ("steps", float("nan")), ("steps", float("inf")), ("steps", 2.5),
        ("N", "abc"), ("D", "abc"), ("F", "abc"),
    ])
    def test_malformed_value_names_field(self, tmp_path, field, value):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(REFERENCE, **{field: value})))
        with pytest.raises(ScenarioFormatError, match=f"'{field}'"):
            load_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("R", [[1.0, 0.0], [0.0, float("nan")]]), ("M", [[1.0, float("inf")], [0.0, 1.0]]),
        ("N", [[0.0, float("-inf")]]), ("D", [[float("nan"), 0.0]]),
        ("F", [[1.0, 0.0], [0.0, float("inf")]]), ("Pi", [[float("nan")]]),
        ("mean0", [float("nan"), 0.0]), ("cov0", [[0.5, 0.0], [0.0, float("inf")]]),
        pytest.param("R", [[10**400, 0.0], [0.0, 1.0]], id="R-huge-int"),
    ])
    def test_non_finite_entry_names_field(self, tmp_path, field, value):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(REFERENCE, **{field: value})))
        with pytest.raises(ScenarioFormatError, match=f"field '{field}'"):
            load_scenario(path)


class TestValidateCommand:
    def test_valid_scenario_exits_zero(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json")
        assert main(["validate", "--scenario", str(scen)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True
        assert out["violations"] == []

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", D=[[1.0, 0.0], [0.0, 1.0]], r=2)
        assert main(["validate", "--scenario", str(scen)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert any("DJD" in v["invariant"] for v in out["violations"])

    def test_unreadable_scenario_reports_error(self, tmp_path, capsys):
        rc = main(["validate", "--scenario", str(tmp_path / "missing.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestStageCommands:
    def test_filter_writes_gain_schedule(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=200)
        out = tmp_path / "out"
        assert main(["filter", "--scenario", str(scen), "--out", str(out)]) == 0
        header, first = (out / "filter.csv").read_text().splitlines()[:2]
        cols = header.split(",")
        assert cols[0] == "t"
        assert "P1_0_0" in cols and "K_3_0" in cols
        assert len(first.split(",")) == len(cols)

    def test_control_writes_gains(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=200)
        out = tmp_path / "out"
        assert main(["control", "--scenario", str(scen), "--out", str(out)]) == 0
        header = (out / "control.csv").read_text().splitlines()[0]
        assert "Q1_0_0" in header and "c_0_3" in header

    def test_simulate_writes_closedloop(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=200)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out),
                     "--moments"]) == 0
        header = (out / "closedloop.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["t", "Delta", "Phi", "H_pont"]
        assert "T_0_0" in header

    def test_steps_override(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=500)
        out = tmp_path / "out"
        assert main(["filter", "--scenario", str(scen), "--out", str(out),
                     "--steps", "100"]) == 0
        assert len((out / "filter.csv").read_text().splitlines()) == 102

    def test_csv_round_trips_floats_exactly(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=50)
        out = tmp_path / "out"
        main(["filter", "--scenario", str(scen), "--out", str(out)])
        filt = pipeline.run(load_scenario(scen), "filter").filter
        line = (out / "filter.csv").read_text().splitlines()[1 + 17]
        values = np.array([float(v) for v in line.split(",")])
        assert values[0] == filt.times[17]
        np.testing.assert_array_equal(values[1:5], filt.P1[17].reshape(-1))
        np.testing.assert_array_equal(values[-4:], filt.K[17].reshape(-1))


class TestFullPipeline:
    def test_full_run_artifacts_and_checks(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", steps=1500)
        out = tmp_path / "out"
        rc = main(["full", "--scenario", str(scen), "--out", str(out),
                   "--paths", "4000", "--seed", "1234567"])
        captured = capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert rc == 0, (captured.out, summary["checks"])
        for name in ("filter.csv", "control.csv", "closedloop.csv",
                     "montecarlo.csv", "summary.json"):
            assert (out / name).exists()
        assert summary["cost"]["identity_rel_residual"] <= 1e-6
        assert summary["checks"]["cost_identity"]["passed"]
        assert summary["montecarlo"]["paths"] == 4000
        assert summary["decoherence"]["reached"] is True

    def test_decoherence_not_reached_is_reported(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=800)
        out = tmp_path / "out"
        rc = main(["decoherence", "--scenario", str(scen), "--out", str(out),
                   "--epsilon", "5.0", "--phi-star", "100.0"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decoherence"]["reached"] is False
        assert summary["decoherence"]["time"] is None
        assert summary["decoherence"]["note"] == "not reached within horizon"

    def test_decoherence_reached_with_defaults(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=800)
        out = tmp_path / "out"
        assert main(["decoherence", "--scenario", str(scen), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decoherence"]["phi_star"] == pytest.approx(1.0)
        assert summary["decoherence"]["reached"] is True
        assert 0.0 < summary["decoherence"]["time"] < 5.0

    def test_montecarlo_command_writes_report(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=400)
        out = tmp_path / "out"
        main(["montecarlo", "--scenario", str(scen), "--out", str(out),
              "--paths", "2000", "--seed", "8"])
        lines = (out / "montecarlo.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 11  # header + 10 checkpoints
        summary = json.loads((out / "summary.json").read_text())
        assert "montecarlo" in summary

    def test_failed_gate_sets_exit_status(self, tmp_path, capsys):
        # 30 paths cannot pin the error covariance to 5 %; the other gates hold.
        scen = Path(__file__).resolve().parents[1] / "scenarios" / "reference.json"
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", str(scen), "--out", str(out),
                   "--steps", "400", "--paths", "30", "--seed", "8"])
        assert rc == 1
        assert "FAILED checks: mc_P_relative_error\n" in capsys.readouterr().out
        gates = json.loads((out / "summary.json").read_text())["checks"]
        assert gates["cost_identity"]["limit"] == checks.identity_limit(5.0, 400)
        assert checks.failed(gates) == ["mc_P_relative_error"]

    @pytest.mark.parametrize("options, message", [
        (["--paths", "50", "--seed", "-1"], "base_seed = -1 is not an int in [0, 2^64)"),
        (["--paths", "50", "--seed", str(2**64)],
         f"base_seed = {2**64} is not an int in [0, 2^64)"),
        (["--paths", "1"], "stage 'montecarlo' failed: need at least 2 paths, got 1"),
        (["--paths", "50", "--epsilon", "0"],
         "stage 'decoherence' failed: epsilon * phi_star must be positive, got 0.0"),
        # A positive product of two negatives, and an infinite factor.
        (["--paths", "50", "--epsilon", "-0.1", "--phi-star", "-10"],
         "stage 'decoherence' failed: epsilon must be positive and finite, got -0.1"),
        (["--paths", "50", "--phi-star", "inf"],
         "stage 'decoherence' failed: phi_star must be positive and finite, got inf"),
    ], ids=["-1", str(2**64), "paths-1", "epsilon-0", "both-negative", "phi-star-inf"])
    def test_out_of_range_seed_exits_with_error(self, tmp_path, capsys, monkeypatch,
                                                options, message):
        # Such a seed used to be reduced mod 2^64 (2^64 ran seed 0) while
        # summary.json recorded it unreduced.  Every option is refused by the
        # library's own rule before any Riccati solve.
        monkeypatch.setattr(filtering, "solve_filter",
                            lambda *args: pytest.fail("solve_filter ran"))
        scen = write_scenario(tmp_path / "s.json", steps=40)
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", str(scen), "--out", str(out), *options])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_exits_with_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(filtering, "solve_filter",
                            lambda *args: pytest.fail("solve_filter ran"))
        scen = write_scenario(tmp_path / "s.json", steps=40)
        out = tmp_path / "afile"
        out.write_text("kept\n")
        rc = main(["filter", "--scenario", str(scen), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot create output directory {out}: File exists\n"
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["filter", "simulate", "decoherence"])
    def test_options_checked_only_where_used(self, tmp_path, command):
        # The path count and seed serve only the Monte Carlo, epsilon only
        # the decoherence time.
        scen = write_scenario(tmp_path / "s.json", steps=40)
        options = ["--paths", "1", "--seed", "-1"]
        if command != "decoherence":
            options += ["--epsilon", "0"]
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out"),
                     *options]) == 0

    def test_non_finite_cost_sets_exit_status(self, tmp_path, capsys, monkeypatch):
        simulate = montecarlo.simulate_ensemble
        monkeypatch.setattr(montecarlo, "simulate_ensemble", lambda *args, **kwargs: replace(
            simulate(*args, **kwargs), control_energy_mean=np.inf, cost_mean=np.inf))
        scen = write_scenario(tmp_path / "s.json", steps=400)
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", str(scen), "--out", str(out),
                   "--paths", "30", "--seed", "8"])
        assert rc == 1
        gates = json.loads((out / "summary.json").read_text())["checks"]
        assert "mc_cost_finite" in checks.failed(gates)
        assert f"FAILED checks: {', '.join(checks.failed(gates))}\n" in capsys.readouterr().out
        assert gates["mc_cost_finite"] == {
            "passed": False, "value": ["cost_mean", "control_energy_mean"], "limit": []}

    def test_reruns_byte_identical(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", steps=400)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["full", "--scenario", str(scen), "--paths", "800", "--seed", "99"]
        rc_a = main(args + ["--out", str(out_a)])
        rc_b = main(args + ["--out", str(out_b)])
        assert rc_a == rc_b
        for name in ("filter.csv", "control.csv", "closedloop.csv",
                     "montecarlo.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _matrix_columns(label, rows, cols):
    return [f"{label}_{i}_{j}" for i in range(rows) for j in range(cols)]


@pytest.mark.parametrize("d", [1, 0])
def test_artifact_headers(tmp_path, d):
    """The complete, ordered CSV headers of `full`; with d = 0 the gain c has no columns."""
    scen = write_scenario(tmp_path / "s.json", steps=200,
                          **({} if d else {"N": None, "Pi": None}))
    common = ["--scenario", str(scen), "--paths", "200", "--seed", "8", "--moments"]
    main(["full", "--out", str(tmp_path / "full")] + common)
    expected = {
        "filter.csv": ["t"] + _matrix_columns("P1", 2, 2) + _matrix_columns("P2", 2, 2)
        + _matrix_columns("P3", 2, 2) + _matrix_columns("K", 4, 1),
        "control.csv": ["t"] + _matrix_columns("Q1", 2, 2) + _matrix_columns("Q2", 2, 2)
        + _matrix_columns("Q3", 2, 2) + _matrix_columns("c", d, 4),
        "closedloop.csv": ["t", "Delta", "Phi", "H_pont"] + _matrix_columns("T", 4, 4),
        "montecarlo.csv": ["t", "mho_max_abs", "mho_max_z", "e_mean_norm", "e_mean_max_z",
                           "P_rel_err", "T_rel_err"],
    }
    for name, header in expected.items():
        lines = (tmp_path / "full" / name).read_text().splitlines()
        assert lines[0].split(",") == header, name
        assert all(len(line.split(",")) == len(header) for line in lines[1:]), name


@pytest.mark.parametrize("d", [1, 0])
def test_every_command_writes_the_bytes_of_full(tmp_path, d):
    """Each stage command writes its CSV as `full` does, and `montecarlo` its summary too."""
    scen = write_scenario(tmp_path / "s.json", steps=400,
                          **({} if d else {"N": None, "Pi": None}))
    common = ["--scenario", str(scen), "--paths", "200", "--seed", "8", "--moments"]
    main(["full", "--out", str(tmp_path / "full")] + common)
    stages = {"filter": ["filter.csv"], "control": ["control.csv"],
              "simulate": ["closedloop.csv"], "montecarlo": ["montecarlo.csv", "summary.json"]}
    for command, names in stages.items():
        out = tmp_path / command
        main([command, "--out", str(out)] + common)
        assert sorted(p.name for p in out.iterdir()) == sorted(names), command
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_summary_json_writes_non_finite_numpy_values_as_null():
    from qmemctl.cli import _jsonable

    value = {"a": np.float64(np.inf), "b": np.int64(3), "c": np.array([1.0, np.nan]),
             "d": [np.float32(-np.inf), (np.array([[np.inf, 2.0]]),)], "e": np.bool_(True)}
    text = json.dumps(_jsonable(value), allow_nan=False)
    assert json.loads(text) == {"a": None, "b": 3, "c": [1.0, None],
                                "d": [None, [[[None, 2.0]]]], "e": True}


def test_csv_rows_format_like_fmt(tmp_path):
    """The row template writes every value exactly as _fmt does."""
    from qmemctl.cli import _fmt, _write_csv

    values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1]
    _write_csv(tmp_path / "row.csv",
               [(f"v{i}", np.array([v])) for i, v in enumerate(values)])
    lines = (tmp_path / "row.csv").read_text().splitlines()
    assert lines[1] == ",".join(_fmt(v) for v in values)
    assert lines[1] == "nan,inf,-inf,-0,4.9406564584124654e-324,1e+308,0.10000000000000001"


def _modules_after_cli_import(package: str) -> list[str]:
    """Modules of `package` loaded by `import qmemctl.cli` in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import qmemctl

    src = str(Path(qmemctl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, qmemctl.cli; print(*sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.split()


def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency: importing the CLI must not load it."""
    assert _modules_after_cli_import("scipy") == []


def test_cli_import_loads_no_numpy_random():
    """numpy.random is loaded only when a Monte Carlo run builds its generators."""
    assert _modules_after_cli_import("numpy.random") == []
