import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bildsim import acceptance, brownian, cli, linalg, runio


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def identity_json(d):
    return linalg.matrix_to_json(np.eye(d, dtype=complex))


def langevin_params(**overrides):
    base = {
        "n_particles": 1,
        "mass": 1.0,
        "friction": 1.0,
        "temperatures": [1.0],
        "potential": {"kind": "harmonic", "spring_constants": [1.0]},
        "dt": 1e-3,
        "t_end": 0.02,
        "n_trajectories": 50,
        "store_every": 2,
        "x_init": "stationary",
    }
    base.update(overrides)
    return base


class TestValidateConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(cli.ValidationError, match="typo"):
            cli.validate_config({"command": "chsh-quantum", "params": {}, "typo": 1})

    def test_unknown_command(self):
        with pytest.raises(cli.ValidationError, match="unknown command"):
            cli.validate_config({"command": "chsh-psychic", "params": {}})

    def test_bad_seed(self):
        with pytest.raises(cli.ValidationError, match="seed"):
            cli.validate_config(
                {"command": "chsh-quantum", "params": {}, "seed": -3}
            )


class TestPcsftAverage:
    def test_identity_covariance_identity_kernel(self, tmp_path):
        config = {
            "command": "pcsft-average",
            "params": {
                "covariance": identity_json(2),
                "kernel": identity_json(2),
                "n_samples": 2000,
            },
            "seed": 5,
        }
        out = tmp_path / "run"
        outputs = cli.run_experiment(config, str(out))
        assert set(outputs) >= {"results.csv", "summary.json", "manifest.json"}
        rows = {r["quantity"]: r for r in read_csv(out / "results.csv")}
        # <||phi||^2> = Tr B = 2 exactly
        assert float(rows["average"]["exact"]) == pytest.approx(2.0)
        assert float(rows["energy"]["exact"]) == pytest.approx(2.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coupling_gap"] < 1e-12
        assert abs(summary["mc_mean"] - 2.0) < 5 * summary["mc_stderr"]

    def test_missing_kernel_exits_2(self, tmp_path):
        config = {
            "command": "pcsft-average",
            "params": {"covariance": identity_json(2), "n_samples": 10},
        }
        rc = cli.main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestPcsftCorrelation:
    def test_identity_pair_fourth_moment(self, tmp_path):
        d = 3
        config = {
            "command": "pcsft-correlation",
            "params": {
                "covariance": identity_json(d),
                "kernel": identity_json(d),
                "kernel2": identity_json(d),
                "n_samples": 5000,
            },
            "seed": 9,
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        summary = json.loads((out / "summary.json").read_text())
        # E ||phi||^4 = d^2 + d for the standard circular Gaussian
        assert summary["exact_pair_correlation"] == pytest.approx(d * d + d)


class TestChshQuantum:
    def test_optimal_angles_summary(self, tmp_path):
        config = {
            "command": "chsh-quantum",
            "params": {"angles": [0.0, np.pi / 2, np.pi / 4, -np.pi / 4]},
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["S_quantum"]) == pytest.approx(2 * np.sqrt(2), abs=1e-10)
        assert summary["S_classical_max"] == 2.0
        assert not summary["degenerate_settings"]
        rows = read_csv(out / "correlations.csv")
        assert [r["pair"] for r in rows] == ["A1B1", "A1B2", "A2B1", "A2B2"]
        sweep = read_csv(out / "sweep.csv")
        s_vals = [abs(float(r["S"])) for r in sweep]
        assert max(s_vals) <= 2 * np.sqrt(2) + 1e-9

    def test_wrong_angle_count(self, tmp_path):
        config = {"command": "chsh-quantum", "params": {"angles": [0.0, 1.0]}}
        rc = cli.main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestChshHv:
    def test_sphere_sign_run(self, tmp_path):
        config = {
            "command": "chsh-hv",
            "params": {"strategy": {"kind": "sphere_sign"}, "n": 20000},
            "seed": 11,
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        rows = read_csv(out / "correlations.csv")
        assert len(rows) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["S_stream"]) <= 2.1
        assert summary["S_quantum"] == pytest.approx(-2 * np.sqrt(2), abs=1e-10)
        # the same stream supplies the incompatible local pairs too
        pairs = {r["pair"] for r in rows}
        assert {"A1A2", "B1B2"} <= pairs

    def test_constant_strategy(self, tmp_path):
        config = {
            "command": "chsh-hv",
            "params": {"strategy": {"kind": "constant"}, "n": 100},
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["S_stream"] == 2.0


class TestBrownianCommands:
    def test_small_run_writes_csv(self, tmp_path):
        config = {
            "command": "brownian-om",
            "params": langevin_params(),
            "seed": 3,
        }
        out = tmp_path / "run"
        outputs = cli.run_experiment(config, str(out))
        assert "trajectories.csv" in outputs
        rows = read_csv(out / "trajectories.csv")
        assert len(rows) == 50 * 11  # n_trajectories * n_stored_times
        times = json.loads((out / "timescales.json").read_text())
        assert times["tau_p"] == 1.0 and not times["overdamped"]

    def test_large_run_writes_binary_round_trip(self, tmp_path):
        config = {
            "command": "brownian-om",
            "params": langevin_params(n_trajectories=6000),
            "seed": 3,
        }
        out = tmp_path / "run"
        outputs = cli.run_experiment(config, str(out))
        assert "trajectories.bin" in outputs
        data = runio.load_trajectories(str(out / "trajectories.bin"))
        assert data["x"].shape == (6000, 11, 1)
        assert data["times"][0] == 0.0
        assert "p" not in data

    def test_underdamped_stores_momenta(self, tmp_path):
        config = {
            "command": "brownian-ctm",
            "params": langevin_params(dt=1e-2, t_end=0.1, n_trajectories=6000, store_every=1),
            "seed": 4,
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        data = runio.load_trajectories(str(out / "trajectories.bin"))
        assert data["p"].shape == data["x"].shape

    def test_bad_dt_exits_3(self, tmp_path):
        config = {
            "command": "brownian-om",
            "params": langevin_params(dt=0.05),
        }
        rc = cli.main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_negative_dt_exits_2(self, tmp_path, capsys):
        config = {
            "command": "brownian-om",
            "params": langevin_params(dt=-1.0),
        }
        rc = cli.main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "dt" in err["error"]

    def test_negative_temperature_exits_2(self, tmp_path):
        config = {"command": "brownian-om", "params": langevin_params(temperatures=[-1.0])}
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert assert_one_error_line(rc, lines, 2) == "temperatures must be nonnegative"
        assert not (tmp_path / "o").exists()

    def test_unknown_langevin_key_exits_2(self, tmp_path, capsys):
        params = langevin_params()
        params["viscosity"] = 2.0
        config = {"command": "brownian-om", "params": params}
        rc = cli.main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "viscosity" in err["error"]


class TestVelocityField:
    def test_columns_and_overlay(self, tmp_path):
        config = {
            "command": "velocity-field",
            "params": {
                "langevin": langevin_params(
                    n_trajectories=4000, t_end=0.04, store_every=1
                ),
                "epsilon": 4e-3,
                "bin_min": -2.0,
                "bin_max": 2.0,
                "n_bins": 8,
                "min_count": 50,
            },
            "seed": 21,
        }
        out = tmp_path / "run"
        cli.run_experiment(config, str(out))
        rows = read_csv(out / "velocity_field.csv")
        assert len(rows) == 8
        assert set(rows[0]) == {
            "bin_center", "v_plus", "v_plus_err", "v_minus", "v_minus_err",
            "u", "u_err", "epsilon", "count",
        }
        overlay = read_csv(out / "osmotic_overlay.csv")
        occupied = [r for r in overlay if r["u"] != "nan"]
        assert occupied
        for r in occupied:
            # u tracks the density-gradient oracle loosely at this budget
            assert abs(float(r["u"]) - float(r["osmotic_oracle"])) < 1.0

    def test_peak_is_the_ensemble_and_a_bounded_working_set(self, tmp_path):
        # 50k trajectories at 41 stored times, a 15.6 MiB ensemble; a copy
        # of its positions for the density estimate would add as much again
        langevin = langevin_params(n_trajectories=50_000, t_end=0.04, store_every=1)
        config = {
            "command": "velocity-field",
            "params": {"langevin": langevin, "epsilon": 4e-3, "bin_min": -2.0, "bin_max": 2.0, "n_bins": 40},
            "seed": 21,
        }
        tracemalloc.start()
        try:
            cli.run_experiment(config, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ensemble = 8 * 50_000 * 41
        assert ensemble < peak < ensemble + 6 * 2**20, (peak, ensemble)

    # an epsilon beyond the float range either way, a stored step beyond it,
    # a run too short to store two times, and an epsilon longer than the run
    @pytest.mark.parametrize(
        "where,value",
        [
            (("epsilon",), 1e308),
            (("epsilon",), -1e308),
            (("langevin", "store_every"), 1e308),
            (("langevin", "t_end"), 1e-300),
            (("epsilon",), 5.0),
        ],
    )
    def test_epsilon_checked_before_integrating(self, tmp_path, monkeypatch, where, value):
        entered = []
        integrate = brownian.stored_states
        monkeypatch.setattr(brownian, "stored_states", lambda *a, **k: entered.append(1) or integrate(*a, **k))
        params = copy.deepcopy(dict(VELOCITY, min_count=5))
        container = params
        for key in where[:-1]:
            container = container[key]
        container[where[-1]] = value
        config = {"command": "velocity-field", "params": params, "seed": 7}
        out = tmp_path / "run"
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(out)])
        assert re.search("epsilon|two stored times", assert_one_error_line(rc, lines, 2))
        assert not entered and not out.exists()
        # the same config with a valid epsilon integrates, through the spy
        if where == ("epsilon",):
            cli.run_experiment(dict(config, params=dict(params, epsilon=2e-3)), str(out))
            assert entered == [1]


class TestManifestAndDeterminism:
    def test_manifest_contents(self, tmp_path):
        config = {
            "command": "chsh-quantum",
            "params": {"angles": [0.0, np.pi / 2, np.pi / 4, -np.pi / 4]},
            "seed": 1,
        }
        out = tmp_path / "run"
        outputs = cli.run_experiment(config, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == runio.config_hash(config)
        assert manifest["seed"] == 1
        assert sorted(o for o in outputs if o != "manifest.json") == manifest["outputs"]

    def test_seed_override_changes_samples(self, tmp_path):
        config = {
            "command": "chsh-hv",
            "params": {"strategy": {"kind": "sphere_sign"}, "n": 5000},
            "seed": 8,
        }
        config_path = write_config(tmp_path, config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", config_path, "--out", str(out1)]) == 0
        assert cli.main(["--config", config_path, "--out", str(out2), "--seed", "9"]) == 0
        assert (out1 / "correlations.csv").read_bytes() != (out2 / "correlations.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config_hash"] == runio.config_hash(dict(config, seed=9))

    def test_paper_units_flag_changes_config_hash(self, tmp_path):
        # at friction 3 the flag changes the trajectories, so the manifest must tell the runs apart
        config_path = write_config(tmp_path, langevin_with(friction=3.0))
        runs = []
        for flags in ([], ["--paper-units"]):
            out = tmp_path / f"run{len(flags)}"
            assert cli.main(["--config", config_path, "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs.append(((out / "trajectories.csv").read_bytes(), manifest["config_hash"]))
        (trajectories, config_hash), (paper_trajectories, paper_config_hash) = runs
        assert trajectories != paper_trajectories
        assert config_hash != paper_config_hash

    def test_unreadable_config_exits_2(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "missing.json")])
        assert rc == 2

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        config = {"command": "chsh-quantum", "params": {"angles": [0.0, 1.0, 0.5, -0.5]}}
        rc = cli.main(
            ["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o"), "--seed", "-3"]
        )
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "seed" in json.loads(lines[0])["error"]


class TestAcceptanceCommand:
    def test_numpy_verdict_written_as_json_bool(self, tmp_path):
        # criterion 5 computes its verdict with numpy comparisons
        out = tmp_path / "gate"
        cli.run_experiment({"command": "acceptance", "params": {"criteria": [5]}}, str(out))
        results = json.loads((out / "acceptance.json").read_text())
        assert [(r["number"], r["passed"]) for r in results] == [(5, True)]

    def test_failed_criterion_exits_3(self, tmp_path, monkeypatch):
        # the gate's verdict is its exit code: criterion 7, made to fail,
        # fails the run after its records are written
        def failing():
            result = criterion_7()
            result.passed = False
            return result

        criteria = list(acceptance._CRITERIA)
        criterion_7, criteria[6] = criteria[6], failing
        monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
        config = {"command": "acceptance", "params": {"criteria": [5, 7]}}
        out = tmp_path / "gate"
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(out)])
        assert assert_one_error_line(rc, lines, 3) == "one or more acceptance criteria failed"
        assert os.listdir(out) == ["acceptance.json"]
        results = json.loads((out / "acceptance.json").read_text())
        assert [(r["number"], r["passed"]) for r in results] == [(5, True), (7, False)]

    def test_failed_lane_1_criterion_exits_3_with_records_in_order(self, tmp_path, monkeypatch):
        # criterion 2 runs in the other lane from criteria 1 and 5 and, made
        # to fail at once, is done first wherever the lanes overlap
        criteria = list(acceptance._CRITERIA)
        criteria[1] = lambda: acceptance._result(2, "stub", False, "made to fail")
        monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
        config = {"command": "acceptance", "params": {"criteria": [5, 2, 1]}}
        out = tmp_path / "gate"
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(out)])
        assert assert_one_error_line(rc, lines, 3) == "one or more acceptance criteria failed"
        results = json.loads((out / "acceptance.json").read_text())
        assert [(r["number"], r["passed"]) for r in results] == [(1, True), (2, False), (5, True)]


def run_main(argv):
    """cli.main(argv); returns (exit code, stderr lines)."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stderr.getvalue().splitlines()


def assert_one_error_line(rc, lines, code):
    assert rc == code
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["exit_code"] == code
    return err["error"]


def langevin_with(**overrides):
    return {"command": "brownian-om", "params": langevin_params(**overrides)}


VELOCITY = {
    "langevin": langevin_params(store_every=1),
    "epsilon": 2e-3,
    "bin_min": -2.0,
    "bin_max": 2.0,
    "n_bins": 4,
}
ANGLES = [0.0, 1.5707963, 0.7853982, -0.7853982]
QUANTUM = {"command": "chsh-quantum", "params": {"angles": ANGLES}}
MALFORMED = [
    ("params.n", {"command": "chsh-hv", "params": {"strategy": {"kind": "sphere_sign"}, "n": [1]}}),
    ("params.n", {"command": "chsh-hv", "params": {"strategy": {"kind": "sphere_sign"}, "n": 10.7}}),
    ("params.strategy", {"command": "chsh-hv", "params": {"strategy": "x", "n": 10}}),
    (
        "params.n_samples",
        {
            "command": "pcsft-average",
            "params": {"covariance": identity_json(2), "kernel": identity_json(2), "n_samples": "abc"},
        },
    ),
    ("params.angles", {"command": "chsh-quantum", "params": {"angles": 3}}),
    ("params.angles[0]", {"command": "chsh-quantum", "params": {"angles": ["a", "b", "c", "d"]}}),
    ("params.sweep_points", {"command": "chsh-quantum", "params": {"angles": ANGLES, "sweep_points": "x"}}),
    ("params.sweep_points", {"command": "chsh-quantum", "params": {"angles": ANGLES, "sweep_points": -1}}),
    ("params.potential", langevin_with(potential="x")),
    ("params.n_trajectories", langevin_with(n_trajectories="5")),
    ("params.dt", langevin_with(dt="x")),
    ("params.temperatures", langevin_with(temperatures="ab")),
    ("params.store_every", langevin_with(store_every=2.5)),
    (
        "params.potential: junk",
        langevin_with(potential={"kind": "harmonic", "spring_constants": [1], "junk": 3}),
    ),
    ("params.epsilon", {"command": "velocity-field", "params": dict(VELOCITY, epsilon="x")}),
    ("params.n_bins", {"command": "velocity-field", "params": dict(VELOCITY, n_bins=0)}),
    ("params.langevin", {"command": "velocity-field", "params": dict(VELOCITY, langevin=[1])}),
    ("config", [QUANTUM]),
    ("paper_units", dict(QUANTUM, paper_units="no")),
    ("seed", dict(QUANTUM, seed=True)),
    ("params.criteria[0]", {"command": "acceptance", "params": {"criteria": [99]}}),
    ("params.criteria", {"command": "acceptance", "params": {"criteria": "x"}}),
    ("params.min_count", {"command": "velocity-field", "params": dict(VELOCITY, min_count=0)}),
    ("params.min_count", {"command": "velocity-field", "params": dict(VELOCITY, min_count=1)}),
    ("params.min_count", {"command": "velocity-field", "params": dict(VELOCITY, min_count=-5)}),
    (
        "params.kernel",
        {
            "command": "pcsft-average",
            "params": {
                "covariance": identity_json(2),
                "kernel": {"dim": 2, "re": [[1.0]], "im": [[0.0]]},
                "n_samples": 10,
            },
        },
    ),
]


@pytest.mark.parametrize("where,config", MALFORMED, ids=[f"{i}-{w}" for i, (w, _) in enumerate(MALFORMED)])
def test_malformed_config_exits_2(tmp_path, where, config):
    rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
    assert where in assert_one_error_line(rc, lines, 2)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config,message",
    [
        (
            langevin_with(n_particles=3, potential={"kind": "harmonic", "spring_constants": [1.0, 2.0]}),
            "2 spring constants for 3 particles",
        ),
        (langevin_with(x_init="statoinary"), "unknown x_init"),
        ({"command": "velocity-field", "params": dict(VELOCITY, bin_min=2.0)}, "params.bin_min"),
        # 50 stored steps where the run has 20
        ({"command": "velocity-field", "params": dict(VELOCITY, epsilon=0.05)}, "longer than the run"),
        (
            langevin_with(potential={"kind": "free", "spring_constants": [5], "coefficients": [0, 0, 3]}),
            "spring_constants belong to a harmonic potential",
        ),
        (
            langevin_with(potential={"kind": "harmonic", "spring_constants": [1], "coefficients": [0, 0, 3]}),
            "coefficients belong to a polynomial potential",
        ),
        (
            langevin_with(potential={"kind": "polynomial", "spring_constants": 5, "coefficients": [0, 0, 3]}),
            "spring_constants belong to a harmonic potential",
        ),
        (langevin_with(potential={"kind": "polynomial"}, x_init=0.0), "polynomial potential needs coefficients"),
        (langevin_with(potential={"kind": "quartic"}, x_init=0.0), "unknown potential kind 'quartic'"),
        # 3.5 stored steps of 1e-3
        (
            {"command": "velocity-field", "params": dict(VELOCITY, epsilon=0.0035)},
            "is not a multiple of the stored step",
        ),
    ],
    ids=[
        "spring-count",
        "x_init",
        "bin-range",
        "epsilon-beyond-run",
        "free-fields",
        "harmonic-coefficients",
        "polynomial-springs",
        "polynomial-without-coefficients",
        "unknown-kind",
        "epsilon-between-stored-steps",
    ],
)
def test_invalid_langevin_model_exits_2(tmp_path, config, message):
    # the runner rejects these after --out a/b/c is created below the
    # existing a; the run removes c and b again, and only those
    config_path = write_config(tmp_path, config)
    (tmp_path / "a").mkdir()
    before = sorted(tmp_path.rglob("*"))
    rc, lines = run_main(["--config", config_path, "--out", str(tmp_path / "a" / "b" / "c")])
    assert message in assert_one_error_line(rc, lines, 2)
    assert sorted(tmp_path.rglob("*")) == before


class TestArgumentErrors:
    @pytest.mark.parametrize("extra", [["--seed", "abc"], ["--bogus"], ["--threads"], None])
    def test_argparse_error_is_one_json_line(self, tmp_path, extra):
        # None: --config itself is missing
        argv = [] if extra is None else ["--config", write_config(tmp_path, QUANTUM), *extra]
        rc, lines = run_main(argv)
        assert "argument" in assert_one_error_line(rc, lines, 2)

    def test_zero_threads_exits_2(self, tmp_path):
        out = tmp_path / "o"
        rc, lines = run_main(["--config", write_config(tmp_path, QUANTUM), "--threads", "0", "--out", str(out)])
        assert assert_one_error_line(rc, lines, 2) == "field 'threads' must be >= 1"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_is_a_file(self, tmp_path, below):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc, lines = run_main(["--config", write_config(tmp_path, QUANTUM), "--out", str(blocker / below)])
        assert "output directory" in assert_one_error_line(rc, lines, 2)


class TestResourceAndBlowUpErrors:
    def test_ensemble_beyond_physical_memory_exits_2(self, tmp_path):
        config_path = write_config(tmp_path, langevin_with(n_trajectories=10**30))
        rc, lines = run_main(["--config", config_path, "--out", str(tmp_path / "o")])
        assert "physical memory" in assert_one_error_line(rc, lines, 2)

    @pytest.mark.parametrize(
        "config,reason",
        [
            # the Monte Carlo and the hidden-variable stream hold one block at
            # any n, so it is their draws that a huge count exceeds
            (
                {
                    "command": "pcsft-average",
                    "params": {"covariance": identity_json(2), "kernel": identity_json(2), "n_samples": 10**15},
                },
                "work ceiling",
            ),
            ({"command": "chsh-hv", "params": {"strategy": {"kind": "sphere_sign"}, "n": 10**15}}, "work ceiling"),
            ({"command": "chsh-quantum", "params": {"angles": ANGLES, "sweep_points": 10**15}}, "physical memory"),
            (langevin_with(n_particles=10**12), "physical memory"),
            ({"command": "velocity-field", "params": dict(VELOCITY, n_bins=10**12)}, "physical memory"),
        ],
        ids=["samples", "records", "sweep", "particles", "bins"],
    )
    def test_counts_beyond_physical_memory_exit_2(self, tmp_path, config, reason):
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert reason in assert_one_error_line(rc, lines, 2)

    def test_step_count_overflow_exits_2(self, tmp_path):
        config_path = write_config(tmp_path, langevin_with(dt=1e-300, t_end=1e300))
        rc, lines = run_main(["--config", config_path, "--out", str(tmp_path / "o")])
        assert "step count" in assert_one_error_line(rc, lines, 2)

    def test_work_beyond_ceiling_exits_2(self, tmp_path):
        # one stored time slice, so only the step count is out of range
        config = langevin_with(t_end=1e12, dt=1e-3, n_trajectories=1, store_every=10**18)
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert "work ceiling" in assert_one_error_line(rc, lines, 2)

    @pytest.mark.parametrize("bin_min", [2.0, 3.0], ids=["equal", "reversed"])
    def test_empty_bin_range_exits_2(self, tmp_path, bin_min):
        config = {"command": "velocity-field", "params": dict(VELOCITY, bin_min=bin_min, bin_max=2.0)}
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert "params.bin_min" in assert_one_error_line(rc, lines, 2)

    def test_subnormal_bin_ranges(self, tmp_path):
        # a few subnormals apart, np.linspace repeats edges, which bin as
        # np.digitize bins them, or puts one below the last, which exits 2
        # (before, np.digitize raised a bare ValueError out of the CLI)
        repeated = {"command": "velocity-field", "params": dict(VELOCITY, bin_min=0.0, bin_max=1e-323), "seed": 1}
        rc, lines = run_main(["--config", write_config(tmp_path, repeated), "--out", str(tmp_path / "a")])
        assert (rc, lines) == (0, [])
        assert len(read_csv(tmp_path / "a" / "velocity_field.csv")) == 4
        unsorted = {"command": "velocity-field", "params": dict(VELOCITY, bin_min=0.0, bin_max=1.5e-323, n_bins=5)}
        rc, lines = run_main(["--config", write_config(tmp_path, unsorted), "--out", str(tmp_path / "b")])
        assert "non-decreasing" in assert_one_error_line(rc, lines, 2)
        assert not (tmp_path / "b").exists()

    def test_overflowing_momenta_exit_3(self, tmp_path):
        # the momenta overflow after the check at step 0 and before the one at
        # step 200; the stream checks its whole final state once the run ends
        params = langevin_params(
            potential={"kind": "harmonic", "spring_constants": [1e308]},
            x_init=0.0,
            dt=0.01,
            t_end=0.04,
            n_trajectories=10,
        )
        config = {"command": "brownian-ctm", "params": params, "seed": 3}
        out = tmp_path / "o"
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(out)])
        assert "blew up" in assert_one_error_line(rc, lines, 3)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_bin_edges_whose_centres_overflow_exit_2(self, tmp_path):
        config = {"command": "velocity-field", "params": dict(VELOCITY, bin_max=1e308)}
        out = tmp_path / "o"
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(out)])
        assert "params.bin_max" in assert_one_error_line(rc, lines, 2)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_bins_far_from_every_sample_give_nan_silently(self, tmp_path):
        config = {"command": "velocity-field", "params": dict(VELOCITY, bin_max=1e307), "seed": 1}
        rc, lines = run_main(["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")])
        assert (rc, lines) == (0, [])
        rows = read_csv(tmp_path / "o" / "osmotic_overlay.csv")
        # the first bin holds every sample, but its centre, 1.25e306, is far from all of them
        assert [float(r["osmotic_oracle"]) for r in rows] == pytest.approx([np.nan] * 4, nan_ok=True)
        assert np.isfinite(float(rows[0]["u"]))

    def test_blow_up_warnings_go_inside_the_json_line(self, tmp_path):
        # a child interpreter: pytest captures warnings, so only a real
        # process shows what reaches stderr; an error filter must not turn
        # the run's overflow warnings into a traceback
        # dt under the quartic's step bound of 1e-3 tau_x = 3.65e-4: from x = 100,
        # x' = x - 4 x^3 dt still overflows within a few steps
        quartic = {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]}
        config = langevin_with(potential=quartic, x_init=100, dt=3e-4, t_end=0.5, n_trajectories=10, store_every=1)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
        for flags in ([], ["-W", "error::RuntimeWarning"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "bildsim.cli", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            lines = proc.stderr.splitlines()
            assert "blew up" in assert_one_error_line(proc.returncode, lines, 3), flags
            assert any("overflow" in w for w in json.loads(lines[0])["warnings"]), flags
            assert not (tmp_path / "o").exists(), flags

    def test_warnings_of_a_run_that_succeeds_are_shown_once_per_place(self, monkeypatch, tmp_path):
        # under Tier-1's error filter; the default action would show the same
        def run(config, out_dir, threads):
            for _ in range(3):
                warnings.warn("repeated", RuntimeWarning)
            warnings.warn("other", RuntimeWarning)

        shown = []
        monkeypatch.setattr(cli, "run_experiment", run)
        monkeypatch.setattr(warnings, "showwarning", lambda message, *args, **kwargs: shown.append(str(message)))
        assert run_main(["--config", write_config(tmp_path, {})]) == (0, [])
        assert shown == ["repeated", "other"]


class TestTrajectoryFile:
    def test_damaged_files_rejected(self, tmp_path):
        config = brownian.LangevinConfig.from_dict(dict(langevin_params(n_trajectories=5), seed=1))
        path = tmp_path / "ok.bin"
        runio.save_trajectories(str(path), brownian.integrate_overdamped(config))
        data = path.read_bytes()
        assert runio.load_trajectories(str(path))["x"].shape == (5, 11, 1)
        (tmp_path / "short.bin").write_bytes(data[:-8])
        with pytest.raises(cli.ValidationError, match="block 'x' is truncated"):
            runio.load_trajectories(str(tmp_path / "short.bin"))
        (tmp_path / "long.bin").write_bytes(data + bytes(8))
        with pytest.raises(cli.ValidationError, match="8 bytes follow"):
            runio.load_trajectories(str(tmp_path / "long.bin"))
        # the same bytes under another schema version
        header = json.loads(data[: data.index(b"\n")])
        header["schema_version"] = 2
        (tmp_path / "schema2.bin").write_bytes(json.dumps(header).encode() + data[data.index(b"\n") :])
        with pytest.raises(cli.ValidationError, match="not a trajectory file of schema 1"):
            runio.load_trajectories(str(tmp_path / "schema2.bin"))
        (tmp_path / "empty.bin").write_bytes(b"")
        with pytest.raises(cli.ValidationError, match="bad trajectory header"):
            runio.load_trajectories(str(tmp_path / "empty.bin"))
        body = data[data.index(b"\n") + 1 :]
        # each header passes the schema and dtype checks and fails the one its reason names
        foreign = [
            ("no list of blocks", {}),
            ("foreign trajectory block", {"blocks": [{"shape": [11]}]}),
            ("foreign trajectory block", {"blocks": [{"name": "times", "shape": "ab"}]}),
            ("foreign trajectory block", {"blocks": [{"name": "times", "shape": [-1]}]}),
            ("block 'times' is truncated", {"blocks": [{"name": "times", "shape": [10**12]}]}),
        ]
        for i, (reason, blocks) in enumerate(foreign):
            header = dict(schema_version=1, dtype="<f8", **blocks)
            (tmp_path / f"foreign{i}.bin").write_bytes(json.dumps(header).encode() + b"\n" + body)
            with pytest.raises(cli.ValidationError, match=reason):
                runio.load_trajectories(str(tmp_path / f"foreign{i}.bin"))
        # nested deeper than json's recursion limit, within the header bound
        (tmp_path / "nested.bin").write_bytes(b"[" * 10**4 + b"]" * 10**4 + b"\n" + body)
        with pytest.raises(cli.ValidationError, match="bad trajectory header: maximum recursion"):
            runio.load_trajectories(str(tmp_path / "nested.bin"))
        # headers that differ from a valid one in dtype, block names or block
        # shapes only, each followed by as many bytes as its blocks take
        good = json.loads(data[: data.index(b"\n")])
        times, x = good["blocks"]
        altered = [
            ("dtype", dict(good, dtype=">f8")),
            ("no times", dict(good, blocks=[x])),
            ("no x", dict(good, blocks=[times])),
            ("foreign trajectory block", dict(good, blocks=[times, x, {"name": "x", "shape": [0]}])),
            ("foreign trajectory block", dict(good, blocks=[times, x, {"name": "header", "shape": [0]}])),
        ]
        # shapes of times, x and p (None: no p block) that do not form one ensemble
        for shapes in (
            ([3], [4, 5], [2]),
            ([1, 3], [4, 3, 1], None),
            ([3], [4, 3], None),
            ([3], [4, 5, 1], None),
            ([3], [4, 3, 1], [4, 3, 2]),
            ([3], [4, 3, 1], [3, 4, 1]),
        ):
            blocks = [{"name": n, "shape": s} for n, s in zip(("times", "x", "p"), shapes) if s is not None]
            altered.append(("do not form an ensemble", dict(good, blocks=blocks)))
        for i, (reason, header) in enumerate(altered):
            size = sum(8 * int(np.prod(block["shape"])) for block in header["blocks"])
            (tmp_path / f"altered{i}.bin").write_bytes(json.dumps(header).encode() + b"\n" + bytes(size))
            with pytest.raises(cli.ValidationError, match=reason):
                runio.load_trajectories(str(tmp_path / f"altered{i}.bin"))

    def test_header_line_is_bounded(self, tmp_path):
        # 8 MiB with no line end: the reader gives up after 64 KiB, not at the end of the file
        path = tmp_path / "foreign.bin"
        path.write_bytes(b" " * 2**23)
        tracemalloc.start()
        try:
            with pytest.raises(cli.ValidationError, match="no line end within 65536 bytes"):
                runio.load_trajectories(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        # a header line of exactly 64 KiB, its line end included, is read
        config = brownian.LangevinConfig.from_dict(dict(langevin_params(n_trajectories=5), seed=1))
        runio.save_trajectories(str(path), brownian.integrate_overdamped(config))
        data = path.read_bytes()
        end = data.index(b"\n")
        path.write_bytes(data[:end] + b" " * (2**16 - 1 - end) + data[end:])
        assert runio.load_trajectories(str(path))["x"].shape == (5, 11, 1)

    @staticmethod
    def save_peak(path, x):
        """tracemalloc peak of save_trajectories on positions x; checks the round trip."""
        params = langevin_params(n_trajectories=x.shape[0], t_end=0.1, store_every=1)
        config = brownian.LangevinConfig.from_dict(dict(params, seed=1))
        ens = brownian.TrajectoryEnsemble(times=np.arange(x.shape[1]) * 1e-3, x=x, p=None, config=config)
        tracemalloc.start()
        try:
            runio.save_trajectories(path, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(runio.load_trajectories(path)["x"], x)
        return peak

    def test_save_streams_the_ensemble(self, tmp_path):
        # a 40 MB ensemble; holding the file in memory would need as much again
        x = np.random.default_rng(0).standard_normal((50_000, 101, 1))
        peak = self.save_peak(str(tmp_path / "big.bin"), x)
        assert peak < 8 * 2**20, peak

    def test_save_streams_a_time_major_ensemble(self, tmp_path):
        # the integrators' layout: a (trajectory, time, particle) view of
        # time-major memory, 40 MB, which the writer must reorder chunk by chunk
        x = np.random.default_rng(0).standard_normal((101, 50_000, 1)).transpose(1, 0, 2)
        assert not x.flags.c_contiguous
        peak = self.save_peak(str(tmp_path / "big.bin"), x)
        assert peak < 4 * 2**20, peak

    @staticmethod
    def save(path, times, x):
        config = brownian.LangevinConfig.from_dict(dict(langevin_params(), seed=1))
        runio.save_trajectories(path, brownian.TrajectoryEnsemble(times=times, x=x, p=None, config=config))

    def test_load_maps_the_file(self, tmp_path):
        # a 40 MB ensemble; reading it into memory would take as much again
        path = str(tmp_path / "big.bin")
        x = np.random.default_rng(0).standard_normal((50_000, 101, 1))
        self.save(path, np.arange(101) * 1e-3, x)
        tracemalloc.start()
        try:
            data = runio.load_trajectories(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert not data["times"].flags.writeable and not data["x"].flags.writeable
        np.testing.assert_array_equal(data["times"], np.arange(101) * 1e-3)
        np.testing.assert_array_equal(data["x"], x)
        # zero-size blocks: the file is its header line alone
        self.save(path, np.empty(0), np.empty((0, 0, 1)))
        assert (tmp_path / "big.bin").read_bytes().index(b"\n") == os.path.getsize(path) - 1
        data = runio.load_trajectories(path)
        assert data["times"].shape == (0,) and data["x"].shape == (0, 0, 1)

    def test_load_outlives_its_file(self, tmp_path):
        path = str(tmp_path / "run.bin")
        times, x = np.arange(11) * 1e-3, np.random.default_rng(0).standard_normal((100, 11, 1))
        self.save(path, times, x)
        fd_dir = "/proc/self/fd"
        fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
        data = runio.load_trajectories(path)
        # a rerun into the same path renames a new file over the old one
        self.save(path, times, -x)
        np.testing.assert_array_equal(data["x"], x)
        np.testing.assert_array_equal(runio.load_trajectories(path)["x"], -x)
        if fds is None:
            pytest.skip(f"no {fd_dir} to count descriptors in")
        assert len(os.listdir(fd_dir)) == fds + 1
        del data
        assert len(os.listdir(fd_dir)) == fds
        # a rejected file's map is closed by the loader, not when its error is dropped
        (tmp_path / "run.bin").write_bytes((tmp_path / "run.bin").read_bytes()[:-8])
        with pytest.raises(cli.ValidationError, match="truncated") as error:
            runio.load_trajectories(path)
        assert error.traceback and len(os.listdir(fd_dir)) == fds


# dimensions of a block: small, at numpy's limits and beyond them, negative, and not ints
DIMENSIONS = st.integers(0, 4) | st.sampled_from([2**31, 2**62, 2**63, 2**64, 10**30, -1, 1.0, True])


@st.composite
def trajectory_files(draw):
    """A header line and bytes: junk, or a header of times, x and maybe p
    blocks of any dimensions, mostly of one ensemble's shapes, and maybe one
    foreign block; then as many bytes as its blocks take, or any number."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64)) + b"\n" + draw(st.binary(max_size=64))
    n, t, k = draw(DIMENSIONS), draw(DIMENSIONS), draw(DIMENSIONS)
    shapes = {"times": [t], "x": [n, t, k], "p": [n, t, k]}
    for name in draw(st.sets(st.sampled_from(sorted(shapes)))):
        shapes[name] = draw(st.lists(DIMENSIONS, max_size=4))
    names = ["times", "x"] + (["p"] if draw(st.booleans()) else [])
    blocks = [{"name": name, "shape": shapes[name]} for name in names]
    if draw(st.integers(0, 9)) == 0:
        foreign = {"name": draw(st.sampled_from(names + ["header"])), "shape": [1]}
        blocks.insert(draw(st.integers(0, len(blocks))), foreign)
    header = {"schema_version": 1, "dtype": "<f8", "blocks": blocks}
    sizes = [math.prod(block["shape"]) for block in blocks]
    exact = 8 * sum(sizes) if all(type(size) is int and 0 <= size < 2**10 for size in sizes) else 0
    size = draw(st.sampled_from([exact, exact + 8, max(exact - 8, 0)]) | st.integers(0, 256))
    return json.dumps(header).encode() + b"\n" + draw(st.binary(min_size=size, max_size=size))


def zero_size_file(x_shape):
    blocks = [{"name": "times", "shape": [0]}, {"name": "x", "shape": x_shape}]
    header = {"schema_version": 1, "dtype": "<f8", "blocks": blocks}
    return json.dumps(header).encode() + b"\n"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=trajectory_files())
@example(data=zero_size_file([10**30, 0, 1]))
@example(data=zero_size_file([2**63, 0, 1]))
@example(data=zero_size_file([2**62, 0, 2**62]))
@example(data=zero_size_file([5, 0, 1]))
def test_trajectory_file_loads_as_its_header_says_or_is_rejected(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            loaded = runio.load_trajectories(path)
        except cli.ValidationError:
            return
        for block in loaded["header"]["blocks"]:
            assert loaded[block["name"]].shape == tuple(block["shape"])


# small valid configs: no mutation with the numbers below can make them run long
FUZZ_SEEDS = {
    "pcsft-average": {"covariance": identity_json(2), "kernel": identity_json(2), "n_samples": 100},
    "pcsft-correlation": {
        "covariance": identity_json(2),
        "kernel": identity_json(2),
        "kernel2": identity_json(2),
        "n_samples": 100,
    },
    "chsh-quantum": {"angles": ANGLES, "sweep_points": 5},
    "chsh-hv": {"strategy": {"kind": "sphere_sign", "angles": ANGLES}, "n": 100},
    "brownian-ctm": langevin_params(dt=1e-2, t_end=0.05, n_trajectories=10, x_init=0.0),
    "brownian-om": langevin_params(t_end=0.01, n_trajectories=10),
    "velocity-field": dict(
        VELOCITY, langevin=langevin_params(n_trajectories=100, store_every=1), min_count=5
    ),
}
JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from([-1, 0, 0.5, 1, 2, 3.7]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def locations(obj, path=()):
    """(path to a container, key or index) for every value at any depth."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path, key
        yield from locations(value, path + (key,))


@pytest.mark.parametrize("command", sorted(FUZZ_SEEDS))
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_exits_cleanly(command, data):
    config = copy.deepcopy({"command": command, "params": FUZZ_SEEDS[command], "seed": 7})
    path, key = data.draw(st.sampled_from(list(locations(config))))
    container = config
    for step in path:
        container = container[step]
    action = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop":
        del container[key]
    elif action == "replace":
        container[key] = data.draw(JUNK)
    elif isinstance(container, list):
        container.append(data.draw(JUNK))
    else:
        container[data.draw(st.text(max_size=4))] = data.draw(JUNK)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        rc, lines = run_main(["--config", config_path, "--out", os.path.join(tmp, "o")])
    assert rc in (0, 2, 3)
    if rc:
        assert_one_error_line(rc, lines, rc)


# not finite, near the float64 limits, and ints beyond an int64 and beyond what a float64 holds
EXTREMES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-300, 5e-324, 2**63, 2**64 + 1, -0.0]


@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize("command", sorted(FUZZ_SEEDS))
def test_extreme_number_at_every_leaf_exits_cleanly(command, value):
    # JUNK draws only small numbers; these reach the overflow, rounding and
    # float64 edges of every numeric field, one field at a time. A run that
    # succeeds writes strict JSON, and one that fails leaves no output behind.
    config = {"command": command, "params": FUZZ_SEEDS[command], "seed": 7}

    def reject(constant):
        raise ValueError(f"{constant} in a JSON output")

    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        for i, (path, key) in enumerate(locations(config)):
            mutated = copy.deepcopy(config)
            container = mutated
            for step in path:
                container = container[step]
            if isinstance(container[key], bool) or not isinstance(container[key], (int, float)):
                continue
            container[key] = value
            with open(config_path, "w") as fh:
                json.dump(mutated, fh)
            out = os.path.join(tmp, f"o{i}")
            rc, lines = run_main(["--config", config_path, "--out", out])
            assert rc in (0, 2, 3), (path, key)
            if rc:
                assert_one_error_line(rc, lines, rc)
                assert not os.path.exists(out), (path, key, os.listdir(out))
                continue
            for name in os.listdir(out):
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as fh:
                        json.load(fh, parse_constant=reject)
