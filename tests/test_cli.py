import csv
import hashlib
import json

import numpy as np
import pytest

from bildsim import cli, linalg, runio


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


class TestManifestAndDeterminism:
    @staticmethod
    def digests(out):
        result = {}
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                continue
            result[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return result

    def test_rerun_byte_identical(self, tmp_path):
        config = {
            "command": "chsh-hv",
            "params": {"strategy": {"kind": "sphere_sign"}, "n": 5000},
            "seed": 8,
        }
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run_experiment(config, str(out1), threads=1)
        cli.run_experiment(config, str(out2), threads=4)
        assert self.digests(out1) == self.digests(out2)

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
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run_experiment(config, str(out1))
        cli.run_experiment(config, str(out2), seed_override=9)
        assert self.digests(out1) != self.digests(out2)

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
