"""Workload definitions: inputs generated from a workload seed, the
operations a session runs, and an independent oracle check for each.

Every operation goes through the public API a user would call: CLI commands
through ``bildsim.cli.run_experiment`` with ``threads=1``, analysis steps
through ``bildsim.runio`` and ``bildsim.brownian``. The oracles are computed
here in numpy from closed forms, never by asking the program again.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bildsim import brownian, cli, runio


@dataclass
class Op:
    """One timed operation: ``run`` produces a result, ``check`` judges it.

    ``kind`` is "cmd" for a CLI command (its time counts towards
    ``cmd.<name>_s``) or "analysis" for a user's post-processing step.
    ``check`` returns (ok, detail); it is not timed.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _config_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def _random_psd(rng, d: int) -> np.ndarray:
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = c @ c.conj().T
    return 0.5 * (b + b.conj().T)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli_op(config: dict, out_dir: str, check) -> Op:
    def run():
        return cli.run_experiment(config, out_dir, threads=1)

    return Op(config["command"], "cmd", run, lambda outputs: check(out_dir, outputs))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- quantum


def _quantum(seed: int, out: str, tiny: bool) -> tuple:
    rng = _rng(seed)
    d = 3
    n_samples = 2000 if tiny else 2_000_000
    sweep_points = 11 if tiny else 2001
    n_records = 1000 if tiny else 4_000_000
    a, g, b = _random_hermitian(rng, d), _random_hermitian(rng, d), _random_psd(rng, d)
    hv_angles = [float(t) for t in rng.uniform(-np.pi, np.pi, size=4)]

    exact_avg = float(np.trace(a @ b).real)
    exact_wick = float(
        np.trace(a @ b).real * np.trace(g @ b).real + np.trace(a @ b @ g @ b).real
    )

    def check_mc(key):
        def check(out_dir, _outputs):
            s = _read_json(os.path.join(out_dir, "summary.json"))
            exact = exact_avg if key == "exact_average" else exact_wick
            if not _close(s[key], exact, 1e-10 * max(1.0, abs(exact))):
                return False, f"{key} {s[key]!r} != numpy {exact!r}"
            if not _close(s["mc_mean"], exact, 5.0 * s["mc_stderr"]):
                return False, f"mc_mean {s['mc_mean']} not within 5 sigma of {exact}"
            return True, ""

        return check

    def check_quantum(out_dir, _outputs):
        s = _read_json(os.path.join(out_dir, "summary.json"))
        if not _close(abs(s["S_quantum"]), 2.0 * math.sqrt(2.0), 1e-12):
            return False, f"S_quantum {s['S_quantum']!r} != 2 sqrt 2"
        sweep = _read_csv(os.path.join(out_dir, "sweep.csv"))
        if len(sweep) != sweep_points:
            return False, f"{len(sweep)} sweep rows, expected {sweep_points}"
        # singlet: E(a, b) = -cos(a - b), so S(0, pi/2, t, -t) = -2 (cos t + sin t)
        for row in sweep:
            t = float(row["theta"])
            if not _close(float(row["S"]), -2.0 * (math.cos(t) + math.sin(t)), 1e-12):
                return False, f"sweep S({t}) = {row['S']}"
        return True, ""

    def check_hv(out_dir, _outputs):
        s = _read_json(os.path.join(out_dir, "summary.json"))
        n = s["n"]
        cols = dict(zip(("A1", "A2", "B1", "B2"), hv_angles))

        def sphere(p):
            delta = abs((cols[p[:2]] - cols[p[2:]] + np.pi) % (2 * np.pi) - np.pi)
            return 1.0 - 2.0 * delta / np.pi

        for row in _read_csv(os.path.join(out_dir, "correlations.csv")):
            e = sphere(row["pair"])
            sigma = math.sqrt(max(1.0 - e * e, 0.0) / n)
            if not _close(float(row["empirical"]), e, 5.0 * sigma + 1e-12):
                return False, f"pair {row['pair']} {row['empirical']} vs {e}"
            if row["exact_or_quantum"]:
                q = -math.cos(cols[row["pair"][:2]] - cols[row["pair"][2:]])
                if not _close(float(row["exact_or_quantum"]), q, 1e-12):
                    return False, f"pair {row['pair']} quantum {row['exact_or_quantum']} vs {q}"
        s_exact = sphere("A1B1") + sphere("A1B2") + sphere("A2B1") - sphere("A2B2")
        # each record's S term is +-2, so its variance is 4 - S^2
        sigma = math.sqrt(max(4.0 - s_exact**2, 0.0) / n)
        if not _close(s["S_stream"], s_exact, 5.0 * sigma + 1e-12):
            return False, f"S_stream {s['S_stream']} vs sphere-sign {s_exact}"
        return True, ""

    ops = [
        _cli_op(
            {
                "command": "pcsft-average",
                "params": {"covariance": _matrix_json(b), "kernel": _matrix_json(a), "n_samples": n_samples},
                "seed": _config_seed(rng),
            },
            os.path.join(out, "pcsft-average"),
            check_mc("exact_average"),
        ),
        _cli_op(
            {
                "command": "pcsft-correlation",
                "params": {
                    "covariance": _matrix_json(b),
                    "kernel": _matrix_json(a),
                    "kernel2": _matrix_json(g),
                    "n_samples": n_samples,
                },
                "seed": _config_seed(rng),
            },
            os.path.join(out, "pcsft-correlation"),
            check_mc("exact_pair_correlation"),
        ),
        _cli_op(
            {
                "command": "chsh-quantum",
                "params": {"angles": [0.0, np.pi / 2, np.pi / 4, -np.pi / 4], "sweep_points": sweep_points},
                "seed": _config_seed(rng),
            },
            os.path.join(out, "chsh-quantum"),
            check_quantum,
        ),
        _cli_op(
            {
                "command": "chsh-hv",
                "params": {"strategy": {"kind": "sphere_sign", "angles": hv_angles}, "n": n_records},
                "seed": _config_seed(rng),
            },
            os.path.join(out, "chsh-hv"),
            check_hv,
        ),
    ]
    expected = {"fields.samples": 2 * n_samples, "chsh.records": n_records}
    return ops, expected


# ------------------------------------------------------------ ensemble-io


def _langevin(potential: dict, n_traj: int, t_end: float, x_init) -> dict:
    return {
        "n_particles": 1,
        "mass": 1.0,
        "friction": 1.0,
        "temperatures": [1.0],
        "potential": potential,
        "dt": 1e-3,
        "t_end": t_end,
        "n_trajectories": n_traj,
        "store_every": 1,
        "x_init": x_init,
    }


def _n_steps(params: dict) -> int:
    return int(round(params["t_end"] / params["dt"]))


def _ensemble_io(seed: int, out: str, tiny: bool) -> tuple:
    rng = _rng(seed)
    harmonic = {"kind": "harmonic", "spring_constants": [1.0]}
    t_end = 0.002 if tiny else 0.1
    # the Fokker-Planck residual needs >= 1e5 trajectories, even when tiny
    om = _langevin(harmonic, 100_000, t_end, "stationary")
    ctm = _langevin({"kind": "free"}, 10_000 if tiny else 50_000, t_end, 0.0)
    small = _langevin(harmonic, 490, t_end, "stationary")
    seeds = [_config_seed(rng) for _ in range(3)]
    om_dir, ctm_dir, small_dir = (os.path.join(out, k) for k in ("om", "ctm", "om-csv"))
    state = {}

    def config_of(params, s):
        return brownian.LangevinConfig.from_dict(dict(params, seed=s, paper_units=False))

    def check_run(name):
        def check(out_dir, outputs):
            expected = {name, "timescales.json", "manifest.json"}
            if set(outputs) != expected:
                return False, f"outputs {sorted(outputs)}, expected {sorted(expected)}"
            missing = [o for o in outputs if not os.path.isfile(os.path.join(out_dir, o))]
            return (not missing), f"missing {missing}" if missing else ""

        return check

    def check_csv(out_dir, outputs):
        ok, detail = check_run("trajectories.csv")(out_dir, outputs)
        if not ok:
            return ok, detail
        rows = _read_csv(os.path.join(out_dir, "trajectories.csv"))
        expected = small["n_trajectories"] * (_n_steps(small) + 1)
        return len(rows) == expected, f"{len(rows)} csv rows, expected {expected}"

    def load(params, s, path, key):
        def run():
            data = runio.load_trajectories(path)
            if key:
                state[key] = data
            return data

        def check(data):
            n_times = _n_steps(params) + 1
            shape = [params["n_trajectories"], n_times, 1]
            want_hash = runio.config_hash(config_of(params, s).to_dict())
            if data["header"]["config_hash"] != want_hash:
                return False, "config_hash differs from runio.config_hash(config.to_dict())"
            blocks = {blk["name"]: blk["shape"] for blk in data["header"]["blocks"]}
            for name in ("x", "p") if params["potential"]["kind"] == "free" else ("x",):
                if blocks.get(name) != shape or list(data[name].shape) != shape:
                    return False, f"block {name} shape {blocks.get(name)}, expected {shape}"
            times = np.arange(n_times) * params["dt"]
            if not np.allclose(data["times"], times, rtol=0, atol=1e-12):
                return False, "stored times differ from k * dt"
            return True, ""

        return Op("load_trajectories", "analysis", run, check)

    def residual():
        data = state.pop("om")
        ens = brownian.TrajectoryEnsemble(
            times=data["times"], x=data["x"], p=None, config=config_of(om, seeds[0])
        )
        return brownian.fokker_planck_residual(ens)

    ops = [
        _cli_op({"command": "brownian-om", "params": om, "seed": seeds[0]}, om_dir, check_run("trajectories.bin")),
        _cli_op({"command": "brownian-ctm", "params": ctm, "seed": seeds[1]}, ctm_dir, check_run("trajectories.bin")),
        _cli_op({"command": "brownian-om", "params": small, "seed": seeds[2]}, small_dir, check_csv),
        load(om, seeds[0], os.path.join(om_dir, "trajectories.bin"), "om"),
        load(ctm, seeds[1], os.path.join(ctm_dir, "trajectories.bin"), None),
        Op(
            "fokker_planck_residual",
            "analysis",
            residual,
            lambda r: (math.isfinite(r), f"residual {r}"),
        ),
    ]
    steps = sum(p["n_trajectories"] * _n_steps(p) for p in (om, ctm, small))
    return ops, {"brownian.traj_steps": steps}


# --------------------------------------------------------------- velocity


def _velocity(seed: int, out: str, tiny: bool) -> tuple:
    rng = _rng(seed)
    n_traj = 2000 if tiny else 40_000
    langevin = _langevin({"kind": "harmonic", "spring_constants": [1.0]}, n_traj, 0.12, "stationary")
    n_bins = 41
    params = {"langevin": langevin, "epsilon": 4e-3, "bin_min": -2.05, "bin_max": 2.05, "n_bins": n_bins}

    def check(out_dir, _outputs):
        rows = _read_csv(os.path.join(out_dir, "velocity_field.csv"))
        if len(rows) != n_bins:
            return False, f"{len(rows)} bins, expected {n_bins}"
        # stationary harmonic, k = T = gamma = 1: u(x) = -D d/dx log P = x.
        # u = (v_minus - v_plus) / 2 is built from the same displacements, so
        # sigma is the bound (v_plus_err + v_minus_err) / 2 on its standard
        # deviation, which holds whatever their correlation. The program's
        # u_err assumes them independent.
        row = min(rows, key=lambda r: abs(float(r["bin_center"]) - 1.0))
        u = float(row["u"])
        sigma = 0.5 * (float(row["v_plus_err"]) + float(row["v_minus_err"]))
        return _close(u, 1.0, 3.0 * sigma + 0.05), f"u(x~1) = {u}, sigma {sigma}, u_err {row['u_err']}"

    op = _cli_op(
        {"command": "velocity-field", "params": params, "seed": _config_seed(rng)},
        os.path.join(out, "velocity-field"),
        check,
    )
    n_stored = _n_steps(langevin) + 1
    expected = {
        "brownian.traj_steps": n_traj * _n_steps(langevin),
        "brownian.kde_pairs": n_traj * n_stored * n_bins,
    }
    return [op], expected


# ------------------------------------------------------------------- gate


def _gate(seed: int, out: str, tiny: bool) -> tuple:
    rng = _rng(seed)
    params = {"criteria": [7]} if tiny else {}
    out_dir = os.path.join(out, "acceptance")

    def check(_out_dir, _outputs):
        results = _read_json(os.path.join(out_dir, "acceptance.json"))
        failed = [r["number"] for r in results if not r["passed"]]
        return not failed, f"criteria failed: {failed}" if failed else ""

    op = _cli_op({"command": "acceptance", "params": params, "seed": _config_seed(rng)}, out_dir, check)
    return [op], {}


_BUILDERS = {
    "quantum": _quantum,
    "ensemble-io": _ensemble_io,
    "velocity": _velocity,
    "gate": _gate,
}


def build(name: str, seed: int, out: str, tiny: bool = False):
    """Operations of one session, and the counts a traced session must show.

    ``tiny`` builds the same operations at warm-up size.
    """
    return _BUILDERS[name](seed, out, tiny)
