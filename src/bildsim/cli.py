"""Command-line front end.

One experiment per run: the JSON config names a subcommand and its parameter
block, the CLI validates it strictly (unknown keys are errors), dispatches to
the benches, and writes CSV/JSON outputs plus a plot-ready bundle atomically,
with a run manifest written last.

Exit codes: 0 success, 2 config error, 3 numerical failure. Errors are
emitted as one JSON object on stderr.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, acceptance, brownian, chsh, fields, linalg, runio
from .errors import BildsimError, NumericalError, RegimeError, ValidationError

COMMANDS = (
    "pcsft-average",
    "pcsft-correlation",
    "chsh-quantum",
    "chsh-hv",
    "brownian-ctm",
    "brownian-om",
    "velocity-field",
    "acceptance",
)

# CSV threshold below which trajectory output stays human-readable
CSV_TRAJECTORY_LIMIT = 50_000


def _require_keys(obj: dict, allowed: set, required: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"unknown field(s) in {context}: {', '.join(sorted(unknown))}"
        )
    missing = required - set(obj)
    if missing:
        raise ValidationError(
            f"missing required field(s) in {context}: {', '.join(sorted(missing))}"
        )


def validate_config(config: dict) -> dict:
    _require_keys(
        config,
        allowed={"command", "params", "seed", "out", "paper_units"},
        required={"command", "params"},
        context="config",
    )
    if config["command"] not in COMMANDS:
        raise ValidationError(
            f"unknown command {config['command']!r}; expected one of {COMMANDS}"
        )
    if not isinstance(config["params"], dict):
        raise ValidationError("field 'params' must be an object")
    _check_seed(config.get("seed", 0))
    return config


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ValidationError("field 'seed' must be an unsigned 64-bit integer")


def _fmt(x) -> str:
    return repr(float(x))


def _angles_from_params(raw) -> chsh.ChshAngles:
    vals = list(raw)
    if len(vals) != 4:
        raise ValidationError("field 'angles' must hold four numbers [a1,a2,b1,b2]")
    return chsh.ChshAngles(*[float(v) for v in vals])


def _run_pcsft_average(params: dict, seed: int, out: str) -> list[str]:
    _require_keys(
        params,
        allowed={"covariance", "kernel", "n_samples"},
        required={"covariance", "kernel", "n_samples"},
        context="params",
    )
    measure = fields.FieldMeasure(linalg.matrix_from_json(params["covariance"]))
    variable = fields.QuadraticVariable(linalg.matrix_from_json(params["kernel"]))
    n = int(params["n_samples"])
    exact = fields.exact_average(variable, measure)
    est = fields.mc_average(variable, measure, n, seed)
    energy = fields.average_energy(measure)
    coupling = fields.normalized_coupling_check(variable, measure)
    rows = [
        ["average", _fmt(exact), _fmt(est.mean), _fmt(est.std_error), n, seed],
        ["energy", _fmt(energy), "", "", n, seed],
        ["normalized_average", _fmt(coupling.rhs), "", "", n, seed],
    ]
    runio.write_csv(
        os.path.join(out, "results.csv"),
        ["quantity", "exact", "mc_mean", "mc_stderr", "n", "seed"],
        rows,
    )
    runio.write_json(
        os.path.join(out, "summary.json"),
        {
            "exact_average": exact,
            "mc_mean": est.mean,
            "mc_stderr": est.std_error,
            "average_energy": energy,
            "coupling_gap": coupling.gap,
            "n_samples": n,
            "seed": seed,
        },
    )
    _write_scatter_plot_bundle(out, [("average", exact, est.mean, est.std_error)])
    return ["results.csv", "summary.json", "plot_data.csv", "plot.py"]


def _run_pcsft_correlation(params: dict, seed: int, out: str) -> list[str]:
    _require_keys(
        params,
        allowed={"covariance", "kernel", "kernel2", "n_samples"},
        required={"covariance", "kernel", "kernel2", "n_samples"},
        context="params",
    )
    measure = fields.FieldMeasure(linalg.matrix_from_json(params["covariance"]))
    v = fields.QuadraticVariable(linalg.matrix_from_json(params["kernel"]))
    w = fields.QuadraticVariable(linalg.matrix_from_json(params["kernel2"]))
    n = int(params["n_samples"])
    exact = fields.exact_pair_correlation(v, w, measure)
    est = fields.mc_pair_correlation(v, w, measure, n, seed)
    runio.write_csv(
        os.path.join(out, "results.csv"),
        ["quantity", "exact", "mc_mean", "mc_stderr", "n", "seed"],
        [["pair_correlation", _fmt(exact), _fmt(est.mean), _fmt(est.std_error), n, seed]],
    )
    runio.write_json(
        os.path.join(out, "summary.json"),
        {
            "exact_pair_correlation": exact,
            "mc_mean": est.mean,
            "mc_stderr": est.std_error,
            "n_samples": n,
            "seed": seed,
        },
    )
    _write_scatter_plot_bundle(out, [("pair_correlation", exact, est.mean, est.std_error)])
    return ["results.csv", "summary.json", "plot_data.csv", "plot.py"]


def _run_chsh_quantum(params: dict, seed: int, out: str) -> list[str]:
    _require_keys(
        params,
        allowed={"angles", "sweep_points"},
        required={"angles"},
        context="params",
    )
    angles = _angles_from_params(params["angles"])
    rho = chsh.singlet_state()
    s = chsh.chsh_value(rho, angles)
    pair_angles = {
        "A1B1": (angles.a1, angles.b1),
        "A1B2": (angles.a1, angles.b2),
        "A2B1": (angles.a2, angles.b1),
        "A2B2": (angles.a2, angles.b2),
    }
    rows = [
        [pair, "", _fmt(chsh.quantum_correlation(rho, ta, tb)), 0, seed]
        for pair, (ta, tb) in pair_angles.items()
    ]
    runio.write_csv(
        os.path.join(out, "correlations.csv"),
        ["pair", "empirical", "exact_or_quantum", "n", "seed"],
        rows,
    )
    audit = chsh.compatibility_audit(angles)
    runio.write_json(
        os.path.join(out, "summary.json"),
        {
            "S_quantum": s,
            "S_classical_max": chsh.deterministic_bound_enumeration(),
            "angles": list(angles.as_tuple()),
            "degenerate_settings": audit["degenerate"],
        },
    )
    sweep_points = int(params.get("sweep_points", 121))
    thetas = np.linspace(0.0, np.pi, sweep_points)
    sweep_rows = []
    for theta in thetas:
        sw = chsh.chsh_value(rho, chsh.ChshAngles(0.0, np.pi / 2, theta, -theta))
        sweep_rows.append([_fmt(theta), _fmt(sw)])
    runio.write_csv(os.path.join(out, "sweep.csv"), ["theta", "S"], sweep_rows)
    _write_sweep_plot_bundle(out)
    return ["correlations.csv", "summary.json", "sweep.csv", "plot.py"]


def _run_chsh_hv(params: dict, seed: int, out: str) -> list[str]:
    _require_keys(
        params,
        allowed={"strategy", "n"},
        required={"strategy", "n"},
        context="params",
    )
    raw = dict(params["strategy"])
    _require_keys(
        raw,
        allowed={"kind", "angles", "constants"},
        required={"kind"},
        context="params.strategy",
    )
    kind = raw["kind"]
    if kind == "sphere_sign":
        angles = _angles_from_params(raw.get("angles", list(chsh.OPTIMAL_ANGLES)))
        strategy = chsh.HvStrategy(kind=kind, angles=angles)
    else:
        strategy = chsh.HvStrategy(
            kind=kind, constants=tuple(raw.get("constants", (1, 1, 1, 1)))
        )
        angles = strategy.angles
    n = int(params["n"])
    stream = chsh.hv_sample(strategy, n, seed)
    rho = chsh.singlet_state()
    quantum_ref = {
        "A1B1": chsh.quantum_correlation(rho, angles.a1, angles.b1),
        "A1B2": chsh.quantum_correlation(rho, angles.a1, angles.b2),
        "A2B1": chsh.quantum_correlation(rho, angles.a2, angles.b1),
        "A2B2": chsh.quantum_correlation(rho, angles.a2, angles.b2),
    }
    rows = []
    for pair in chsh.PAIR_NAMES:
        emp = chsh.empirical_correlation(stream, pair)
        ref = _fmt(quantum_ref[pair]) if pair in quantum_ref else ""
        rows.append([pair, _fmt(emp), ref, n, seed])
    runio.write_csv(
        os.path.join(out, "correlations.csv"),
        ["pair", "empirical", "exact_or_quantum", "n", "seed"],
        rows,
    )
    runio.write_json(
        os.path.join(out, "summary.json"),
        {
            "S_quantum": chsh.chsh_value(rho, angles),
            "S_classical_max": chsh.deterministic_bound_enumeration(),
            "S_stream": chsh.chsh_from_stream(stream),
            "n": n,
            "seed": seed,
            "strategy": stream.strategy,
        },
    )
    return ["correlations.csv", "summary.json"]


def _langevin_config(raw: dict, seed: int, paper_units: bool) -> brownian.LangevinConfig:
    config_fields = dataclasses.fields(brownian.LangevinConfig)
    _require_keys(
        raw,
        allowed={f.name for f in config_fields} - {"seed", "paper_units"},
        required={f.name for f in config_fields if f.default is dataclasses.MISSING} - {"seed"},
        context="params.langevin",
    )
    obj = dict(raw)
    obj["seed"] = seed
    obj["paper_units"] = paper_units
    return brownian.LangevinConfig.from_dict(obj)


def _write_trajectories(out: str, ens: brownian.TrajectoryEnsemble) -> list[str]:
    size = ens.x.size + (ens.p.size if ens.p is not None else 0)
    if size <= CSV_TRAJECTORY_LIMIT:
        header = ["trajectory", "time", "particle", "x"]
        if ens.p is not None:
            header.append("p")
        runio.write_csv(
            os.path.join(out, "trajectories.csv"),
            header,
            runio.trajectories_to_csv_rows(ens),
        )
        return ["trajectories.csv"]
    runio.save_trajectories(os.path.join(out, "trajectories.bin"), ens)
    return ["trajectories.bin"]


def _run_brownian(params: dict, seed: int, out: str, paper_units: bool, underdamped: bool) -> list[str]:
    config = _langevin_config(params, seed, paper_units)
    report = brownian.timescale_report(config)
    if underdamped:
        ens = brownian.integrate_underdamped(config)
    else:
        ens = brownian.integrate_overdamped(config)
    outputs = _write_trajectories(out, ens)
    runio.write_json(
        os.path.join(out, "timescales.json"),
        {
            "tau_p": report.tau_p,
            "tau_x": None if report.tau_x == float("inf") else report.tau_x,
            "overdamped": report.overdamped,
            "tau_x_estimated": report.tau_x_estimated,
        },
    )
    return outputs + ["timescales.json"]


def _run_velocity_field(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    _require_keys(
        params,
        allowed={"langevin", "epsilon", "bin_min", "bin_max", "n_bins", "min_count"},
        required={"langevin", "epsilon", "bin_min", "bin_max", "n_bins"},
        context="params",
    )
    config = _langevin_config(params["langevin"], seed, paper_units)
    ens = brownian.integrate_overdamped(config)
    eps = float(params["epsilon"])
    edges = np.linspace(float(params["bin_min"]), float(params["bin_max"]), int(params["n_bins"]) + 1)
    min_count = int(params.get("min_count", brownian.DEFAULT_MIN_BIN_COUNT))
    vp, vm = brownian.coarse_velocities(ens, eps, edges, min_count=min_count)
    u = brownian.osmotic_velocity(vp, vm)
    pooled = ens.x[:, :, 0].ravel()
    diff_coeff = float(config.diffusion_coefficients()[0])
    oracle = -diff_coeff * brownian.log_density_gradient(pooled, u.bin_centers)
    rows = []
    for i, center in enumerate(u.bin_centers):
        rows.append(
            [
                _fmt(center),
                _fmt(vp.values[i]),
                _fmt(vp.std_errors[i]),
                _fmt(vm.values[i]),
                _fmt(vm.std_errors[i]),
                _fmt(u.values[i]),
                _fmt(u.std_errors[i]),
                _fmt(eps),
                int(u.counts[i]),
            ]
        )
    runio.write_csv(
        os.path.join(out, "velocity_field.csv"),
        ["bin_center", "v_plus", "v_plus_err", "v_minus", "v_minus_err", "u", "u_err", "epsilon", "count"],
        rows,
    )
    runio.write_csv(
        os.path.join(out, "osmotic_overlay.csv"),
        ["bin_center", "u", "u_err", "osmotic_oracle"],
        [
            [_fmt(c), _fmt(u.values[i]), _fmt(u.std_errors[i]), _fmt(oracle[i])]
            for i, c in enumerate(u.bin_centers)
        ],
    )
    _write_velocity_plot_bundle(out)
    return ["velocity_field.csv", "osmotic_overlay.csv", "plot.py"]


def _run_acceptance(params: dict, out: str) -> list[str]:
    _require_keys(params, allowed={"criteria"}, required=set(), context="params")
    numbers = params.get("criteria")
    results = acceptance.run_all(numbers)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} ({res.seconds:.1f}s) - {res.detail}")
    runio.write_json(
        os.path.join(out, "acceptance.json"),
        [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": r.seconds,
            }
            for r in results
        ],
    )
    if not all(r.passed for r in results):
        raise NumericalError("one or more acceptance criteria failed")
    return ["acceptance.json"]


_SCATTER_PLOT = """\
import csv
import matplotlib.pyplot as plt

exact, mc, err = [], [], []
with open("plot_data.csv") as fh:
    for row in csv.DictReader(fh):
        exact.append(float(row["exact"]))
        mc.append(float(row["mc_mean"]))
        err.append(float(row["mc_stderr"]))
lo = min(exact + mc)
hi = max(exact + mc)
plt.errorbar(exact, mc, yerr=err, fmt="o")
plt.plot([lo, hi], [lo, hi], "k--", label="identity")
plt.xlabel("exact average")
plt.ylabel("Monte Carlo mean")
plt.legend()
plt.savefig("scatter.png", dpi=150)
"""

_SWEEP_PLOT = """\
import csv
import matplotlib.pyplot as plt

theta, s = [], []
with open("sweep.csv") as fh:
    for row in csv.DictReader(fh):
        theta.append(float(row["theta"]))
        s.append(float(row["S"]))
plt.plot(theta, s)
plt.axhline(2.0, color="k", ls="--", label="classical bound")
plt.axhline(-2.0, color="k", ls="--")
plt.xlabel("setting angle")
plt.ylabel("S")
plt.legend()
plt.savefig("chsh_sweep.png", dpi=150)
"""

_VELOCITY_PLOT = """\
import csv
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("velocity_field.csv")))
x = [float(r["bin_center"]) for r in rows]
vp = [float(r["v_plus"]) for r in rows]
vm = [float(r["v_minus"]) for r in rows]
overlay = list(csv.DictReader(open("osmotic_overlay.csv")))
u = [float(r["u"]) for r in overlay]
oracle = [float(r["osmotic_oracle"]) for r in overlay]

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.plot(x, vp, label="v+")
ax1.plot(x, vm, label="v-")
ax1.set_xlabel("x")
ax1.legend()
ax2.plot(x, u, label="u")
ax2.plot(x, oracle, "--", label="-D dlogP/dx")
ax2.set_xlabel("x")
ax2.legend()
fig.savefig("velocity_field.png", dpi=150)
"""


def _write_scatter_plot_bundle(out: str, entries) -> None:
    runio.write_csv(
        os.path.join(out, "plot_data.csv"),
        ["quantity", "exact", "mc_mean", "mc_stderr"],
        [[q, _fmt(e), _fmt(m), _fmt(s)] for q, e, m, s in entries],
    )
    runio.write_atomic(os.path.join(out, "plot.py"), _SCATTER_PLOT.encode())


def _write_sweep_plot_bundle(out: str) -> None:
    runio.write_atomic(os.path.join(out, "plot.py"), _SWEEP_PLOT.encode())


def _write_velocity_plot_bundle(out: str) -> None:
    runio.write_atomic(os.path.join(out, "plot.py"), _VELOCITY_PLOT.encode())


def run_experiment(
    config: dict,
    out_dir: str,
    threads: int = 1,
    seed_override: int | None = None,
    paper_units_override: bool | None = None,
) -> list[str]:
    """Validate and execute one experiment config; returns output file names.

    ``threads`` is validated (it must be >= 1) and otherwise unused; all
    estimators reduce in a fixed order, so results do not depend on it.
    """
    if threads < 1:
        raise ValidationError("field 'threads' must be >= 1")
    config = validate_config(config)
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    _check_seed(seed)
    paper_units = (
        paper_units_override
        if paper_units_override is not None
        else bool(config.get("paper_units", False))
    )
    os.makedirs(out_dir, exist_ok=True)
    command = config["command"]
    params = config["params"]
    start = time.perf_counter()
    if command == "pcsft-average":
        outputs = _run_pcsft_average(params, seed, out_dir)
    elif command == "pcsft-correlation":
        outputs = _run_pcsft_correlation(params, seed, out_dir)
    elif command == "chsh-quantum":
        outputs = _run_chsh_quantum(params, seed, out_dir)
    elif command == "chsh-hv":
        outputs = _run_chsh_hv(params, seed, out_dir)
    elif command == "brownian-ctm":
        outputs = _run_brownian(params, seed, out_dir, paper_units, underdamped=True)
    elif command == "brownian-om":
        outputs = _run_brownian(params, seed, out_dir, paper_units, underdamped=False)
    elif command == "velocity-field":
        outputs = _run_velocity_field(params, seed, out_dir, paper_units)
    else:
        outputs = _run_acceptance(params, out_dir)
    runio.write_manifest(
        out_dir,
        config,
        __version__,
        time.perf_counter() - start,
        seed,
        outputs,
    )
    return outputs + ["manifest.json"]


def _error_exit(code: int, message: str) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bildsim",
        description="Field-correspondence, CHSH, and Brownian velocity benches.",
    )
    parser.add_argument("--config", required=True, help="experiment config JSON file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--paper-units",
        action="store_true",
        default=None,
        help="set friction to 1 in the overdamped mapping",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _error_exit(2, f"cannot read config: {exc}")
    out_dir = args.out or config.get("out") or "."
    try:
        run_experiment(
            config,
            out_dir,
            threads=args.threads,
            seed_override=args.seed,
            paper_units_override=args.paper_units,
        )
    except ValidationError as exc:
        return _error_exit(2, str(exc))
    except (NumericalError, RegimeError, BildsimError) as exc:
        return _error_exit(3, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
