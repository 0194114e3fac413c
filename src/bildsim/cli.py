"""Command-line front end.

One experiment per run: the JSON config names a command and its parameter
block. ``_COMMANDS`` maps each command to its runner and a parameter spec;
``_parse`` checks a config against a spec (unknown keys, missing keys and
wrong JSON types are errors that name the dotted path of the field), so the
runners receive parsed values. Outputs are CSV/JSON plus a plot-ready bundle,
written atomically, with a run manifest written last.

Exit codes: 0 success, 2 config or argument error, 3 numerical failure.
Errors are emitted as one JSON object on stderr.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, acceptance, brownian, chsh, fields, linalg, runio
from .errors import BildsimError, NumericalError, ValidationError, check_memory

# CSV threshold below which trajectory output stays human-readable
CSV_TRAJECTORY_LIMIT = 50_000

# the spec default of a field that must be given
_REQUIRED = object()


def _fail(path: str, expected: str, value):
    raise ValidationError(f"{path} must be {expected}, got {value!r:.60}")


def _parse(obj, spec: dict, path: str) -> dict:
    """Check ``obj`` against ``spec`` and return every field of the spec.

    ``spec`` maps each field to (parser, default or ``_REQUIRED``); a parser
    takes (value, dotted path). ``path`` is "" for the top level.
    """
    where = path or "config"
    if not isinstance(obj, dict):
        _fail(where, "an object", obj)
    unknown = set(obj) - set(spec)
    if unknown:
        raise ValidationError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [key for key, (_, default) in spec.items() if default is _REQUIRED and key not in obj]
    if missing:
        raise ValidationError(f"missing required field(s) in {where}: {', '.join(missing)}")
    return {
        key: parse(obj[key], f"{path}.{key}" if path else key) if key in obj else default
        for key, (parse, default) in spec.items()
    }


def _object(spec: dict):
    return lambda value, path: _parse(value, spec, path)


def _json(kinds, expected: str, within=lambda v: True):
    """Parser for a JSON value of the given Python type(s), returned unchanged.

    A bool is accepted only where ``kinds`` is bool, although it is an int.
    """

    def parse(value, path):
        if isinstance(value, bool) != (kinds is bool) or not (isinstance(value, kinds) and within(value)):
            _fail(path, expected, value)
        return value

    return parse


def _integer(low=-math.inf, high=math.inf):
    """Parser for an integer in [low, high]; integral floats such as 1e6 count."""
    parse = _json(
        (int, float), f"an integer in [{low}, {high}]", lambda v: v % 1 == 0 and low <= v <= high
    )
    return lambda value, path: int(parse(value, path))


_flag = _json(bool, "true or false")
_string = _json(str, "a string")
# numbers are returned as given: LangevinConfig.to_dict() is hashed into trajectory files;
# an int must be one that a float64 holds exactly (Python compares the two exactly)
_number = _json((int, float), "a finite float64", lambda v: abs(v) <= sys.float_info.max and float(v) == v)


def _list_of(parse, length=None):
    def parse_list(value, path):
        if not isinstance(value, list) or length not in (None, len(value)):
            _fail(path, f"a list of {length or 'any number of'} items", value)
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return parse_list


def _numbers(value, path):
    """A number or a list of numbers (one per particle)."""
    return _list_of(_number)(value, path) if isinstance(value, list) else _number(value, path)


def _start(value, path):
    """A start value: a number or the name of a start law ("stationary")."""
    return value if isinstance(value, str) else _number(value, path)


def _matrix(value, path):
    try:
        return linalg.matrix_from_json(value)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _angles(value, path) -> chsh.ChshAngles:
    return chsh.ChshAngles(*(float(a) for a in _list_of(_number, 4)(value, path)))


def _criteria(value, path) -> list[int]:
    numbers = _list_of(_integer(1, 12))(value, path)
    if not numbers or len(set(numbers)) != len(numbers):
        _fail(path, "a non-empty list of distinct criteria", value)
    return numbers


_POTENTIAL = _object({
    "kind": (_string, _REQUIRED),
    "spring_constants": (_numbers, ()),
    "coefficients": (_list_of(_number), ()),
})

# the langevin block takes the fields of LangevinConfig, parsed by annotation;
# seed and paper_units come from the top level of the config
_BY_TYPE = {
    int: _integer(), float: _number, tuple: _numbers, object: _start, brownian.Potential: _POTENTIAL
}
_LANGEVIN = {
    f.name: (_BY_TYPE[f.type], _REQUIRED if f.default is dataclasses.MISSING else f.default)
    for f in dataclasses.fields(brownian.LangevinConfig)
    if f.name not in ("seed", "paper_units")
}

# the fields of chsh.HvStrategy, with its defaults
_STRATEGY = {
    "kind": (_string, _REQUIRED),
    "angles": (_angles, chsh.ChshAngles(*chsh.OPTIMAL_ANGLES)),
    "constants": (_list_of(_number, 4), (1, 1, 1, 1)),
}


def _fmt(x) -> str:
    return repr(float(x))


def _run_pcsft_average(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    measure = fields.FieldMeasure(params["covariance"])
    variable = fields.QuadraticVariable(params["kernel"])
    n = params["n_samples"]
    exact = fields.exact_average(variable, measure)
    est = fields.mc_average(variable, measure, n, seed)
    energy = measure.energy
    coupling = fields.normalized_coupling_check(variable, measure)
    rows = [
        ["average", _fmt(exact), _fmt(est.mean), _fmt(est.std_error), n, seed],
        ["energy", _fmt(energy), "", "", n, seed],
        ["normalized_average", _fmt(coupling.rhs), "", "", n, seed],
    ]
    summary = {
        "exact_average": exact,
        "mc_mean": est.mean,
        "mc_stderr": est.std_error,
        "average_energy": energy,
        "coupling_gap": coupling.gap,
        "n_samples": n,
        "seed": seed,
    }
    return _write_monte_carlo_outputs(out, rows, summary)


def _run_pcsft_correlation(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    measure = fields.FieldMeasure(params["covariance"])
    v = fields.QuadraticVariable(params["kernel"])
    w = fields.QuadraticVariable(params["kernel2"])
    n = params["n_samples"]
    exact = fields.exact_pair_correlation(v, w, measure)
    est = fields.mc_pair_correlation(v, w, measure, n, seed)
    rows = [["pair_correlation", _fmt(exact), _fmt(est.mean), _fmt(est.std_error), n, seed]]
    summary = {
        "exact_pair_correlation": exact,
        "mc_mean": est.mean,
        "mc_stderr": est.std_error,
        "n_samples": n,
        "seed": seed,
    }
    return _write_monte_carlo_outputs(out, rows, summary)


def _quantum_pairs(rho, angles: chsh.ChshAngles) -> dict:
    """Quantum correlations of the four Alice-Bob pairs, by pair name."""
    a = [angles.a1, angles.a1, angles.a2, angles.a2]
    b = [angles.b1, angles.b2, angles.b1, angles.b2]
    return dict(zip(chsh.PAIR_NAMES[:4], chsh.quantum_correlation(rho, np.array(a), np.array(b))))


def _write_correlations(out: str, rows: list, summary: dict) -> list[str]:
    header = ["pair", "empirical", "exact_or_quantum", "n", "seed"]
    # the JSON first: a number it cannot hold fails the run before anything is written
    runio.write_json(os.path.join(out, "summary.json"), summary)
    runio.write_csv(os.path.join(out, "correlations.csv"), header, rows)
    return ["correlations.csv", "summary.json"]


def _run_chsh_quantum(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    n = params["sweep_points"]
    # theta, -theta, and at the peak p and E(a1,b2) while E(a2,b2) is built (measured 8.1 arrays)
    check_memory(9 * 8 * n, "the sweep")
    angles = params["angles"]
    rho = chsh.singlet_state()
    s = chsh.chsh_value(rho, angles)
    rows = [[pair, "", _fmt(e), 0, seed] for pair, e in _quantum_pairs(rho, angles).items()]
    audit = chsh.compatibility_audit(angles)
    summary = {
        "S_quantum": s,
        "S_classical_max": chsh.deterministic_bound_enumeration(),
        "angles": list(angles.as_tuple()),
        "degenerate_settings": audit["degenerate"],
    }
    _write_correlations(out, rows, summary)
    thetas = np.linspace(0.0, np.pi, n)
    sweep = chsh.chsh_value(rho, chsh.ChshAngles(0.0, np.pi / 2, thetas, -thetas))
    runio.write_csv(os.path.join(out, "sweep.csv"), ["theta", "S"], zip(map(_fmt, thetas), map(_fmt, sweep)))
    runio.write_atomic(os.path.join(out, "plot.py"), _SWEEP_PLOT.encode())
    return ["correlations.csv", "summary.json", "sweep.csv", "plot.py"]


def _run_chsh_hv(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    strategy = chsh.HvStrategy(**params["strategy"])
    angles = strategy.angles
    n = params["n"]
    stream = chsh.hv_sample(strategy, n, seed)
    rho = chsh.singlet_state()
    quantum_ref = _quantum_pairs(rho, angles)
    rows = []
    for pair in chsh.PAIR_NAMES:
        emp = chsh.empirical_correlation(stream, pair)
        ref = _fmt(quantum_ref[pair]) if pair in quantum_ref else ""
        rows.append([pair, _fmt(emp), ref, n, seed])
    summary = {
        "S_quantum": chsh.chsh_value(rho, angles),
        "S_classical_max": chsh.deterministic_bound_enumeration(),
        "S_stream": chsh.chsh_from_stream(stream),
        "n": n,
        "seed": seed,
        "strategy": stream.strategy,
    }
    return _write_correlations(out, rows, summary)


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
    config = brownian.LangevinConfig.from_dict(dict(params, seed=seed, paper_units=paper_units))
    report = brownian.timescale_report(config)
    integrate = brownian.integrate_underdamped if underdamped else brownian.integrate_overdamped
    ens = integrate(config)
    outputs = _write_trajectories(out, ens)
    # JSON has no infinity: a free particle's tau_x is written as null
    tau_x = None if math.isinf(report.tau_x) else report.tau_x
    runio.write_json(os.path.join(out, "timescales.json"), dict(report._asdict(), tau_x=tau_x))
    return outputs + ["timescales.json"]


def _run_velocity_field(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    if not params["bin_min"] < params["bin_max"]:
        raise ValidationError("params.bin_min must be below params.bin_max")
    # a bin centre is the mean of two edges, whose sum must not overflow
    if max(-params["bin_min"], params["bin_max"]) > sys.float_info.max / 2:
        raise ValidationError("params.bin_min and params.bin_max must lie within half the largest float")
    # about 1 KiB per bin at the peak (measured), most of it the rows of the two CSV files
    check_memory(1024 * params["n_bins"], "the binned output")
    langevin = dict(params["langevin"], seed=seed, paper_units=paper_units)
    config = brownian.LangevinConfig.from_dict(langevin)
    ens = brownian.integrate_overdamped(config)
    eps = params["epsilon"]
    edges = np.linspace(params["bin_min"], params["bin_max"], params["n_bins"] + 1)
    vp, vm = brownian.coarse_velocities(ens, eps, edges, min_count=params["min_count"])
    u = brownian.osmotic_velocity(vp, vm)
    # the density estimate reads the stored positions in place, block by block
    diff_coeff = float(config.diffusion_coefficients()[0])
    oracle = -diff_coeff * brownian.log_density_gradient(ens.x[:, :, 0], u.bin_centers)
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
    runio.write_atomic(os.path.join(out, "plot.py"), _VELOCITY_PLOT.encode())
    return ["velocity_field.csv", "osmotic_overlay.csv", "plot.py"]


def _run_acceptance(params: dict, seed: int, out: str, paper_units: bool) -> list[str]:
    results = acceptance.run_all(params["criteria"])
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} ({res.seconds:.1f}s) - {res.detail}")
    runio.write_json(os.path.join(out, "acceptance.json"), [dataclasses.asdict(r) for r in results])
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


def _write_monte_carlo_outputs(out: str, rows: list, summary: dict) -> list[str]:
    """results.csv, summary.json, and a plot of the first row's estimate against its exact value."""
    header = ["quantity", "exact", "mc_mean", "mc_stderr", "n", "seed"]
    # the JSON first: a number it cannot hold fails the run before anything is written
    runio.write_json(os.path.join(out, "summary.json"), summary)
    runio.write_csv(os.path.join(out, "results.csv"), header, rows)
    runio.write_csv(os.path.join(out, "plot_data.csv"), header[:4], [rows[0][:4]])
    runio.write_atomic(os.path.join(out, "plot.py"), _SCATTER_PLOT.encode())
    return ["results.csv", "summary.json", "plot_data.csv", "plot.py"]


_MONTE_CARLO = {
    "covariance": (_matrix, _REQUIRED),
    "kernel": (_matrix, _REQUIRED),
    "n_samples": (_integer(), _REQUIRED),
}
_VELOCITY = {
    "langevin": (_object(_LANGEVIN), _REQUIRED),
    "epsilon": (_number, _REQUIRED),
    "bin_min": (_number, _REQUIRED),
    "bin_max": (_number, _REQUIRED),
    "n_bins": (_integer(1), _REQUIRED),
    # a standard error needs two samples in a bin
    "min_count": (_integer(2), brownian.DEFAULT_MIN_BIN_COUNT),
}

# command -> (runner, parameter spec); a runner takes (params, seed, out, paper_units)
_COMMANDS = {
    "pcsft-average": (_run_pcsft_average, _MONTE_CARLO),
    "pcsft-correlation": (_run_pcsft_correlation, dict(_MONTE_CARLO, kernel2=(_matrix, _REQUIRED))),
    "chsh-quantum": (
        _run_chsh_quantum, {"angles": (_angles, _REQUIRED), "sweep_points": (_integer(1), 121)}
    ),
    "chsh-hv": (_run_chsh_hv, {"strategy": (_object(_STRATEGY), _REQUIRED), "n": (_integer(), _REQUIRED)}),
    "brownian-ctm": (functools.partial(_run_brownian, underdamped=True), _LANGEVIN),
    "brownian-om": (functools.partial(_run_brownian, underdamped=False), _LANGEVIN),
    "velocity-field": (_run_velocity_field, _VELOCITY),
    "acceptance": (_run_acceptance, {"criteria": (_criteria, None)}),
}

_CONFIG = {
    "command": (_string, _REQUIRED),
    "seed": (_integer(0, 2**64 - 1), 0),
    "out": (_string, None),
    "paper_units": (_flag, False),
    # parsed with the command's spec once the command is known
    "params": (lambda value, path: value, _REQUIRED),
}


def validate_config(config: dict) -> dict:
    """Parse a whole config; returns its fields with defaults filled in."""
    parsed = _parse(config, _CONFIG, "")
    if parsed["command"] not in _COMMANDS:
        expected = ", ".join(_COMMANDS)
        raise ValidationError(f"unknown command {parsed['command']!r}; expected one of {expected}")
    parsed["params"] = _parse(parsed["params"], _COMMANDS[parsed["command"]][1], "params")
    return parsed


def run_experiment(config: dict, out_dir: str | None, threads: int = 1) -> list[str]:
    """Validate and execute one experiment config; returns output file names.

    Outputs go to ``out_dir``, else the config's ``out``, else ".".
    ``threads`` is validated (it must be >= 1) and otherwise unused; all
    estimators reduce in a fixed order, so results do not depend on it.
    """
    if threads < 1:
        raise ValidationError("field 'threads' must be >= 1")
    parsed = validate_config(config)
    out_dir = out_dir or parsed["out"] or "."
    # the directories that makedirs will create, deepest first
    created = []
    missing = os.path.abspath(out_dir)
    while not os.path.exists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory: {exc}") from exc
    run = _COMMANDS[parsed["command"]][0]
    start = time.perf_counter()
    try:
        outputs = run(parsed["params"], parsed["seed"], out_dir, parsed["paper_units"])
    except BaseException:
        # a run that fails before writing anything leaves no directory behind;
        # rmdir removes only an empty one, so a directory holding outputs
        # stays, and with it every directory above it
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    runio.write_manifest(out_dir, config, __version__, time.perf_counter() - start, parsed["seed"], outputs)
    return outputs + ["manifest.json"]


def _argument_error(message: str):
    raise ValidationError(f"bad arguments: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bildsim",
        description="Field-correspondence, CHSH, and Brownian velocity benches.",
    )
    # argparse would print its usage text; errors follow the JSON contract instead
    parser.error = _argument_error
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
    caught = []
    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        # the flags become part of the config, so that the manifest's hash covers
        # them; a config that is not an object is rejected by run_experiment
        flags = {"seed": args.seed, "paper_units": args.paper_units}
        if isinstance(config, dict):
            config = dict(config, **{key: value for key, value in flags.items() if value is not None})
        # held back, so that a failed run's stderr is one JSON object
        with warnings.catch_warnings(record=True) as caught:
            run_experiment(config, args.out, threads=args.threads)
    except BildsimError as exc:
        code = 2 if isinstance(exc, ValidationError) else 3
        record = {"error": str(exc), "exit_code": code}
        if caught:
            seen = (f"{w.category.__name__}: {w.message}" for w in caught)
            record["warnings"] = list(dict.fromkeys(seen))
        sys.stderr.write(json.dumps(record) + "\n")
        return code
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


if __name__ == "__main__":
    sys.exit(main())
