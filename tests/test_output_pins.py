"""Every output of a fixed list of configs, pinned in ``tests/output_pins.json``.

The configs cover every command, both trajectory writers (CSV and binary) and
a polynomial potential, whose tau_x comes from the Fokker-Planck spectral
gap. Each runs through ``cli.run_experiment`` at ``threads`` 1 and 8; the two
runs must agree with each other and with the pin. ``manifest.json`` records wall-clock time and is
not pinned. The acceptance battery's records, without ``seconds``, are pinned
from the one run of the battery that the session shares with
``test_acceptance.py``.

The numbers of the pcsft files pass through BLAS products (``z @ E``,
``x @ S``); the last bits of a product can depend on the CPU's BLAS kernel.
Their Monte Carlo statistics are also merged block by block, so above one
block of 2^14 samples they match numpy's mean and std of all the values to
rounding, not bit for bit. The osmotic oracle's were pinned when it too
summed by a BLAS dot. Those files and the acceptance details are pinned as
text: the text between the numbers must match exactly, and the numbers to
1e-13 relative. Every other file is pinned by its sha256. A warning raised
while a pinned config runs fails its test: a pinned output is one that
computed without overflow or invalid operations. Generator streams are not
promised to stay the same across numpy versions (NEP 19), so the pin file
records the numpy and BLAS that made it.

After a change that is meant to move outputs, rewrite the pin file with

    PYTHONPATH=src python tests/test_output_pins.py

which prints the ``config/output`` entries whose pin it changed.
"""

import hashlib
import json
import pathlib
import re
import tempfile

import numpy as np
import pytest

from bildsim import acceptance, cli, linalg

pytestmark = pytest.mark.filterwarnings("error")

PINS_PATH = pathlib.Path(__file__).with_name("output_pins.json")
REGENERATE = "PYTHONPATH=src python tests/test_output_pins.py"
# by command, the outputs whose numbers pass through a BLAS product
BLAS_OUTPUTS = {
    "pcsft-average": ("results.csv", "plot_data.csv", "summary.json"),
    "pcsft-correlation": ("results.csv", "plot_data.csv", "summary.json"),
    "velocity-field": ("osmotic_overlay.csv",),
}
# a number as repr(float) writes it, not inside a word
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?!\w)")


def _matrix(real, imag=0.0):
    return linalg.matrix_to_json(np.asarray(real) + 1j * np.asarray(imag))


# Hermitian, and the covariance diagonally dominant, hence positive definite
COVARIANCE = _matrix(
    [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]], [[0, 0.2, 0], [-0.2, 0, 0.1], [0, -0.1, 0]]
)
KERNEL = _matrix(
    [[1.0, -0.5, 0.0], [-0.5, 0.2, 0.4], [0.0, 0.4, -1.0]], [[0, 0, 0.3], [0, 0, 0], [-0.3, 0, 0]]
)
KERNEL2 = _matrix([[0.5, 0.0, 0.2], [0.0, -0.7, 0.1], [0.2, 0.1, 1.5]])
ANGLES = [0.0, 1.5707963, 0.7853982, -0.7853982]
HARMONIC = {"kind": "harmonic", "spring_constants": [1.0]}


def _langevin(**overrides):
    base = {
        "n_particles": 1,
        "mass": 1.0,
        "friction": 1.0,
        "temperatures": [1.0],
        "potential": HARMONIC,
        "dt": 1e-3,
        "t_end": 0.02,
        "n_trajectories": 50,
        "store_every": 2,
        "x_init": "stationary",
    }
    return dict(base, **overrides)


VELOCITY = {
    "langevin": _langevin(n_trajectories=5000, t_end=0.06, store_every=1),
    "epsilon": 4e-3,
    "bin_min": -2.0,
    "bin_max": 2.0,
    "n_bins": 21,
}

CONFIGS = {
    "pcsft-average": {
        "command": "pcsft-average",
        "seed": 5,
        "params": {"covariance": COVARIANCE, "kernel": KERNEL, "n_samples": 20_000},
    },
    "pcsft-correlation": {
        "command": "pcsft-correlation",
        "seed": 6,
        "params": {"covariance": COVARIANCE, "kernel": KERNEL, "kernel2": KERNEL2, "n_samples": 20_000},
    },
    "chsh-quantum": {"command": "chsh-quantum", "params": {"angles": ANGLES}},
    "chsh-hv-sphere": {
        "command": "chsh-hv",
        "seed": 31415,
        "params": {"n": 100_000, "strategy": {"kind": "sphere_sign", "angles": [0.3, -2.0, 1.1, 2.9]}},
    },
    "chsh-hv-constant": {
        "command": "chsh-hv",
        "params": {"n": 1000, "strategy": {"kind": "constant", "constants": [1, -1, -1, 1]}},
    },
    "ctm-csv": {
        "command": "brownian-ctm",
        "seed": 3,
        "params": _langevin(potential={"kind": "free"}, x_init=0.0, dt=1e-2, t_end=0.2, n_trajectories=40),
    },
    "ctm-bin-three-particles": {
        "command": "brownian-ctm",
        "seed": 4,
        "params": _langevin(
            n_particles=3,
            temperatures=[1.0, 0.5, 2.0],
            p_init="stationary",
            n_trajectories=2000,
            store_every=1,
        ),
    },
    "om-csv": {"command": "brownian-om", "seed": 8, "params": _langevin()},
    "om-bin-two-springs": {
        "command": "brownian-om",
        "seed": 9,
        "paper_units": True,
        "params": _langevin(
            n_particles=2,
            friction=3.0,
            temperatures=[1.5],
            potential={"kind": "harmonic", "spring_constants": [1.0, 2.0]},
            dt=1e-4,
            t_end=0.01,
            n_trajectories=1000,
            store_every=4,
        ),
    },
    "om-polynomial-tau-x": {
        "command": "brownian-om",
        "seed": 10,
        "params": _langevin(
            potential={"kind": "polynomial", "coefficients": [0.0, 0.0, 0.5, 0.0, 0.25]},
            x_init=0.5,
            dt=4e-4,
            t_end=2.0,
            n_trajectories=500,
            store_every=25,
        ),
    },
    "velocity-field": {"command": "velocity-field", "seed": 31, "params": VELOCITY},
    "velocity-field-min-count": {
        "command": "velocity-field",
        "seed": 32,
        "paper_units": True,
        "params": dict(VELOCITY, langevin=dict(VELOCITY["langevin"], friction=2.0), min_count=50, n_bins=9),
    },
}


def blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return "a BLAS numpy does not report"
    return f"{blas['name']} {blas['version']}"


def pin_outputs(command, out):
    """The pin of one run's outputs but the manifest: the lines of an output
    in BLAS_OUTPUTS, the sha256 of any other."""
    pins = {}
    for path in sorted(out.iterdir()):
        if path.name in BLAS_OUTPUTS.get(command, ()):
            pins[path.name] = {"lines": path.read_text().splitlines()}
        elif path.name != "manifest.json":
            pins[path.name] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return pins


def acceptance_records(results):
    """The records of acceptance.json without their run time."""
    return [{"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results]


def load_pins(name):
    """The pins of ``name``, and where they came from, for failure messages."""
    record = json.loads(PINS_PATH.read_text())
    made = record["made_with"]
    provenance = (
        f"pinned with numpy {made['numpy']} and {made['blas']}, run with numpy {np.__version__} and "
        f"{blas_name()}; if the change is meant to move outputs, rewrite the pins with {REGENERATE}"
    )
    assert name in record, f"{name}: no pin; {provenance}"
    return record[name], provenance


def assert_text_close(got, pinned, atol, where):
    """The text between numbers equal, and the numbers to 1e-13 relative."""
    assert NUMBER.sub("#", got) == NUMBER.sub("#", pinned), where
    np.testing.assert_allclose(
        np.array(NUMBER.findall(got), dtype=float),
        np.array(NUMBER.findall(pinned), dtype=float),
        rtol=1e-13,
        atol=atol,
        equal_nan=True,
        err_msg=where,
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_command_outputs(tmp_path, name):
    config = CONFIGS[name]
    runs = []
    for threads in (1, 8):
        out = tmp_path / f"threads-{threads}"
        cli.run_experiment(config, str(out), threads=threads)
        runs.append(pin_outputs(config["command"], out))
    assert runs[0] == runs[1], f"{name}: the runs at threads 1 and 8 differ"
    pins, provenance = load_pins(name)
    assert sorted(runs[0]) == sorted(pins), f"{name}: {provenance}"
    for output, got in runs[0].items():
        where = f"{name}/{output}: {provenance}"
        if "lines" in got:
            assert_text_close("\n".join(got["lines"]), "\n".join(pins[output]["lines"]), 0.0, where)
        else:
            assert got == pins[output], where


def test_acceptance_records(acceptance_results):
    got = acceptance_records(acceptance_results.values())
    pins, provenance = load_pins("acceptance")
    pinned = pins["acceptance.json"]["records"]
    verdicts = [[(r["number"], r["name"], r["passed"]) for r in records] for records in (got, pinned)]
    assert verdicts[0] == verdicts[1], f"acceptance/acceptance.json: {provenance}"
    for record, pin in zip(got, pinned):
        # a 1e-14 floor: criteria 1, 4 and 5 report gaps of rounding noise, such as 8.88e-16
        where = f"acceptance/acceptance.json, criterion {record['number']}: {provenance}"
        assert_text_close(record["detail"], pin["detail"], 1e-14, where)


def changed_pins(old, new):
    """The ``config/output`` entries whose pin differs between two pin records."""
    names = sorted((set(old) | set(new)) - {"made_with"})
    return [
        f"{name}/{output}"
        for name in names
        for output in sorted(set(old.get(name, {})) | set(new.get(name, {})))
        if old.get(name, {}).get(output) != new.get(name, {}).get(output)
    ]


def test_changed_pins_names_each_moved_output():
    old = {"made_with": {"numpy": "1"}, "a": {"x.csv": 1, "y.json": 2}, "gone": {"z.csv": 3}}
    new = {"made_with": {"numpy": "2"}, "a": {"x.csv": 1, "y.json": 4}, "b": {"w.bin": 5}}
    assert changed_pins(old, new) == ["a/y.json", "b/w.bin", "gone/z.csv"]


def write_pins():
    """Rewrite the pin file from this checkout's outputs; return the
    ``config/output`` entries whose pin changed against the file replaced."""
    old = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    record = {"made_with": {"numpy": np.__version__, "blas": blas_name()}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            out = pathlib.Path(tmp, name)
            cli.run_experiment(config, str(out), threads=1)
            record[name] = pin_outputs(config["command"], out)
    record["acceptance"] = {"acceptance.json": {"records": acceptance_records(acceptance.run_all())}}
    PINS_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return changed_pins(old, record)


if __name__ == "__main__":
    changed = write_pins()
    print(f"{len(changed)} pins changed" + "".join(f"\n  {entry}" for entry in changed))
