"""sha256 of every output of a fixed list of configs, for byte-identity checks.

    python3 tools/output_digests.py > digests.json

Runs each config below through ``bildsim.cli.run_experiment`` in a
temporary directory and prints one JSON object ``{"<config>/<file>":
sha256}``. The configs cover every command, both trajectory writers (CSV and
binary), a polynomial potential whose tau_x is estimated, and the full
acceptance battery. ``manifest.json`` records wall-clock time and is left
out; ``acceptance.json`` is hashed with each record's ``seconds`` removed.
Run it in two checkouts and compare the objects: a change that keeps every
output keeps every digest. It imports ``bildsim`` from the ``src/`` next to
this file, so each checkout measures its own code.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bildsim import cli, linalg, runio  # noqa: E402


def _matrix(re, im=0.0):
    return linalg.matrix_to_json(np.asarray(re) + 1j * np.asarray(im))


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
            dt=1e-2,
            t_end=2.0,
            n_trajectories=500,
            store_every=1,
        ),
    },
    "velocity-field": {"command": "velocity-field", "seed": 31, "params": VELOCITY},
    "velocity-field-min-count": {
        "command": "velocity-field",
        "seed": 32,
        "paper_units": True,
        "params": dict(VELOCITY, langevin=dict(VELOCITY["langevin"], friction=2.0), min_count=50, n_bins=9),
    },
    "acceptance": {"command": "acceptance", "params": {}},
}


def _file_digest(path: str) -> str:
    if os.path.basename(path) == "acceptance.json":
        with open(path, "rb") as fh:
            records = [{k: v for k, v in r.items() if k != "seconds"} for r in json.load(fh)]
        data = runio.canonical_json(records).encode("utf-8")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    digests = {}
    for name, config in CONFIGS.items():
        # the acceptance command prints its verdicts; stdout carries only the digests
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            outputs = cli.run_experiment(config, tmp, threads=1)
            for output in outputs:
                if output != "manifest.json":
                    digests[f"{name}/{output}"] = _file_digest(os.path.join(tmp, output))
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
