"""bildsim benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each session runs in a fresh worker
process (worker.py) so that set-up time and peak RSS belong to that
session; sessions repeat while the next one, taking as long as the last,
would end within ``--seconds``, and each metric is the median over
sessions. Workers get one BLAS thread and the CLI gets
``threads=1``. With ``--trace 0`` the last stdout line carries the
end-to-end metrics. With ``--trace 1`` the same untraced sessions run, then
one traced session (tracing.py), and the last line carries the per-layer
metrics. Names and units are checked against BENCHMARK.json.

``correct`` is false when an operation returned an output that failed its
oracle, when the acceptance battery printed a FAIL verdict, or when a traced
session's work or call counts differ from the closed-form expectation or
from an earlier traced run of the same seed and sources. An operation that raised,
or whose check failed, counts in ``failed``. Full records, including the
environment, go to .perfbench_out/.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("quantum", "ensemble-io", "velocity", "gate")
COMMANDS = (
    "pcsft-average",
    "pcsft-correlation",
    "chsh-quantum",
    "chsh-hv",
    "brownian-om",
    "brownian-ctm",
    "velocity-field",
    "acceptance",
)
# Public functions reported one by one; the rest of the traced functions'
# self time is summed in trace.other_self_s.
LAYER_FUNCTIONS = (
    "fields.sample_fields",
    "fields.mc_average",
    "fields.mc_pair_correlation",
    "chsh.quantum_correlation",
    "chsh.chsh_value",
    "chsh.chsh_grid_max",
    "chsh.hv_sample",
    "chsh.empirical_correlation",
    "linalg.check_density",
    "linalg.check_psd",
    "linalg.check_hermitian",
    "linalg.trace_product",
    "linalg.tensor_product",
    "brownian.integrate_overdamped",
    "brownian.integrate_underdamped",
    "brownian.coarse_velocity_forward",
    "brownian.coarse_velocity_backward",
    "brownian.log_density_gradient",
    "brownian.fokker_planck_residual",
    "brownian.nonsmoothness_witness",
    "brownian.momentum_resolution_check",
    "runio.write_atomic",
    "runio.write_csv",
    "runio.save_trajectories",
    "runio.load_trajectories",
    "acceptance.run_all",
    "cli.run_experiment",
)
MIN_SETUPS = 5  # set-up samples per run; set-up-only workers top up short runs
DEADLINE_S = 170.0  # the whole run must end within 180 s


def _spawn(workload: str, seed: int, index: int, deadline: float, setup_only=False, trace_out=None) -> dict:
    work = os.path.join(OUT, "work", f"{workload}-{os.getpid()}-{index}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    """Digest of the program's and the benchmark's sources, which fix the counts."""
    h = hashlib.sha256()
    paths = glob.glob(os.path.join(ROOT, "src", "bildsim", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _check_counts(workload: str, seed: int, trace: dict) -> list:
    """Problems with a traced session's counts; empty when they repeat.

    The work counts and every traced function's call count must equal an
    earlier traced run's, and the counts the configs imply.
    """
    counts = dict(trace["counts"], **{f"{k}.calls": v[0] for k, v in trace["functions"].items()})
    problems = [f"{k} = {counts[k]}, expected {v}" for k, v in trace["expected_counts"].items() if counts[k] != v]
    path = os.path.join(OUT, "counts", f"{workload}-seed{seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        problems += [
            f"{k} = {counts.get(k)}, earlier run {previous.get(k)}"
            for k in counts.keys() | previous.keys()
            if counts.get(k) != previous.get(k)
        ]
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh)
    return problems


def _session_times(session: dict) -> dict:
    times = {f"cmd.{c}_s": 0.0 for c in COMMANDS}
    times["analysis_s"] = 0.0
    for op in session["ops"]:
        key = f"cmd.{op['name']}_s" if op["kind"] == "cmd" else "analysis_s"
        times[key] += op["seconds"]
    times["wall_s"] = sum(op["seconds"] for op in session["ops"])
    return times


def _per_layer(sessions: list, traced: dict, attempted: int, failed: int) -> dict:
    med = statistics.median
    times = [_session_times(s) for s in sessions]
    m = {}
    for c in COMMANDS:
        m[f"cmd.{c}_s"] = (med(t[f"cmd.{c}_s"] for t in times), "s")
    m["analysis_s"] = (med(t["analysis_s"] for t in times), "s")
    m["ops_failed_frac"] = (failed / attempted, "fraction")
    m["acceptance.criteria_passed"] = (med(s["verdicts"]["PASS"] for s in sessions), "count")
    tr = traced["trace"]
    for n in range(1, 13):
        m[f"acceptance.criterion_{n}.s"] = (tr["criteria"].get(str(n), 0.0), "s")
    functions = tr["functions"]
    for name in LAYER_FUNCTIONS:
        calls, total, self_s = functions.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (total, "s")
        m[f"{name}.self_s"] = (self_s, "s")
    for name, unit in tracing.COUNT_UNITS.items():
        m[name] = (tr["counts"][name], unit)
    traced_wall = _session_times(traced)["wall_s"]
    all_self = sum(f[2] for f in functions.values())
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - med(t["wall_s"] for t in times), "s")
    m["trace.other_self_s"] = (all_self - sum(functions.get(n, (0, 0.0, 0.0))[2] for n in LAYER_FUNCTIONS), "s")
    m["trace.unattributed_s"] = (traced_wall - all_self, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bildsim", "__init__.py")):
        sys.stderr.write("bildsim sources not found under src/; run from the root of a checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    sessions = []
    while True:  # one session at least; no session that would end past --seconds
        began = time.monotonic()
        sessions.append(_spawn(args.workload, args.seed, len(sessions), deadline))
        if 2 * time.monotonic() - began - start > args.seconds:
            break
    setups = [s["setup_s"] for s in sessions]
    while len(setups) < MIN_SETUPS:
        setups.append(_spawn(args.workload, args.seed, len(setups), deadline, setup_only=True)["setup_s"])
    traced = None
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        traced = _spawn(args.workload, args.seed, -1, deadline, trace_out=spans)

    ran = sessions + ([traced] if traced else [])
    ops = [op for s in ran for op in s["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["raised"] or not op["ok"])
    problems = [f"{op['name']}: {op['detail']}" for op in ops if not op["raised"] and not op["ok"]]
    problems += [f"acceptance printed {s['verdicts']['FAIL']} FAIL verdicts" for s in ran if s["verdicts"]["FAIL"]]
    if traced:
        problems += _check_counts(args.workload, args.seed, traced["trace"])
        metrics, wanted = _per_layer(sessions, traced, attempted, failed), spec["per_layer"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(_session_times(s)["wall_s"] for s in sessions), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sessions), "MiB"),
        }
        wanted = spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in wanted}
    if declared != {k: unit for k, (_, unit) in metrics.items()}:
        sys.stderr.write("metrics differ from BENCHMARK.json\n")
        return 1
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  sessions=len(sessions), setup_samples=setups, environment=sessions[0]["environment"],
                  problems=problems, ops=[[op["name"], op["seconds"], op["ok"], op["detail"]] for op in ops])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
