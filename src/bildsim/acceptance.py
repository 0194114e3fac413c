"""Acceptance battery: twelve self-contained checks with fixed seeds.

Each criterion returns a result record; `run_all` executes the full battery
and is shared by the CLI `acceptance` subcommand and the test suite. All
tolerances are pinned here, not configurable. A criterion holds only what
it reads: criteria 9 and 10 read running velocity tallies and a KDE sample
of one streamed run, no stored ensemble, and criteria 4 and 11 work in blocks.
Criteria 2, 3 and 6 run their separately seeded estimates on every CPU (`_each`).
"""

import os
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import chsh, fields, linalg
from .brownian import (
    LangevinConfig,
    Potential,
    VelocityTally,
    _schedule,
    epsilon_steps,
    integrate_overdamped,
    integrate_underdamped,
    log_density_gradient,
    momentum_resolution_check,
    osmotic_velocity,
    stored_states,
    velocity_gap,
)
from .errors import philox


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def _random_psd(rng, d: int, unit_trace: bool = False) -> np.ndarray:
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = c @ c.conj().T
    if unit_trace:
        b = b / np.trace(b).real
    return b


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _each(func, items) -> list:
    """[func(item) for item in items], of a sequence, handed out in item order to the calling
    thread and _cores() - 1 more. After a failure no item is handed out, and once every thread
    has joined, the lowest-index failure is raised: the one the serial loop would raise."""
    results, errors = [None] * len(items), {}
    tasks = iter(range(len(items)))

    def work():
        for i in tasks:
            try:
                results[i] = func(items[i])
            except BaseException as exc:
                errors[i] = exc
                for _ in tasks:  # hand out no further item
                    pass

    threads = [threading.Thread(target=work) for _ in range(min(_cores(), len(items)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def criterion_1() -> CriterionResult:
    """Energy-scaled coupling identity on 200 random kernel/covariance pairs."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in (2, 4, 8, 16):
        for _ in range(50):
            v = fields.QuadraticVariable(_random_hermitian(rng, d))
            m = fields.FieldMeasure(_random_psd(rng, d))
            check = fields.normalized_coupling_check(v, m)
            worst = max(worst, check.gap)
    passed = worst < 1e-10
    return _result(1, "pcsft coupling identity", passed, f"max gap {worst:.2e} < 1e-10")


def criterion_2() -> CriterionResult:
    """Monte Carlo averages agree with the trace formula in >= 18/20 cases."""
    rng = np.random.default_rng(202)
    cases = []
    for _ in range(20):
        v = fields.QuadraticVariable(_random_hermitian(rng, 4))
        cases.append((v, fields.FieldMeasure(_random_psd(rng, 4))))
    estimates = _each(lambda i: fields.mc_average(*cases[i], n=10**5, seed=7000 + i), range(20))
    hits = sum(
        abs(est.mean - fields.exact_average(*case)) < 4.0 * est.std_error
        for case, est in zip(cases, estimates)
    )
    return _result(2, "pcsft monte carlo consistency", hits >= 18, f"{hits}/20 within 4 sigma")


def criterion_3() -> CriterionResult:
    """Closed-form pair correlation matches brute-force MC at d=2,3."""
    rng = np.random.default_rng(303)
    cases = []
    for d, i in [(2, i) for i in range(10)] + [(3, i) for i in range(10)]:
        v = fields.QuadraticVariable(_random_hermitian(rng, d))
        w = fields.QuadraticVariable(_random_hermitian(rng, d))
        cases.append((v, w, fields.FieldMeasure(_random_psd(rng, d)), 8000 + i + 100 * d))
    estimates = _each(lambda case: fields.mc_pair_correlation(*case[:3], n=10**6, seed=case[3]), cases)
    hits = sum(
        abs(est.mean - fields.exact_pair_correlation(*case[:3])) < 4.0 * est.std_error
        for case, est in zip(cases, estimates)
    )
    return _result(3, "wick pair-correlation oracle", hits == 20, f"{hits}/20 within 4 sigma")


def criterion_4() -> CriterionResult:
    """Distinct measures with one covariance map to one state."""
    rng = np.random.default_rng(404)
    d, n = 4, 10**5
    b = _random_psd(rng, d, unit_trace=True)
    w, vec = linalg.spectral_decomposition(b)
    # discrete fixture: points +-sqrt(d*lambda_i) v_i with equal weights
    # have covariance sum_i lambda_i v_i v_i* = B exactly
    disc_cov = (vec * w) @ vec.conj().T
    rho_gauss = linalg.density_from_covariance(b)
    rho_disc = linalg.density_from_covariance(disc_cov)
    state_gap = float(np.linalg.norm(rho_gauss - rho_disc))
    gauss, gauss_rng = fields.FieldMeasure(b), philox(11)
    idx = rng.integers(0, d, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    # both sample sets are made and summed as phi phi* a block at a time; the
    # Gaussian blocks continue one stream, so joined they are one draw of n
    sums = np.zeros((2, d, d), dtype=complex)
    for start in range(0, n, fields._BLOCK):
        block = slice(start, start + fields._BLOCK)
        gauss_samples = fields.sample_fields(gauss, idx[block].size, gauss_rng)
        disc_samples = (signs[block] * np.sqrt(d * w[idx[block]]))[:, None] * vec.T[idx[block]]
        for total, samples in zip(sums, (gauss_samples, disc_samples)):
            total += samples.T @ samples.conj()
    emp_gauss, emp_disc = (fields._covariance_from_sum(total, n) for total in sums)
    emp_gap = float(np.linalg.norm(emp_gauss - emp_disc))
    passed = state_gap < 1e-12 and emp_gap < 0.02
    return _result(
        4,
        "state-map non-injectivity",
        passed,
        f"state gap {state_gap:.2e} < 1e-12, empirical gap {emp_gap:.4f} < 0.02",
    )


def criterion_5() -> CriterionResult:
    """Singlet CHSH value and grid maximum respect the quantum bound."""
    target = 2.0 * np.sqrt(2.0)
    s_opt = abs(chsh.chsh_value(chsh.singlet_state(), chsh.ChshAngles(*chsh.OPTIMAL_ANGLES)))
    grid_max, _ = chsh.chsh_grid_max(chsh.singlet_state())
    passed = abs(s_opt - target) < 1e-10 and grid_max <= target + 1e-9
    return _result(
        5,
        "chsh quantum value",
        passed,
        f"|S_opt - 2*sqrt(2)| = {abs(s_opt - target):.2e}, grid max {grid_max:.10f}",
    )


def criterion_6() -> CriterionResult:
    """Classical bound: enumeration and 100 random hidden-variable strategies."""
    bound = chsh.deterministic_bound_enumeration()
    rng = np.random.default_rng(606)
    n = 10**5
    stderr = 4.0 / np.sqrt(n)
    angles = [chsh.ChshAngles(*rng.uniform(-np.pi, np.pi, size=4)) for _ in range(100)]
    streams = _each(lambda i: chsh.hv_sample(chsh.HvStrategy(angles=angles[i]), n, seed=9000 + i), range(100))
    worst = max(abs(chsh.chsh_from_stream(stream)) for stream in streams)
    corr = [chsh.empirical_correlation(streams[0], p) for p in chsh.PAIR_NAMES]
    pairs_ok = all(np.isfinite(c) and abs(c) <= 1.0 for c in corr)
    passed = bound == 2.0 and worst <= 2.0 + 5.0 * stderr and pairs_ok
    return _result(
        6,
        "classical chsh bound",
        passed,
        f"enumeration {bound}, max |S| {worst:.4f} <= {2.0 + 5.0 * stderr:.4f}, "
        f"all six pairs from one stream: {pairs_ok}",
    )


def criterion_7() -> CriterionResult:
    """Commutation structure at the optimal angles."""
    audit = chsh.compatibility_audit(chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))
    cross_max = max(audit["cross"].values())
    local_min = min(audit["local"].values())
    passed = cross_max < 1e-12 and local_min > 0.1
    return _result(
        7,
        "compatibility audit",
        passed,
        f"cross max {cross_max:.2e} < 1e-12, local min {local_min:.3f} > 0.1",
    )


def _langevin(**overrides) -> LangevinConfig:
    """One unit-mass particle at unit friction and temperature, in the k = 1
    harmonic well, started from its stationary law, stepped at dt 1e-3 and
    stored every step; ``overrides`` replace any of these fields."""
    base = dict(
        n_particles=1,
        mass=1.0,
        friction=1.0,
        temperatures=(1.0,),
        potential=Potential.harmonic(1.0),
        dt=1e-3,
        x_init="stationary",
        store_every=1,
    )
    return LangevinConfig(**dict(base, **overrides))


def criterion_8() -> CriterionResult:
    """Stationary law of the overdamped harmonic oscillator."""
    from scipy import stats

    # the test reads the final state alone, so only the first and last are stored
    ens = integrate_overdamped(_langevin(t_end=0.1, n_trajectories=10**5, seed=77, store_every=100))
    final = ens.x[:, -1, 0]
    n = final.size
    var = final.var(ddof=1)
    var_err = np.sqrt(2.0 / n)  # sampling std of the variance of N(0,1)
    ks = stats.kstest(final / final.std(ddof=1), "norm")
    passed = abs(var - 1.0) < 3.0 * var_err and ks.pvalue > 0.01
    return _result(
        8,
        "overdamped stationary law",
        passed,
        f"var {var:.4f} (|dev| {abs(var - 1.0):.4f} < {3 * var_err:.4f}), "
        f"KS p={ks.pvalue:.3f} > 0.01",
    )


# criterion 9's epsilon and bins, then criterion 10's epsilon sweep and bin
_BENCH_BINS = [(4e-3, np.arange(-2.05, 2.0501, 0.1))] + [
    (eps, np.array([0.95, 1.05])) for eps in (4e-3, 6e-3, 8e-3, 1e-2)
]


def _stream_bench() -> tuple:
    """What criteria 9 and 10 read of the stationary-oscillator bench, from
    one streamed run of it (``stored_states``): criterion 9's (v_plus,
    v_minus) and KDE sample, and criterion 10's (v_plus, v_minus) per
    epsilon. Each stored position row feeds the velocity tallies whose
    lattice it is on. On criterion 9's lattice j = 0, 1, ..., 30 the
    positions of trajectories i with i + j even go into the KDE sample: of
    the (i, j) lattice, .flat[::2], 1.86M of 3.72M positions, one row of
    the sample array per lattice time. The run stores every 2nd step: the
    epsilons are 4, 6, 8 and 10 steps."""
    config = _langevin(t_end=0.12, n_trajectories=120_000, seed=7878, store_every=2)
    n = config.n_trajectories
    tallies = [VelocityTally(edges, eps, n) for eps, edges in _BENCH_BINS]
    steps = [epsilon_steps(config, eps) for eps, _ in _BENCH_BINS]
    _, n_stored = _schedule(config)
    # n is even, so that every row holds n / 2 positions
    sample = np.empty((len(range(0, n_stored, steps[0])), n // 2))
    for slot, (_, x, _) in enumerate(stored_states(config, underdamped=False)):
        for tally, k in zip(tallies, steps):
            if slot % k == 0:
                tally.add(x[:, 0])
        if slot % steps[0] == 0:
            j = slot // steps[0]
            sample[j] = x[j % 2 :: 2, 0]
    estimates = [tally.estimates() for tally in tallies]
    return estimates[0], sample, estimates[1:]


def criterion_9(bench: tuple) -> CriterionResult:
    """Osmotic velocity equals -T d/dx log density on the stationary bench."""
    (vp, vm), sample, _ = bench
    u = osmotic_velocity(vp, vm)
    oracle = -1.0 * log_density_gradient(sample, u.bin_centers)
    ok_bins = ~np.isnan(u.values)
    dev = np.abs(u.values[ok_bins] - oracle[ok_bins])
    tol = 3.0 * u.std_errors[ok_bins] + 0.03
    binwise_ok = bool(np.all(dev < tol))
    # triple (v+, v-, u) at x = 1
    i1 = int(np.argmin(np.abs(u.bin_centers - 1.0)))
    trip_ok = (
        abs(vp.values[i1] + 1.0) < 3.0 * vp.std_errors[i1] + 0.02
        and abs(vm.values[i1] - 1.0) < 3.0 * vm.std_errors[i1] + 0.02
        and abs(u.values[i1] - 1.0) < 3.0 * u.std_errors[i1] + 0.02
    )
    return _result(
        9,
        "osmotic velocity identity",
        binwise_ok and trip_ok,
        f"binwise |u + T dlogP| ok: {binwise_ok}; at x=1: "
        f"v+={vp.values[i1]:.3f}, v-={vm.values[i1]:.3f}, u={u.values[i1]:.3f}",
    )


def criterion_10(bench: tuple) -> CriterionResult:
    """Velocity gap at x=1 stays above 1 (5 sigma) across the epsilon sweep on the bench."""
    rows = [velocity_gap(vp, vm) for vp, vm in bench[2]]
    ok = all(row["gap"] - 5.0 * row["gap_err"] > 1.0 for row in rows)
    gaps = ", ".join(f"{r['gap']:.3f}@{r['epsilon']:g}" for r in rows)
    return _result(10, "trajectory non-smoothness", ok, f"gaps [{gaps}] all > 1 at 5 sigma")


def criterion_11() -> CriterionResult:
    """Fine-resolution velocities equal p/m for the free underdamped particle."""
    # stored every 4th step: epsilon is 4 dt, and the check reads the lattice times alone
    config = _langevin(
        potential=Potential.free(),
        dt=2.5e-3,
        t_end=0.25,
        n_trajectories=50_000,
        seed=4242,
        x_init=0.0,
        store_every=4,
    )
    ens = integrate_underdamped(config)
    res = momentum_resolution_check(ens, epsilon=1e-2, p_center=1.0)
    tol_p = 0.05 * abs(res.p_over_m) + 3.0 * res.v_plus_err
    tol_m = 0.05 * abs(res.p_over_m) + 3.0 * res.v_minus_err
    passed = (
        abs(res.v_plus - res.p_over_m) < tol_p
        and abs(res.v_minus - res.p_over_m) < tol_m
    )
    return _result(
        11,
        "fine-resolution momentum limit",
        passed,
        f"v+={res.v_plus:.4f}, v-={res.v_minus:.4f}, p/m={res.p_over_m:.4f}",
    )


def criterion_12() -> CriterionResult:
    """Reruns with the same config and seed are byte-identical at 1 and 8 threads."""
    from . import cli

    config = {
        "command": "chsh-hv",
        "seed": 31415,
        "params": {
            "n": 20_000,
            "strategy": {"kind": "sphere_sign", "angles": [0.0, 1.5707963, 0.7853982, -0.7853982]},
        },
    }
    digests = []
    for threads in (1, 8):
        with tempfile.TemporaryDirectory() as tmp:
            cli.run_experiment(config, out_dir=tmp, threads=threads)
            digests.append(_digest_outputs(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        cli.run_experiment(config, out_dir=tmp, threads=1)
        digests.append(_digest_outputs(tmp))
    passed = digests[0] == digests[1] == digests[2]
    return _result(
        12, "determinism across reruns and thread counts", passed, f"output digests equal: {passed}"
    )


def _digest_outputs(out_dir: str) -> dict:
    import hashlib

    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":  # carries wall-clock time by design
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _result(number, name, passed, detail) -> CriterionResult:
    # criteria compute verdicts with numpy, whose bool_ does not serialise to JSON
    return CriterionResult(number=number, name=name, passed=bool(passed), detail=detail, seconds=0.0)


_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the battery (optionally a subset), timing each criterion.

    Criteria 9 and 10 share the stationary-oscillator bench, streamed once
    (``_stream_bench``) just before the first of them that runs, outside
    either criterion's time; what it leaves, the velocity estimates and
    criterion 9's 15 MB KDE sample, is dropped after the last. Criterion 8
    stores its first and last state only, criterion 11 every 4th step.
    """
    selected = set(numbers or range(1, 13))
    users = sorted({9, 10} & selected)
    bench = None
    results = []
    for number, func in enumerate(_CRITERIA, start=1):
        if number not in selected:
            continue
        if users and number == users[0]:
            bench = _stream_bench()
        start = time.perf_counter()
        res = func(bench) if number in users else func()
        res.seconds = time.perf_counter() - start
        results.append(res)
        if users and number == users[-1]:
            bench = None
    return results
