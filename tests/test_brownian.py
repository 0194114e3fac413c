import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bildsim import brownian, runio
from bildsim.brownian import (
    LangevinConfig,
    MomentumResolutionResult,
    Potential,
    TrajectoryEnsemble,
    coarse_velocities,
    fokker_planck_residual,
    integrate_overdamped,
    integrate_underdamped,
    log_density_gradient,
    momentum_resolution_check,
    nonsmoothness_witness,
    osmotic_velocity,
    silverman_bandwidth,
    timescale_report,
)
from bildsim.errors import NumericalError, RegimeError, ValidationError


def harmonic_config(**overrides):
    base = dict(
        n_particles=1,
        mass=1.0,
        friction=1.0,
        temperatures=(1.0,),
        potential=Potential.harmonic(1.0),
        dt=1e-3,
        t_end=0.05,
        n_trajectories=10_000,
        seed=1,
        x_init="stationary",
        store_every=5,
    )
    base.update(overrides)
    return LangevinConfig(**base)


def closed_form_energy(pot, x):
    """U summed over the particles of each row of x, written out per kind."""
    if pot.kind == "free":
        return np.zeros(x.shape[0])
    if pot.kind == "harmonic":
        return 0.5 * np.sum(np.asarray(pot.spring_constants) * x**2, axis=1)
    return np.sum(sum(c * x**j for j, c in enumerate(pot.coefficients)), axis=1)


class TestPotential:
    @pytest.mark.parametrize(
        "pot",
        [
            Potential.free(),
            Potential.harmonic(2.5),
            Potential.harmonic([1.0, 3.0]),
            Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.25]),
        ],
    )
    def test_force_matches_finite_differences(self, pot):
        rng = np.random.default_rng(0)
        n = len(pot.spring_constants) if pot.kind == "harmonic" else 2
        if pot.kind == "harmonic" and len(pot.spring_constants) == 1:
            n = 1
        x = rng.uniform(-2, 2, size=(50, n))
        f = pot.force(x)
        h = 1e-5
        for i in range(n):
            step = np.zeros_like(x)
            step[:, i] = h
            fd = -(closed_form_energy(pot, x + step) - closed_form_energy(pot, x - step)) / (2 * h)
            assert np.max(np.abs(fd - f[:, i])) <= 1e-6 * max(np.max(np.abs(f[:, i])), 1.0)

    def test_harmonic_values(self):
        pot = Potential.harmonic(2.0)
        x = np.array([[1.5]])
        assert closed_form_energy(pot, x)[0] == pytest.approx(2.25)
        assert pot.force(x)[0, 0] == pytest.approx(-3.0)

    def test_invalid_spring_constant(self):
        with pytest.raises(ValidationError):
            Potential.harmonic(-1.0)

    def test_round_trip_dict(self):
        pot = Potential.polynomial([0.0, 0.0, 0.5])
        assert Potential.from_dict(pot.to_dict()) == pot


class TestConfigDict:
    # config_hash(to_dict()) is written into trajectories.bin, so these
    # digests must not change
    @pytest.mark.parametrize(
        "overrides,digest",
        [
            (
                dict(
                    n_particles=3,
                    friction=2.0,
                    temperatures=(1.5,),
                    potential=Potential.harmonic([1.0, 2.0, 3.0]),
                    t_end=0.1,
                    n_trajectories=10,
                    seed=5,
                    store_every=2,
                ),
                "4c4936dd86d068de8cff524173edaf9fd54bbc7d63a0d9445224a4c0374214f6",
            ),
            (
                dict(
                    mass=2.0,
                    friction=0.5,
                    temperatures=(0.7,),
                    potential=Potential.polynomial([0, 0, 0.5, 0, 0.25]),
                    dt=2e-3,
                    t_end=1,
                    n_trajectories=4,
                    seed=9,
                    paper_units=True,
                    store_every=1,
                    x_init=0.5,
                    p_init=0.0,
                ),
                "4b99cff763b500544b2f8c368eb9b39cf981ff611d6bbfae73ed4f37367ba2dc",
            ),
        ],
        ids=["multi-particle", "polynomial"],
    )
    def test_config_hash_pinned(self, overrides, digest):
        config = harmonic_config(**overrides)
        assert list(config.to_dict()) == [f.name for f in dataclasses.fields(LangevinConfig)]
        assert runio.config_hash(config.to_dict()) == digest


class TestTimescaleReport:
    def test_strongly_overdamped(self):
        config = harmonic_config(friction=100.0, dt=1e-4)
        rep = timescale_report(config)
        assert rep.tau_p == pytest.approx(0.01)
        assert rep.tau_x == pytest.approx(100.0)
        assert rep.overdamped and not rep.tau_x_estimated

    def test_balanced_not_overdamped(self):
        rep = timescale_report(harmonic_config())
        assert rep.tau_p == pytest.approx(1.0)
        assert rep.tau_x == pytest.approx(1.0)
        assert not rep.overdamped

    def test_free_always_overdamped(self):
        config = harmonic_config(potential=Potential.free(), x_init=0.0)
        rep = timescale_report(config)
        assert rep.tau_x == np.inf and rep.overdamped

    def test_polynomial_estimated(self):
        # U = x^2/2 spelled as a polynomial: tau_x = gamma/k, although t_end
        # is far shorter than tau_x
        for friction in (1.0, 200.0):
            config = harmonic_config(potential=Potential.polynomial([0.0, 0.0, 0.5]), x_init=0.0, friction=friction)
            rep = timescale_report(config)
            assert rep.tau_x_estimated
            assert rep.tau_x == pytest.approx(friction, rel=1e-4)

    def test_spellings_of_one_well_classify_alike(self):
        reports = [
            timescale_report(harmonic_config(potential=potential, x_init=0.0, friction=200.0))
            for potential in (Potential.harmonic(1.0), Potential.polynomial([0.0, 0.0, 0.5]))
        ]
        assert reports[0].overdamped and reports[1].overdamped

    def test_quartic_converged_on_the_grid(self, monkeypatch):
        config = harmonic_config(potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, 1.0]), x_init=0.0)
        coarse = timescale_report(config).tau_x
        monkeypatch.setattr(brownian, "_GAP_NODES", 2 * brownian._GAP_NODES)
        assert timescale_report(config).tau_x == pytest.approx(coarse, rel=1e-5)
        assert coarse == pytest.approx(0.36534, rel=1e-4)

    def test_double_well_kramers_time(self):
        config = harmonic_config(
            potential=Potential.polynomial([0.0, 0.0, -0.5, 0.0, 0.25]), temperatures=(0.2,), x_init=0.0
        )
        tau_x = timescale_report(config).tau_x
        assert tau_x == pytest.approx(7.4196, rel=1e-4)
        # Kramers: tau_x = 1/(2 k), k = sqrt(U''(1) |U''(0)|) / (2 pi gamma) e^{-dU/T};
        # a barrier of 1.25 T is low enough to leave a few per cent between them
        kramers = np.pi / np.sqrt(2.0) * np.exp(0.25 / 0.2)
        assert tau_x == pytest.approx(kramers, rel=0.05)

    def test_smallest_tau_x_over_temperatures(self):
        well = Potential.polynomial([0.0, 0.0, -0.5, 0.0, 0.25])
        single = [
            timescale_report(harmonic_config(potential=well, temperatures=(t,), x_init=0.0)).tau_x for t in (0.2, 1.0)
        ]
        config = harmonic_config(n_particles=3, potential=well, temperatures=(0.2, 1.0, 0.2), x_init=0.0)
        assert timescale_report(config).tau_x == min(single) < max(single)

    @pytest.mark.parametrize(
        "coefficients,temperature",
        [
            ([0.0, 1.0], 1.0),
            ([0.0, 0.0, 0.0, 0.0, -1.0], 1.0),
            ([0.0, 0.0, 0.0], 1.0),
            # a flat-bottomed well: no curvature at its minimum
            ([0.0, 0.0, 0.0, 0.0, 1.0], 0.0),
            # Kramers time about e^83: below the grid's resolution of the zero mode
            ([0.0, 0.0, -0.5, 0.0, 0.25], 0.003),
        ],
        ids=["linear", "negative-quartic", "all-zero", "zero-temperature", "unresolved-double-well"],
    )
    def test_infinite_tau_x(self, coefficients, temperature):
        config = harmonic_config(
            potential=Potential.polynomial(coefficients), temperatures=(temperature,), x_init=0.0
        )
        rep = timescale_report(config)
        assert rep.tau_x == np.inf and rep.overdamped

    def test_zero_temperature_relaxation(self):
        # at T = 0, gamma / U'' at the stiffest local minimum
        for friction in (1.0, 200.0):
            reports = [
                timescale_report(
                    harmonic_config(potential=potential, temperatures=(0.0,), x_init=0.0, friction=friction)
                )
                for potential in (Potential.harmonic(1.0), Potential.polynomial([0.0, 0.0, 0.5]))
            ]
            assert reports[1].tau_x == reports[0].tau_x == friction
            assert reports[1].overdamped == reports[0].overdamped
        # U = -x^2/2 + x^4/4: U''(+-1) = 2 at the minima, -1 at the maximum
        double_well = Potential.polynomial([0.0, 0.0, -0.5, 0.0, 0.25])
        config = harmonic_config(potential=double_well, temperatures=(0.0,), x_init=0.0)
        assert timescale_report(config).tau_x == pytest.approx(0.5, rel=1e-12)
        hot_and_cold = harmonic_config(n_particles=2, potential=double_well, temperatures=(0.0, 1.0), x_init=0.0)
        assert timescale_report(hot_and_cold).tau_x == pytest.approx(0.5, rel=1e-12)

    def test_report_ignores_the_run(self, monkeypatch):
        def integrate(config):
            raise AssertionError("timescale_report ran an integrator")

        monkeypatch.setattr(brownian, "integrate_overdamped", integrate)
        monkeypatch.setattr(brownian, "integrate_underdamped", integrate)
        quartic = Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.25])
        reports = [
            timescale_report(harmonic_config(potential=quartic, **run))
            for run in (
                dict(seed=1, n_trajectories=10, t_end=0.05, dt=1e-3, store_every=1, x_init=0.0),
                dict(seed=2, n_trajectories=3000, t_end=5.0, dt=1e-2, store_every=7, x_init=1.5),
            )
        ]
        assert reports[0] == reports[1]

    def test_potential_that_cannot_be_located_is_numerical_error(self):
        # the leading coefficient's ratios to the others overflow
        for temperature in (1.0, 0.0):
            config = harmonic_config(
                potential=Potential.polynomial([0.0, 0.0, 1.0, 0.0, 1e-320]), temperatures=(temperature,), x_init=0.0
            )
            with pytest.raises(NumericalError, match="cannot locate"):
                timescale_report(config)


class TestUnderdamped:
    def test_deterministic_momentum_decay(self):
        config = harmonic_config(
            potential=Potential.free(),
            temperatures=(0.0,),
            x_init=0.0,
            p_init=2.0,
            dt=0.01,
            t_end=1.0,
            n_trajectories=3,
            store_every=100,
        )
        ens = integrate_underdamped(config)
        # p(tau_p) = p0 / e
        assert ens.p[0, -1, 0] == pytest.approx(2.0 * np.exp(-1.0), rel=0.01)

    def test_equipartition_free(self):
        config = harmonic_config(
            potential=Potential.free(),
            x_init=0.0,
            p_init="stationary",
            dt=0.01,
            t_end=2.0,
            n_trajectories=20_000,
            store_every=50,
        )
        ens = integrate_underdamped(config)
        p2 = (ens.p[:, -1, 0] ** 2).mean()
        stderr = (ens.p[:, -1, 0] ** 2).std(ddof=1) / np.sqrt(ens.p.shape[0])
        assert abs(p2 - 1.0) < 3.0 * stderr

    def test_harmonic_position_variance(self):
        config = harmonic_config(
            dt=0.01,
            t_end=2.0,
            n_trajectories=20_000,
            p_init="stationary",
            store_every=50,
        )
        ens = integrate_underdamped(config)
        var = ens.x[:, -1, 0].var(ddof=1)
        assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / ens.x.shape[0])

    def test_step_size_guard(self):
        with pytest.raises(RegimeError, match="tau_p"):
            integrate_underdamped(harmonic_config(dt=0.2, friction=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_detected(self):
        config = harmonic_config(
            potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, 1.0]),
            x_init=3.0,
            dt=0.04,
            t_end=40.0,
            n_trajectories=4,
            temperatures=(0.0,),
            p_init=0.0,
        )
        with pytest.raises(NumericalError, match="blew up"):
            integrate_underdamped(config)


class TestCheckFinite:
    """The end-of-run check on a stored (time, trajectory, particle) array."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_planted_entries_are_counted(self, bad):
        stored = np.random.default_rng(0).standard_normal((101, 1000, 1))
        stored[[3, 50, 100], [0, 999, 500], 0] = bad
        with pytest.raises(NumericalError, match=r"at step 100 \(t=0\.1\): 3 non-finite state entries"):
            brownian._check_finite(stored, 100, 1e-3)

    def test_clean_array_allocates_nothing(self):
        # 10 MB; a per-entry mask would take 1.25 MB
        stored = np.random.default_rng(0).standard_normal((101, 12_400, 1))
        tracemalloc.start()
        try:
            brownian._check_finite(stored, 100, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak


class TestOverdamped:
    def test_deterministic_decay(self):
        config = harmonic_config(
            temperatures=(0.0,),
            x_init=1.0,
            dt=1e-3,
            t_end=1.0,
            n_trajectories=2,
            store_every=1000,
        )
        ens = integrate_overdamped(config)
        assert ens.x[0, -1, 0] == pytest.approx(np.exp(-1.0), rel=0.01)

    def test_free_diffusion_law(self):
        config = harmonic_config(
            potential=Potential.free(),
            x_init=0.5,
            dt=1e-3,
            t_end=0.2,
            n_trajectories=20_000,
            store_every=200,
        )
        ens = integrate_overdamped(config)
        disp = ens.x[:, -1, 0]
        var = ((disp - 0.5) ** 2).mean()
        expected = 2.0 * 1.0 * 0.2  # 2 (T/gamma) t
        stderr = ((disp - 0.5) ** 2).std(ddof=1) / np.sqrt(disp.size)
        assert abs(var - expected) < 3.0 * stderr

    def test_stationary_variance_and_shape(self):
        config = harmonic_config(n_trajectories=20_000, t_end=0.1)
        ens = integrate_overdamped(config)
        final = ens.x[:, -1, 0]
        assert abs(final.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / final.size)
        ks = stats.kstest(final / final.std(ddof=1), "norm")
        assert ks.pvalue > 0.01

    def test_step_bound_guard(self):
        with pytest.raises(RegimeError, match="step bound"):
            integrate_overdamped(harmonic_config(dt=0.05))

    @pytest.mark.parametrize("coefficients", [[0, 0, 0, 0, 1], [0, 0, 0.5, 0, 0.25]])
    def test_polynomial_step_bound_guard(self, coefficients):
        # the bound 1e-3 tau_x holds for every kind: just above it is refused, just below runs
        config = harmonic_config(potential=Potential.polynomial(coefficients), x_init=0.0, n_trajectories=2)
        bound = 1e-3 * timescale_report(config).tau_x
        with pytest.raises(RegimeError, match="step bound"):
            integrate_overdamped(dataclasses.replace(config, dt=1.01 * bound))
        integrate_overdamped(dataclasses.replace(config, dt=0.99 * bound))

    def test_bit_reproducible(self):
        a = integrate_overdamped(harmonic_config(n_trajectories=100))
        b = integrate_overdamped(harmonic_config(n_trajectories=100))
        np.testing.assert_array_equal(a.x, b.x)

    def test_paper_units_sets_unit_friction(self):
        config = harmonic_config(friction=7.0, paper_units=True)
        assert config.gamma == 1.0
        np.testing.assert_allclose(config.diffusion_coefficients(), [1.0])


class TestDiscreteLaw:
    """Both integrators against the exact law of their Euler-Maruyama chains
    in a harmonic well, which is linear and Gaussian. Overdamped, per
    particle: x' = (1 - a) x + b xi with a = k dt / gamma, b^2 = 2 T dt / gamma,
    so after n steps the mean is x0 (1 - a)^n and the variance
    b^2 (1 - (1 - a)^2n) / (1 - (1 - a)^2). Underdamped: s = (x, p) steps as
    s' = M s + (0, b xi) with M = [[1, dt/m], [-k dt, 1 - gamma dt/m]] and
    b^2 = 2 gamma T dt, so the mean is M^n s0 and the covariance follows
    Sigma' = M Sigma M^T + diag(0, b^2)."""

    SPRINGS = (1.0, 2.5)

    def overdamped(self, temperatures, n_trajectories, seed=5):
        config = harmonic_config(
            n_particles=2, potential=Potential.harmonic(list(self.SPRINGS)), temperatures=temperatures,
            friction=3.0, x_init=1.5, dt=1e-3, t_end=0.2, n_trajectories=n_trajectories, store_every=40, seed=seed,
        )
        a = np.array(self.SPRINGS) * config.dt / config.gamma
        b2 = 2.0 * config.temps * config.dt / config.gamma
        # the steps at the six stored times, one row each
        steps = np.arange(0, 201, 40)[:, None]
        mean = 1.5 * (1.0 - a) ** steps
        var = b2 * (1.0 - (1.0 - a) ** (2 * steps)) / (1.0 - (1.0 - a) ** 2)
        return integrate_overdamped(config), mean, var

    def underdamped(self, temperatures, n_trajectories, seed=6):
        config = harmonic_config(
            n_particles=2, potential=Potential.harmonic(list(self.SPRINGS)), temperatures=temperatures,
            mass=2.0, friction=1.5, x_init=1.0, p_init=-0.5, dt=0.01, t_end=3.0,
            n_trajectories=n_trajectories, store_every=60, seed=seed,
        )
        ens = integrate_underdamped(config)
        dt, m, gamma = config.dt, config.mass, config.gamma
        # per particle, the mean and covariance at every stored time
        means, covs = [], []
        for k, temperature in zip(self.SPRINGS, config.temps):
            step = np.array([[1.0, dt / m], [-k * dt, 1.0 - gamma * dt / m]])
            noise = np.diag([0.0, 2.0 * gamma * temperature * dt])
            s, sigma = np.array([1.0, -0.5]), np.zeros((2, 2))
            mean, cov = [s], [sigma]
            for n in range(1, len(ens.times)):
                for _ in range(config.store_every):
                    s, sigma = step @ s, step @ sigma @ step.T + noise
                mean.append(s)
                cov.append(sigma)
            means.append(mean)
            covs.append(cov)
        # (time, particle, 2) and (time, particle, 2, 2)
        return ens, np.array(means).transpose(1, 0, 2), np.array(covs).transpose(1, 0, 2, 3)

    def test_overdamped_zero_temperature_is_exact(self):
        ens, mean, _ = self.overdamped((0.0, 0.0), n_trajectories=3)
        assert ens.x.shape[1] == mean.shape[0] == 6
        for x in ens.x:
            np.testing.assert_allclose(x, mean, rtol=1e-12, atol=0.0)

    def test_underdamped_zero_temperature_is_exact(self):
        ens, mean, _ = self.underdamped((0.0, 0.0), n_trajectories=3)
        assert ens.x.shape[1] == mean.shape[0] == 6
        # relative to the size of the state: x and p pass through zero
        scale = np.linalg.norm(mean, axis=-1)
        for x, p in zip(ens.x, ens.p):
            err = np.hypot(x - mean[..., 0], p - mean[..., 1])
            assert np.all(err <= 1e-12 * scale), err / scale

    def test_overdamped_moments(self):
        ens, mean, var = self.overdamped((1.0, 0.3), n_trajectories=20_000)
        n = ens.x.shape[0]
        got_mean, got_var = ens.x.mean(axis=0), ens.x.var(axis=0, ddof=1)
        # the start is deterministic; every later time has noise
        np.testing.assert_array_equal(got_var[0], 0.0)
        assert np.all(np.abs(got_mean[1:] - mean[1:]) < 4.0 * np.sqrt(var[1:] / n))
        assert np.all(np.abs(got_var[1:] / var[1:] - 1.0) < 5.0 * np.sqrt(2.0 / (n - 1)))

    def test_underdamped_moments(self):
        ens, mean, cov = self.underdamped((1.0, 0.3), n_trajectories=20_000)
        n = ens.x.shape[0]
        s = np.stack([ens.x, ens.p], axis=-1)[:, 1:]
        mean, cov = mean[1:], cov[1:]
        var = np.diagonal(cov, axis1=-2, axis2=-1)
        assert np.all(np.abs(s.mean(axis=0) - mean) < 4.0 * np.sqrt(var / n))
        assert np.all(np.abs(s.var(axis=0, ddof=1) / var - 1.0) < 5.0 * np.sqrt(2.0 / (n - 1)))
        # the x-p covariance, whose sampling variance is (Sxx Spp + Sxp^2) / n
        centred = s - s.mean(axis=0)
        got_xp = (centred[..., 0] * centred[..., 1]).sum(axis=0) / (n - 1)
        sxp = cov[..., 0, 1]
        assert np.all(np.abs(got_xp - sxp) < 5.0 * np.sqrt((var[..., 0] * var[..., 1] + sxp**2) / n))


@pytest.mark.parametrize("integrate", [integrate_overdamped, integrate_underdamped])
def test_storage_beyond_physical_memory_rejected(integrate):
    config = harmonic_config(n_trajectories=10**30)
    with pytest.raises(ValidationError, match="physical memory"):
        integrate(config)


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(n_particles=3, potential=Potential.harmonic([1.0, 2.0])), "2 spring constants for 3 particles"),
        (dict(x_init="statoinary"), "unknown x_init 'statoinary'"),
        (dict(p_init="x"), "unknown p_init 'x'"),
        (dict(potential=Potential.polynomial([0.0, 0.0, 0.5])), "requires a harmonic potential"),
        (dict(friction=5e-324), "tau_p = mass / friction"),
    ],
    ids=["spring-count", "x_init", "p_init", "stationary-polynomial", "tau_p-overflow"],
)
def test_invalid_model_rejected_at_construction(overrides, message):
    with pytest.raises(ValidationError, match=message):
        harmonic_config(**overrides)


class TestFokkerPlanckResidual:
    def test_stationary_harmonic(self):
        config = harmonic_config(n_trajectories=10**6, t_end=0.1, store_every=20)
        ens = integrate_overdamped(config)
        assert fokker_planck_residual(ens) <= 0.1

    def test_insufficient_samples(self):
        ens = integrate_overdamped(harmonic_config(n_trajectories=1000))
        with pytest.raises(ValidationError, match="insufficient"):
            fokker_planck_residual(ens)

    def test_point_source_spreading(self):
        # delta-like start: variance grows as 2 (T/gamma) t in the free case
        config = harmonic_config(
            potential=Potential.free(),
            x_init=0.0,
            t_end=0.1,
            n_trajectories=20_000,
            store_every=20,
        )
        ens = integrate_overdamped(config)
        for ti in range(1, ens.n_times):
            var = ens.x[:, ti, 0].var()
            assert var == pytest.approx(2.0 * ens.times[ti], rel=0.05)

    def test_deterministic_limit_follows_characteristics(self):
        # T=0 reduces the dynamics to transport along dx/dt = f(x)
        config = harmonic_config(
            temperatures=(0.0,),
            x_init=0.8,
            t_end=0.5,
            n_trajectories=2,
            store_every=100,
        )
        ens = integrate_overdamped(config)
        np.testing.assert_allclose(
            ens.x[0, :, 0], 0.8 * np.exp(-ens.times), rtol=0.01
        )


@pytest.fixture(scope="module")
def stationary_ensemble():
    config = harmonic_config(
        n_trajectories=60_000, t_end=0.08, store_every=1, seed=99
    )
    return integrate_overdamped(config)


class TestStorageLayout:
    """The integrators return (trajectory, time, particle) views of time-major
    memory; a loaded file is trajectory-major. Every consumer gives the same
    bits for both layouts."""

    @pytest.fixture(scope="class")
    def layouts(self):
        config = harmonic_config(
            p_init="stationary", dt=2.5e-3, t_end=0.05, n_trajectories=100_000, store_every=1, seed=5
        )
        stored = integrate_underdamped(config)
        loaded = dataclasses.replace(stored, x=np.ascontiguousarray(stored.x), p=np.ascontiguousarray(stored.p))
        # the test means something only while the two layouts differ
        assert stored.x.strides != loaded.x.strides and stored.p.strides != loaded.p.strides
        return stored, loaded

    def test_coarse_velocities(self, layouts):
        edges = np.linspace(-2.0, 2.0, 9)
        a, b = (coarse_velocities(ens, 1e-2, edges) for ens in layouts)
        for va, vb in zip(a, b):
            for field in ("values", "std_errors", "counts"):
                np.testing.assert_array_equal(getattr(va, field), getattr(vb, field))

    def test_nonsmoothness_witness(self, layouts):
        a, b = (nonsmoothness_witness(ens, [5e-3, 1e-2, 2e-2], 0.3) for ens in layouts)
        assert a == b

    def test_momentum_resolution_check(self, layouts):
        a, b = (momentum_resolution_check(ens, 1e-2, p_center=0.5) for ens in layouts)
        assert a == b

    def test_fokker_planck_residual(self, layouts):
        a, b = (fokker_planck_residual(ens) for ens in layouts)
        assert a == b

    def test_csv_rows(self, layouts):
        a, b = (
            list(runio.trajectories_to_csv_rows(dataclasses.replace(ens, x=ens.x[:40], p=ens.p[:40])))
            for ens in layouts
        )
        assert a == b

    @pytest.mark.parametrize("integrate", [integrate_overdamped, integrate_underdamped])
    def test_csv_rows_match_element_loop(self, integrate):
        # the per-element loop that the column conversion replaced, on two particles
        ens = integrate(harmonic_config(n_particles=2, t_end=0.02, n_trajectories=7, store_every=2))
        expected = [
            [traj, repr(float(t)), part, repr(float(ens.x[traj, ti, part]))]
            + ([] if ens.p is None else [repr(float(ens.p[traj, ti, part]))])
            for traj in range(7)
            for ti, t in enumerate(ens.times)
            for part in range(2)
        ]
        assert list(runio.trajectories_to_csv_rows(ens)) == expected

    def test_trajectory_file(self, layouts, tmp_path):
        # 100k x 21 positions and momenta: many write chunks, the last one partial
        paths = [tmp_path / "stored.bin", tmp_path / "loaded.bin"]
        for path, ens in zip(paths, layouts):
            runio.save_trajectories(str(path), ens)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        data = runio.load_trajectories(str(paths[0]))
        stored = layouts[0]
        np.testing.assert_array_equal(data["times"], stored.times)
        np.testing.assert_array_equal(data["x"], stored.x)
        np.testing.assert_array_equal(data["p"], stored.p)
        assert data["header"]["config_hash"] == runio.config_hash(stored.config.to_dict())


class TestCoarseVelocities:
    def test_deterministic_drift(self):
        config = harmonic_config(
            temperatures=(0.0,),
            x_init=1.0,
            dt=1e-3,
            t_end=0.02,
            n_trajectories=300,
            store_every=1,
        )
        ens = integrate_overdamped(config)
        eps = 4e-3
        edges = np.linspace(0.9, 1.05, 4)
        vp, vm = coarse_velocities(ens, eps, edges, min_count=10)
        occupied = ~np.isnan(vp.values)
        # v+ = -(k/gamma) x up to O(eps); smooth flow has v- = v+ up to O(eps)
        np.testing.assert_allclose(
            vp.values[occupied], -vp.bin_centers[occupied], atol=0.05
        )
        gap = np.nanmax(np.abs(vm.values - vp.values))
        assert gap <= 2.0 * eps

    def test_free_forward_velocity_vanishes(self):
        config = harmonic_config(
            potential=Potential.free(),
            x_init=0.0,
            t_end=0.08,
            n_trajectories=30_000,
            store_every=1,
        )
        ens = integrate_overdamped(config)
        vp, _ = coarse_velocities(ens, 4e-3, np.linspace(-1.0, 1.0, 11))
        ok = ~np.isnan(vp.values)
        assert np.all(np.abs(vp.values[ok]) < 5.0 * vp.std_errors[ok])

    def test_stationary_harmonic_drifts(self, stationary_ensemble):
        eps = 4e-3
        edges = np.array([0.95, 1.05])
        vp, vm = coarse_velocities(stationary_ensemble, eps, edges)
        assert vp.values[0] == pytest.approx(-1.0, abs=3 * vp.std_errors[0] + 0.02)
        assert vm.values[0] == pytest.approx(1.0, abs=3 * vm.std_errors[0] + 0.02)

    def test_epsilon_below_resolution_rejected(self, stationary_ensemble):
        with pytest.raises(ValidationError, match="twice the integration"):
            coarse_velocities(stationary_ensemble, 1e-3, np.linspace(-1, 1, 5))
        # the slack is relative to dt: a step far below any absolute slack
        tiny = integrate_overdamped(harmonic_config(dt=1e-13, t_end=1e-11, n_trajectories=50, store_every=1))
        with pytest.raises(ValidationError, match="twice the integration"):
            coarse_velocities(tiny, 1e-13, np.linspace(-1, 1, 5), min_count=1)
        coarse_velocities(tiny, 2e-13, np.linspace(-1, 1, 5), min_count=1)

    def test_empty_bins_are_missing(self, stationary_ensemble):
        edges = np.array([40.0, 41.0, 42.0])  # far outside the support
        for v in coarse_velocities(stationary_ensemble, 4e-3, edges):
            assert np.all(np.isnan(v.values))
            assert np.all(v.counts == 0)

    def test_harmonic_ar1_oracle(self):
        # Euler-Maruyama in the harmonic well is x' = (1 - a) x + b xi with
        # a = k dt / gamma, so E[x(t + eps) - x(t) | x(t)] = ((1 - a)^m - 1) x(t)
        # exactly, m = eps / dt; a stationary Gaussian AR(1) is reversible, so
        # E[x(t) - x(t - eps) | x(t)] = (1 - (1 - a)^m) x(t). Both are linear
        # in x, so a bin's mean is the coefficient times its mean anchor.
        config = harmonic_config(t_end=0.2, n_trajectories=20_000, store_every=1, seed=13)
        ens = integrate_overdamped(config)
        eps, m, a = 4e-2, 40, 1e-3
        edges = np.linspace(-2.0, 2.0, 9)
        vp, vm = coarse_velocities(ens, eps, edges)
        decay = (1.0 - a) ** m
        lattice = ens.x[:, ::m, 0]
        for v, anchors, coefficient in (
            (vp, lattice[:, :-1], (decay - 1.0) / eps),
            (vm, lattice[:, 1:], (1.0 - decay) / eps),
        ):
            counts, _ = np.histogram(anchors, edges)
            sums, _ = np.histogram(anchors, edges, weights=anchors)
            np.testing.assert_array_equal(v.counts, counts)
            ok = ~np.isnan(v.values)
            assert ok.sum() == 8
            expected = coefficient * sums[ok] / counts[ok]
            # the T/k start is O(a) away from the AR(1) stationary variance,
            # which moves v_minus by about m a^2 / eps relative: 1e-3 here
            np.testing.assert_array_less(np.abs(v.values[ok] - expected), 4.0 * v.std_errors[ok] + 0.01)

    @pytest.mark.parametrize("estimator", ["coarse_velocities", "momentum_resolution_check"])
    def test_working_set_beyond_physical_memory_rejected(self, estimator):
        # zero strides: 10^15 trajectories, whose rows coarse_velocities
        # tallies and whose picked windows momentum_resolution_check gathers
        shape = (10**15, 21, 1)
        huge = np.broadcast_to(np.zeros(1), shape)
        ens = TrajectoryEnsemble(times=np.arange(shape[1]) * 1e-3, x=huge, p=huge, config=harmonic_config())
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="physical memory"):
                if estimator == "coarse_velocities":
                    coarse_velocities(ens, 4e-3, np.linspace(-1.0, 1.0, 5))
                else:
                    momentum_resolution_check(ens, 4e-3, p_center=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_peak_per_block_within_memory_estimate(self):
        # the tally's block is one lattice row: 11 and 41 lattice times at
        # epsilon = 2 steps take the same peak, 40 bytes per trajectory and
        # a few kB of bins and results
        edges = np.linspace(-1.0, 1.0, 9)
        n_trajectories = 2**14
        peaks = []
        for n_times in (21, 81):
            ens = edge_case_ensemble(edges, n_trajectories=n_trajectories, n_times=n_times)
            tracemalloc.start()
            try:
                coarse_velocities(ens, 2e-3, edges, min_count=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert abs(long - short) < 2**12, peaks
        assert long <= 40 * n_trajectories + 2**14, peaks


def two_pass_velocities(ensemble, epsilon, bin_edges, min_count):
    """The estimator that one lattice pass replaced: per direction, gather the
    anchors and both ends of each window, digitize the anchors, drop those
    outside the edges, then bincount. Returns (values, std_errors, counts)
    for v_plus and for v_minus."""
    k = int(round(epsilon / ensemble.dt_store))
    x = ensemble.x[:, :, 0]
    starts = np.arange(0, ensemble.n_times - k, k)
    ends = starts + k
    edges = np.asarray(bin_edges, dtype=float)
    n_bins = edges.size - 1
    result = []
    # time-major: each bin adds its windows in time order, then trajectory order
    for anchors, firsts in ((starts, starts), (ends, ends - k)):
        at = x[:, anchors].T.ravel()
        vel = (x[:, firsts + k] - x[:, firsts]).T.ravel() / epsilon
        idx = np.digitize(at, edges) - 1
        valid = (idx >= 0) & (idx < n_bins)
        idx, vel = idx[valid], vel[valid]
        counts = np.bincount(idx, minlength=n_bins)
        sums = np.bincount(idx, weights=vel, minlength=n_bins)
        sq = np.bincount(idx, weights=vel * vel, minlength=n_bins)
        values = np.full(n_bins, np.nan)
        errs = np.full(n_bins, np.nan)
        ok = counts >= min_count
        values[ok] = sums[ok] / counts[ok]
        var = np.maximum(sq[ok] / counts[ok] - values[ok] ** 2, 0.0)
        errs[ok] = np.sqrt(var / counts[ok])
        result.append((values, errs, counts))
    return result


def four_gather_momentum_check(ensemble, epsilon, p_center):
    """The momentum check that one lattice difference replaced: momenta and
    both windows gathered at each anchor separately."""
    k = int(round(epsilon / ensemble.dt_store))
    x, p = ensemble.x[:, :, 0], ensemble.p[:, :, 0]
    anchors = np.arange(k, ensemble.n_times - k, k)
    p_mid = p[:, anchors].ravel()
    fwd = (x[:, anchors + k] - x[:, anchors]).ravel() / epsilon
    bwd = (x[:, anchors] - x[:, anchors - k]).ravel() / epsilon
    in_bin = np.abs(p_mid - p_center) <= 0.05
    nf = int(in_bin.sum())
    vf, vb = fwd[in_bin], bwd[in_bin]
    return MomentumResolutionResult(
        v_plus=float(vf.mean()),
        v_plus_err=float(vf.std(ddof=1) / np.sqrt(nf)),
        v_minus=float(vb.mean()),
        v_minus_err=float(vb.std(ddof=1) / np.sqrt(nf)),
        p_over_m=float(p_center / ensemble.config.mass),
    )


def edge_case_ensemble(edges, n_trajectories=4000, n_times=23, seed=3):
    """Positions drawn from the edges, their float neighbours, points outside
    the edges and values between them; time-major memory as the
    integrators store it, dt = 1e-3."""
    rng = np.random.default_rng(seed)
    special = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [edges[0] - 1.0, edges[-1] + 1.0]]
    )
    # density falling to zero at the last edge, so the upper bins run short
    inside = rng.triangular(edges[0], edges[0], edges[-1], n_times * n_trajectories)
    pick = rng.random(inside.size) < 0.25
    values = np.where(pick, rng.choice(special, inside.size), inside)
    xs = values.reshape(n_times, n_trajectories, 1)
    config = harmonic_config(n_trajectories=n_trajectories, store_every=1, t_end=(n_times - 1) * 1e-3)
    return TrajectoryEnsemble(times=np.arange(n_times) * 1e-3, x=xs.transpose(1, 0, 2), p=None, config=config)


class TestReferenceFormulas:
    """The lattice estimators against the per-direction formulas they replace,
    bit for bit."""

    @staticmethod
    def assert_bit_identical(estimates, reference):
        for estimate, arrays in zip(estimates, reference):
            for name, expected in zip(("values", "std_errors", "counts"), arrays):
                got = getattr(estimate, name)
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name

    # the "None" in the case ids below names the pooled lattice, as it did
    # when the estimator could also anchor at a single time; the ids are kept
    @pytest.mark.parametrize("epsilon", [4e-3], ids=["None"])
    def test_simulated_ensemble(self, stationary_ensemble, epsilon):
        edges = np.linspace(-2.0, 2.0, 21)
        estimates = coarse_velocities(stationary_ensemble, epsilon, edges)
        self.assert_bit_identical(estimates, two_pass_velocities(stationary_ensemble, epsilon, edges, 200))

    @pytest.mark.parametrize(
        "edges",
        [np.linspace(-1.0, 1.0, 9), np.array([-1.0, -0.7, -0.1, 0.0, 0.05, 0.6, 1.0])],
        ids=["uniform", "non-uniform"],
    )
    # 22 steps between the 23 stored times: k = 2 divides them, k = 3
    # leaves one over; k = 30 exceeds them, leaves no window and is rejected
    @pytest.mark.parametrize("epsilon", [2e-3, 3e-3, 3e-2], ids=lambda eps: f"{eps}-None-2500")
    def test_edges_and_outliers(self, edges, epsilon):
        ens = edge_case_ensemble(edges)
        if epsilon == 3e-2:
            with pytest.raises(ValidationError, match="longer than the run"):
                coarse_velocities(ens, epsilon, edges, min_count=2500)
            return
        estimates = coarse_velocities(ens, epsilon, edges, min_count=2500)
        reference = two_pass_velocities(ens, epsilon, edges, 2500)
        self.assert_bit_identical(estimates, reference)
        for values, _, _ in reference:
            # some bins fall below min_count, some do not
            assert 0 < np.count_nonzero(np.isnan(values)) < values.size

    @pytest.mark.parametrize(
        "n_trajectories",
        [17, brownian._BLOCK, 2 * brownian._BLOCK + 17, 2**14, 2 * 2**14 + 17],
        ids=lambda n: f"{n}-None",
    )
    def test_blocks(self, n_trajectories):
        # rows of 17 trajectories up to eight blocks of 2^12 and a part, the
        # sizes at which the estimator once switched blocks
        edges = np.linspace(-1.0, 1.0, 9)
        ens = edge_case_ensemble(edges, n_trajectories=n_trajectories)
        estimates = coarse_velocities(ens, 3e-3, edges, min_count=2)
        self.assert_bit_identical(estimates, two_pass_velocities(ens, 3e-3, edges, 2))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_pooled_matches_two_pass(self, data):
        # ensembles of up to three blocks and a part, epsilon of k = 2 to 5
        # stored steps of 1e-3, edges uniform or not, positions on, next to and
        # outside the edges, and some nan
        k = data.draw(st.integers(2, 5))
        n_times = data.draw(st.integers(k + 1, 4 * k + 3))
        n_trajectories = data.draw(st.integers(1, 3 * brownian._BLOCK + 17))
        uniform = st.integers(1, 12).map(lambda n: np.linspace(-1.0, 1.0, n + 1))
        sorted_floats = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=10, unique=True)
        edges = data.draw(uniform | sorted_floats.map(lambda v: np.array(sorted(v))))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ens = edge_case_ensemble(edges, n_trajectories, n_times, seed=seed)
        nan_fraction = data.draw(st.sampled_from([0.0, 0.01, 0.3]))
        ens.x[np.random.default_rng([seed, 1]).random(ens.x.shape) < nan_fraction] = np.nan
        min_count = data.draw(st.integers(1, 500))
        estimates = coarse_velocities(ens, k * 1e-3, edges, min_count=min_count)
        self.assert_bit_identical(estimates, two_pass_velocities(ens, k * 1e-3, edges, min_count))

    @pytest.mark.parametrize("epsilon", [5e-3, 1e-2, 2e-2])
    def test_momentum_resolution(self, free_underdamped, epsilon):
        # 101 stored times: k = 2 and 4 divide the 100 steps, k = 8 does not
        for p_center in (-0.5, 0.0, 1.0):
            got = momentum_resolution_check(free_underdamped, epsilon, p_center)
            assert got == four_gather_momentum_check(free_underdamped, epsilon, p_center)


HALF_MAX = np.finfo(float).max / 2


def lookup_bins(tally, x):
    """The tally's bins of the positions x, as ``add`` finds them."""
    return tally._bins(x, np.empty(x.size), np.empty(x.size, dtype=bool))


def linspace_edges():
    """np.linspace edges as velocity-field builds them: bin_min < bin_max
    within half the largest float, from a few subnormals apart up to the
    whole admitted span. A few subnormals apart, linspace may repeat edges
    or put one below the last."""
    cli_range = st.tuples(st.floats(-HALF_MAX, HALF_MAX), st.floats(-HALF_MAX, HALF_MAX)).filter(lambda r: r[0] < r[1])
    subnormal = st.tuples(st.sampled_from([0.0, -2e-322, 1e-310]), st.integers(1, 40)).map(
        lambda r: (r[0], r[0] + r[1] * 5e-324)
    )
    return st.tuples(cli_range | subnormal, st.integers(1, 60)).map(lambda r: np.linspace(*r[0], r[1] + 1))


def arange_edges():
    """Edges built as np.arange(start, stop, step), as criterion 9's are."""
    return st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 1.0), st.integers(2, 60)).map(
        lambda r: np.arange(r[0], r[0] + (r[2] - 0.5) * r[1], r[1])
    )


def other_edges():
    """Non-uniform edges, some with repeated values, and single bins."""
    values = st.floats(-1e300, 1e300) | st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1.0, 5e-324])
    return st.lists(values, min_size=2, max_size=12).map(lambda v: np.array(sorted(v + v[: len(v) // 3])))


class TestBinLookup:
    """``VelocityTally`` finds np.digitize's bins by arithmetic, and falls back
    to np.digitize itself only on edges where the arithmetic could miss."""

    @pytest.mark.parametrize(
        "edges",
        [[1.0, 0.0, -1.0], [0.0, 1.0, 0.5], [0.0, np.nan, 1.0], [0.0, np.inf], [0.5], [], [[0.0, 1.0], [2.0, 3.0]]],
        ids=["decreasing", "unsorted", "nan", "infinite", "one-edge", "empty", "2-D"],
    )
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValidationError, match="bin edges"):
            brownian.VelocityTally(edges, 1e-2, 10)

    def test_repeated_edges_accepted(self):
        x = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, np.nan])
        tally = brownian.VelocityTally([0.0, 1.0, 1.0, 2.0], 1e-2, x.size)
        np.testing.assert_array_equal(lookup_bins(tally, x), [0, 1, 1, 3, 3, 4, 4])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_bins_are_digitize(self, data):
        edges = data.draw(linspace_edges() | arange_edges() | other_edges())
        if (np.diff(edges) < 0).any():
            with pytest.raises(ValidationError, match="non-decreasing"):
                brownian.VelocityTally(edges, 1e-2, 1)
            return
        inside = st.floats(edges[0], edges[-1])
        anywhere = st.floats(allow_nan=True, allow_infinity=True)
        x = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [np.nan, np.inf, -np.inf, 0.0, -0.0, HALF_MAX * 2, -HALF_MAX * 2, edges[0] - 1.0, edges[-1] + 1.0],
                data.draw(st.lists(inside, max_size=40)),
                data.draw(st.lists(anywhere, max_size=10)),
            ]
        )
        got = lookup_bins(brownian.VelocityTally(edges, 1e-2, x.size), x)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.digitize(x, edges))

    def test_production_edges_never_reach_digitize(self, monkeypatch):
        # velocity-field's linspace over ranges and bin counts like its
        # configs', criterion 9's arange and criterion 10's pair: no position
        # goes to np.digitize (the tally's check of its edges does)
        from bildsim import acceptance

        edge_sets = [edges for _, edges in acceptance._BENCH_BINS]
        for lo, hi in ((-2.0, 2.0), (-2.05, 2.05), (-1.0, 1.0), (0.0, 3.0), (-10.0, 10.0), (0.5, 1.5)):
            edge_sets += [np.linspace(lo, hi, n_bins + 1) for n_bins in range(1, 201)]
        x = np.random.default_rng(29).normal(0.0, 2.0, 1000)
        positions_seen = []
        digitize = np.digitize

        def spy(values, edges, **kw):
            positions_seen.append(np.shares_memory(values, x))
            return digitize(values, edges, **kw)

        monkeypatch.setattr(np, "digitize", spy)
        for edges in edge_sets:
            tally = brownian.VelocityTally(edges, 1e-2, x.size)
            tally.add(x)
            tally.add(x[::-1])
        assert not any(positions_seen)
        # edges far from uniform do send the positions there
        brownian.VelocityTally([0.0, 0.001, 1.0], 1e-2, x.size).add(x)
        assert positions_seen[-1]


class TestStoreEvery:
    """An ensemble stored every s steps gives the estimators the bits of the
    same run stored every step, for epsilon a multiple of s dt: the draws do
    not depend on ``store_every``, and both read the same lattice times."""

    @pytest.mark.parametrize("store_every", [2, 4])
    def test_coarse_velocities(self, store_every):
        full, thinned = (
            integrate_overdamped(harmonic_config(n_trajectories=3000, t_end=0.04, store_every=s, seed=12))
            for s in (1, store_every)
        )
        edges = np.linspace(-2.0, 2.0, 9)
        for epsilon in (4e-3, 8e-3):
            a = coarse_velocities(full, epsilon, edges, min_count=2)
            b = coarse_velocities(thinned, epsilon, edges, min_count=2)
            for va, vb in zip(a, b):
                for field in ("values", "std_errors", "counts"):
                    assert getattr(va, field).tobytes() == getattr(vb, field).tobytes(), (epsilon, field)

    @pytest.mark.parametrize("store_every", [2, 4])
    def test_momentum_resolution_check(self, store_every):
        full, thinned = (
            integrate_underdamped(
                harmonic_config(
                    potential=Potential.free(),
                    x_init=0.0,
                    p_init="stationary",
                    dt=2.5e-3,
                    t_end=0.1,
                    n_trajectories=4000,
                    store_every=s,
                    seed=13,
                )
            )
            for s in (1, store_every)
        )
        for epsilon in (1e-2, 2e-2):
            for p_center in (0.0, 0.5):
                a, b = (momentum_resolution_check(ens, epsilon, p_center) for ens in (full, thinned))
                assert a == b, (epsilon, p_center)


class TestOsmoticVelocity:
    def test_smooth_flow_vanishing(self):
        config = harmonic_config(
            temperatures=(0.0,),
            x_init=1.0,
            dt=1e-3,
            t_end=0.02,
            n_trajectories=100,
            store_every=1,
        )
        ens = integrate_overdamped(config)
        eps = 4e-3
        edges = np.linspace(0.9, 1.05, 4)
        vp, vm = coarse_velocities(ens, eps, edges, min_count=10)
        u = osmotic_velocity(vp, vm)
        assert np.nanmax(np.abs(u.values)) <= eps

    def test_stationary_harmonic_matches_log_density_gradient(
        self, stationary_ensemble
    ):
        eps = 4e-3
        edges = np.arange(-1.55, 1.5501, 0.1)
        vp, vm = coarse_velocities(stationary_ensemble, eps, edges)
        u = osmotic_velocity(vp, vm)
        pooled = stationary_ensemble.x[:, ::8, 0].ravel()
        oracle = -1.0 * log_density_gradient(pooled, u.bin_centers)
        ok = ~np.isnan(u.values)
        np.testing.assert_array_less(
            np.abs(u.values[ok] - oracle[ok]), 3.0 * u.std_errors[ok] + 0.05
        )

    def test_bin_mismatch_rejected(self, stationary_ensemble):
        vp, _ = coarse_velocities(stationary_ensemble, 4e-3, np.linspace(-1, 1, 5))
        _, vm = coarse_velocities(stationary_ensemble, 4e-3, np.linspace(-2, 2, 5))
        with pytest.raises(ValidationError, match="bins"):
            osmotic_velocity(vp, vm)


def direct_log_density_gradient(samples, points, bandwidth=None):
    """Reference: the O(N P) sum over every sample for every point."""
    s = np.asarray(samples, dtype=float).ravel()
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    h = silverman_bandwidth(s) if bandwidth is None else bandwidth
    grads = np.empty(pts.size)
    for i, x in enumerate(pts):
        z = (s - x) / h
        w = np.exp(-0.5 * z * z)
        grads[i] = np.sum(w * (s - x)) / (h * h * np.sum(w))
    return grads


class TestLogDensityGradient:
    """The binned estimate against the direct sum. Linear binning on a grid
    of h/256 moves each kernel weight by at most (1/256)^2 |z^2 - 1| / 8,
    about 2e-6 |z^2 - 1|, hence rtol 1e-5 near the samples, and an atol of
    1e-5 / h where the gradient passes through zero."""

    def assert_matches_direct(self, samples, points, bandwidth=None):
        got = log_density_gradient(samples, points, bandwidth)
        want = direct_log_density_gradient(samples, points, bandwidth)
        h = silverman_bandwidth(samples) if bandwidth is None else bandwidth
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 / h)
        return got

    def test_gaussian_matches_direct_sum(self):
        s = np.random.default_rng(5).standard_normal(200_000)
        self.assert_matches_direct(s, np.linspace(-3.0, 3.0, 41))

    def test_gaussian_closed_form(self):
        # samples at the normal quantiles: the estimate is the N(0, sigma^2 + h^2)
        # log-density gradient, -x / (sigma^2 + h^2), up to binning error
        sigma, h, n = 0.5, 0.1, 20_001
        s = sigma * stats.norm.ppf((np.arange(n) + 0.5) / n)
        x = np.linspace(-2 * sigma, 2 * sigma, 9)
        got = log_density_gradient(s, x, bandwidth=h)
        np.testing.assert_allclose(got, -x / (sigma**2 + h**2), atol=1e-5)

    def test_bimodal_modes_50h_apart(self):
        h = 0.02
        rng = np.random.default_rng(6)
        s = np.concatenate([rng.normal(-25 * h, 3 * h, 60_000), rng.normal(25 * h, 3 * h, 30_000)])
        self.assert_matches_direct(s, np.linspace(-35 * h, 35 * h, 57), bandwidth=h)

    def test_point_10h_outside_the_samples(self):
        s = np.random.default_rng(7).standard_normal(50_000)
        h = silverman_bandwidth(s)
        got = self.assert_matches_direct(s, [s.min() - 10 * h, s.max() + 10 * h])
        assert got[0] > 0 > got[1]

    def test_point_beyond_40h_is_nan_without_warnings(self):
        s = np.random.default_rng(8).standard_normal(10_000)
        h = silverman_bandwidth(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_density_gradient(s, [s.max() + 41 * h, 0.0, s.min() - 1e3])
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert np.isfinite(got[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            assert np.isnan(direct_log_density_gradient(s, [s.max() + 41 * h])[0])

    def test_identical_samples_give_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_density_gradient(np.full(100, 0.3), [0.3, 1.0])
        assert got.shape == (2,) and np.all(np.isnan(got))

    def test_explicit_bandwidth(self):
        s = np.random.default_rng(9).exponential(1.0, 100_000)
        got = self.assert_matches_direct(s, np.linspace(0.1, 5.0, 30), bandwidth=0.3)
        # one sample value: the gradient is (s - x) / h^2 exactly
        np.testing.assert_allclose(log_density_gradient(np.full(10, 2.0), [1.0], 0.5), [4.0])
        assert not np.allclose(got, log_density_gradient(s, np.linspace(0.1, 5.0, 30), 0.1))

    def test_nan_sample_gives_nan(self):
        s = np.random.default_rng(19).standard_normal(1000)
        s[500] = np.nan
        for bandwidth in (0.1, None):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = log_density_gradient(s, [0.0, 1.0], bandwidth)
            assert got.shape == (2,) and np.all(np.isnan(got)), bandwidth

    def test_scalar_point(self):
        s = np.random.default_rng(10).standard_normal(10_000)
        got = log_density_gradient(s, 0.5)
        assert got.shape == (1,)
        np.testing.assert_allclose(got, direct_log_density_gradient(s, 0.5), rtol=1e-5)

    def test_memory_stays_below_16_mib(self):
        # 4e6 samples, 30.5 MiB: the default bandwidth reads them for
        # Silverman's statistics too; C-contiguous, time-major and strided
        # samples are all read in place
        memory = np.random.default_rng(11).standard_normal((100, 40_000))
        for s in (memory.reshape(-1), memory.T, one_of_three_particles(memory.T)):
            for bandwidth in (0.05, None):
                tracemalloc.start()
                try:
                    log_density_gradient(s, np.linspace(-2.0, 2.0, 41), bandwidth=bandwidth)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 16 * 2**20, (peak, s.strides, bandwidth)

    @pytest.mark.parametrize("rows", [511, 512, 513, 1536, 1537])
    def test_time_major_view_gives_the_bytes_of_its_ravel(self, rows):
        # 128 times per trajectory: the sample count falls below, on and
        # above multiples of the 2^16-sample blocks. The samples are read in
        # memory order; the C-order ravel differs only in the order in
        # which block sums and grid weights are added. That rounding is
        # relative to the terms of the gradient's sum, not to the sum, so
        # where the gradient nears zero (x = 0) it is bounded by max |g|
        view = time_major(np.random.default_rng(rows).standard_normal((rows, 128)))
        points = np.linspace(-2.0, 2.0, 17)
        for bandwidth in (None, 0.1):
            got = log_density_gradient(view, points, bandwidth)
            assert got.tobytes() == log_density_gradient(view.ravel(order="K"), points, bandwidth).tobytes()
            c_order = log_density_gradient(view.ravel(), points, bandwidth)
            np.testing.assert_allclose(got, c_order, rtol=1e-13, atol=1e-13 * np.max(np.abs(got)))

    def test_bytes_do_not_depend_on_blas_threads(self):
        # child interpreters, since BLAS reads its thread count at start-up;
        # each point sums over the 20480 grid nodes within 40h of it, long
        # enough for a threaded BLAS dot to split the sum
        script = (
            "import sys, numpy as np\n"
            "from bildsim.brownian import log_density_gradient\n"
            "s = np.random.default_rng(31).standard_normal(10**5)\n"
            "sys.stdout.write(log_density_gradient(s, np.linspace(-2.0, 2.0, 17)).tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(brownian.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def time_major(a):
    """``a`` as a (trajectory, time) view of time-major memory."""
    view = np.ascontiguousarray(a.T).T
    assert not view.flags.c_contiguous or a.shape[0] == 1 or a.shape[1] == 1
    return view


def one_of_three_particles(a):
    """``a`` as the (trajectory, time) view of particle 0 in a time-major
    ensemble of three particles: strided, neither C- nor F-contiguous."""
    memory = np.zeros(a.shape[::-1] + (3,))
    memory[:, :, 0] = a.T
    view = memory.transpose(1, 0, 2)[:, :, 0]
    assert a.size == 1 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


def assert_same_bits(got, want):
    got, want = np.float64(got), np.float64(want)
    assert got.tobytes() == want.tobytes() or (np.isnan(got) and np.isnan(want)), (got, want)


def assert_matches_numpy(samples):
    """silverman_bandwidth against Silverman's rule from np.std and
    np.percentile of the samples raveled in memory order: bit for bit where
    the result does not depend on the order of summation (one block of
    2^16 samples, or the IQR sets the rule), else to rtol 1e-14, the
    rounding of adding the block sums in turn."""
    s = np.ravel(samples, order="K")
    std = np.std(s)
    q75, q25 = np.percentile(s, [75, 25])
    want = 0.9 * min(std, (q75 - q25) / 1.34) * s.size ** (-0.2)
    got = silverman_bandwidth(samples)
    if s.size <= 2**16 or not std < (q75 - q25) / 1.34:
        assert_same_bits(got, want)
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestSilvermanBandwidth:
    """The bandwidth reads the samples in place, as a set, in blocks of 2^16
    in memory order. Its quartiles are np.percentile's bit for bit; its std
    is np.std's, bit for bit up to one block and up to the rounding of the
    block sums' order above."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 2**16, 2**16 + 1, 3 * 2**16 + 17])
    @pytest.mark.parametrize("layout", ["contiguous", "time_major", "strided"])
    def test_matches_np_std_and_np_percentile(self, n, layout):
        s = 3.0 * np.random.default_rng(n).standard_normal(n) + 1.0
        # std below IQR / 1.34 for these normal samples, so std sets the rule
        # at the larger n; the exponential samples below let the IQR set it
        for samples in (s, np.random.default_rng(n).exponential(2.0, n)):
            if layout != "contiguous":
                view = time_major if layout == "time_major" else one_of_three_particles
                samples = view(samples.reshape(-1, 1) if n % 7 else samples.reshape(-1, 7))
            assert_matches_numpy(samples)

    def test_trajectory_rows_cross_block_edges(self):
        # 121 times per trajectory: rows straddle the 2^16-sample blocks,
        # which the view fills as its memory-order ravel does
        view = time_major(np.random.default_rng(12).standard_normal((3 * 2**16 // 121 + 5, 121)))
        assert_matches_numpy(view)
        assert_same_bits(silverman_bandwidth(view), silverman_bandwidth(view.ravel(order="K")))

    @pytest.mark.parametrize(
        "samples",
        [
            np.where(np.random.default_rng(13).random(200_001) < 0.3, -0.25, 1.5),
            # every sample but the two extremes in one histogram bin
            np.concatenate([[-1e6], np.random.default_rng(14).random(150_000), [1e6]]),
            np.round(np.random.default_rng(15).standard_normal(100_000), 1),
        ],
        ids=["two_values", "one_bin", "rounded"],
    )
    def test_heavy_ties(self, samples):
        assert_matches_numpy(samples)

    def test_constant_samples(self):
        for n in (1, 100, 2**16 + 1):
            assert_matches_numpy(np.full(n, 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_give_the_reference_result(self, bad):
        s = np.random.default_rng(16).standard_normal(70_000)
        s[1234] = bad
        with np.errstate(invalid="ignore"):
            assert_matches_numpy(s)
            assert_matches_numpy(time_major(s.reshape(-1, 10)))

    def test_float_return(self):
        assert isinstance(silverman_bandwidth(np.arange(10.0)), float)

    def test_no_samples_rejected(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            silverman_bandwidth(np.empty(0))


class TestOrderStatistics:
    """brownian._percentiles against np.percentile, bit for bit."""

    @pytest.mark.parametrize("q", [0.5, 25, 75, 99.5])
    @pytest.mark.parametrize("n", [1, 2, 9, 2**16 + 1, 200_003])
    def test_matches_np_percentile(self, q, n):
        rng = np.random.default_rng(n)
        for s in (rng.standard_normal(n), rng.standard_cauchy(n), np.round(rng.standard_normal(n), 2)):
            want = np.percentile(s, [q])
            for samples in (s, time_major(s.reshape(-1, 1)), one_of_three_particles(s.reshape(-1, 1))):
                got = brownian._percentiles(samples, [q], samples.min(), samples.max())
                assert got.tobytes() == want.tobytes(), (q, n, got, want)

    def test_residual_percentiles_of_a_time_major_ensemble(self):
        x = time_major(np.random.default_rng(17).standard_normal((5_000, 33)))
        got = brownian._percentiles(x, [0.5, 99.5], x.min(), x.max())
        assert got.tobytes() == np.percentile(x, [0.5, 99.5]).tobytes()

    def test_non_finite_samples_fall_back_to_numpy(self):
        s = np.random.default_rng(18).standard_normal(1000)
        s[[3, 500]] = [np.inf, -np.inf]
        got = brownian._percentiles(s, [0.5, 25, 99.5], s.min(), s.max())
        np.testing.assert_array_equal(got, np.percentile(s, [0.5, 25, 99.5]))
        s[7] = np.nan
        assert np.isnan(brownian._percentiles(s, [25, 75], s.min(), s.max())).all()

    def test_ranges_too_narrow_to_bin_fall_back_to_numpy(self):
        # finite lo < hi whose bin scale, _RANK_BINS / (hi/2 - lo/2), overflows
        rng = np.random.default_rng(19)
        for lo, hi in ((0.0, 5e-324), (1e-310, 3e-310), (1e-300 - 1e-315, 1e-300 + 1e-315)):
            s = rng.uniform(lo, hi, size=1001)
            s[:2] = lo, hi
            got = brownian._percentiles(s, [0.5, 25, 75, 99.5], s.min(), s.max())
            assert got.tobytes() == np.percentile(s, [0.5, 25, 75, 99.5]).tobytes(), (lo, hi)


class TestTupleSamples:
    """A tuple of arrays is one sample set, read in place part after part:
    here the positions (i, j) with i + j even of a time-major lattice, as
    two strided views of different shapes."""

    @staticmethod
    def checkerboard(rows, seed):
        lattice = time_major(np.random.default_rng(seed).standard_normal((rows, 31)))
        parts = (lattice[0::2, 0::2], lattice[1::2, 1::2])
        return parts, np.concatenate([p.ravel() for p in parts])

    @pytest.mark.parametrize("rows", [5, 2**12 + 3, 20_000])
    def test_same_as_the_joined_samples(self, rows):
        parts, joined = self.checkerboard(rows, rows)
        q = [0.5, 25, 75, 99.5]
        got = brownian._percentiles(parts, q, joined.min(), joined.max())
        assert got.tobytes() == np.percentile(joined, q).tobytes()
        assert silverman_bandwidth(parts) == pytest.approx(silverman_bandwidth(joined), rel=1e-14, abs=0.0)
        points = np.linspace(-2.0, 2.0, 17)
        for bandwidth in (None, 0.1):
            want = log_density_gradient(joined, points, bandwidth)
            got = log_density_gradient(parts, points, bandwidth)
            # relative to the terms of the gradient's sum, as for a time-major view
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_one_part_is_the_array(self):
        s = time_major(np.random.default_rng(20).standard_normal((3000, 31)))
        points = np.linspace(-2.0, 2.0, 17)
        for bandwidth in (None, 0.1):
            got = log_density_gradient((s,), points, bandwidth)
            assert got.tobytes() == log_density_gradient(s, points, bandwidth).tobytes()

    def test_empty_and_non_finite_parts(self):
        parts, joined = self.checkerboard(101, 21)
        points = np.linspace(-2.0, 2.0, 5)
        with_empty = (np.empty((0, 3)),) + parts + (np.empty(0),)
        for bandwidth in (None, 0.1):
            got = log_density_gradient(with_empty, points, bandwidth)
            assert got.tobytes() == log_density_gradient(parts, points, bandwidth).tobytes()
        with pytest.raises(ValidationError, match="at least one sample"):
            log_density_gradient((np.empty(0), np.empty((2, 0))), points)
        bad = (parts[0], np.where(parts[1] > 1.0, np.nan, parts[1]))
        with np.errstate(invalid="ignore"):
            for bandwidth in (None, 0.1):
                assert np.isnan(log_density_gradient(bad, points, bandwidth)).all()
            assert np.isnan(brownian._percentiles(bad, [25, 75], np.nan, np.nan)).all()

    def test_two_views_are_read_in_place(self):
        # 2.03M of the 4.06M positions of a time-major array; a join of the
        # two views would take 15.5 MiB. What remains is one block's
        # buffers and temporaries, about 3 MiB at 2^16 samples.
        parts, _ = self.checkerboard(2**17, 22)
        for bandwidth in (None, 0.05):
            tracemalloc.start()
            try:
                log_density_gradient(parts, np.linspace(-2.0, 2.0, 41), bandwidth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20, (peak, bandwidth)


class TestNonsmoothness:
    def test_gap_persists_for_diffusive_paths(self, stationary_ensemble):
        rows = nonsmoothness_witness(
            stationary_ensemble, [4e-3, 8e-3], bin_center=1.0
        )
        for row in rows:
            assert row["gap"] == pytest.approx(2.0, abs=5 * row["gap_err"] + 0.05)

    def test_deterministic_gap_vanishes(self):
        config = harmonic_config(
            temperatures=(0.0,),
            x_init=1.0,
            dt=1e-3,
            t_end=0.02,
            n_trajectories=100,
            store_every=1,
        )
        ens = integrate_overdamped(config)
        # every windowed sample lies in [0.980, 1.0], inside the bin 0.99 +- 0.05
        rows = nonsmoothness_witness(ens, [4e-3], bin_center=0.99)
        assert rows[0]["gap"] <= 2.0 * 4e-3


@pytest.fixture(scope="module")
def free_underdamped():
    config = harmonic_config(
        potential=Potential.free(),
        x_init=0.0,
        p_init="stationary",
        dt=2.5e-3,
        t_end=0.25,
        n_trajectories=20_000,
        store_every=1,
        seed=7,
    )
    return integrate_underdamped(config)


class TestMomentumResolution:
    def test_matches_momentum(self, free_underdamped):
        res = momentum_resolution_check(free_underdamped, 1e-2, p_center=1.0)
        assert res.v_plus == pytest.approx(1.0, abs=0.05 + 3 * res.v_plus_err)
        assert res.v_minus == pytest.approx(1.0, abs=0.05 + 3 * res.v_minus_err)

    def test_zero_momentum_bin(self, free_underdamped):
        res = momentum_resolution_check(free_underdamped, 1e-2, p_center=0.0)
        assert abs(res.v_plus) < 0.01
        assert abs(res.v_minus) < 0.01

    def test_deviation_grows_with_epsilon(self, free_underdamped):
        fine = momentum_resolution_check(free_underdamped, 1e-2, p_center=1.0)
        coarse = momentum_resolution_check(free_underdamped, 2e-2, p_center=1.0)
        assert abs(coarse.v_plus - 1.0) > abs(fine.v_plus - 1.0)

    def test_regime_guard(self, free_underdamped):
        with pytest.raises(RegimeError, match="tau_p"):
            momentum_resolution_check(free_underdamped, 0.1, p_center=1.0)

    def test_requires_momenta(self, stationary_ensemble):
        with pytest.raises(ValidationError, match="underdamped"):
            momentum_resolution_check(stationary_ensemble, 4e-3, p_center=0.0)


class TestRegimeConsistency:
    def test_high_friction_matches_overdamped_statistics(self):
        under = harmonic_config(
            friction=30.0,
            dt=1.5e-3,
            t_end=0.15,
            n_trajectories=20_000,
            p_init="stationary",
            store_every=20,
        )
        over = harmonic_config(
            friction=30.0, dt=1e-3, t_end=0.15, n_trajectories=20_000, store_every=30
        )
        vu = integrate_underdamped(under).x[:, -1, 0].var(ddof=1)
        vo = integrate_overdamped(over).x[:, -1, 0].var(ddof=1)
        sigma = np.sqrt(2.0 / 20_000)
        assert abs(vu - 1.0) < 3.0 * sigma
        assert abs(vo - 1.0) < 3.0 * sigma


class TestDrawOrder:
    """The integrators replay one Philox stream in a fixed order: initial
    positions, initial momenta (underdamped), then one standard-normal array
    of shape x.shape per step."""

    def test_overdamped(self):
        config = harmonic_config(
            n_particles=2,
            friction=2.0,
            temperatures=(1.0, 0.5),
            potential=Potential.harmonic([1.0, 2.0]),
            dt=2e-4,
            t_end=2e-3,
            n_trajectories=4,
            store_every=3,
            seed=123,
        )
        ens = integrate_overdamped(config)
        ks, temps, gamma, dt = np.array([1.0, 2.0]), np.array([1.0, 0.5]), 2.0, 2e-4
        rng = np.random.Generator(np.random.Philox(np.uint64(123)))
        x = rng.standard_normal((4, 2)) * np.sqrt(temps / ks)
        noise = np.sqrt(2.0 * (temps / gamma) * dt)
        path = [x]
        for _ in range(10):
            xi = rng.standard_normal(x.shape)
            x = x + (-ks * x) / gamma * dt + noise * xi
            path.append(x)
        np.testing.assert_array_equal(ens.x, np.stack(path, axis=1)[:, ::3])
        np.testing.assert_array_equal(ens.times, np.arange(0, 11, 3) * dt)
        assert ens.p is None

    def test_underdamped(self):
        config = harmonic_config(
            mass=2.0,
            friction=1.5,
            dt=1e-3,
            t_end=1e-2,
            n_trajectories=3,
            p_init="stationary",
            store_every=1,
            seed=321,
        )
        ens = integrate_underdamped(config)
        k, temp, m, gamma, dt = 1.0, 1.0, 2.0, 1.5, 1e-3
        rng = np.random.Generator(np.random.Philox(np.uint64(321)))
        x = rng.standard_normal((3, 1)) * np.sqrt(np.array([temp]) / k)
        p = rng.standard_normal((3, 1)) * np.sqrt(m * np.array([temp]))
        noise = np.sqrt(2.0 * gamma * np.array([temp]) * dt)
        xs, ps = [x], [p]
        for _ in range(10):
            xi = rng.standard_normal(x.shape)
            dp = (-k * x - gamma * p / m) * dt + noise * xi
            x = x + (p / m) * dt
            p = p + dp
            xs.append(x)
            ps.append(p)
        np.testing.assert_array_equal(ens.x, np.stack(xs, axis=1))
        np.testing.assert_array_equal(ens.p, np.stack(ps, axis=1))
        np.testing.assert_array_equal(ens.times, np.arange(11) * dt)


class TestStoredStates:
    """The integrators collect the stream of ``stored_states``; its states
    are buffers that each step overwrites."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_integrators_collect_the_stream(self, data):
        n_particles = data.draw(st.integers(1, 3))
        potential = data.draw(
            st.sampled_from(
                [
                    Potential.free(),
                    Potential.harmonic(2.0),
                    Potential.harmonic(np.linspace(0.5, 2.0, n_particles)),
                    Potential.polynomial([0.3, 0.0, 0.5, 0.0, 0.1]),
                ]
            )
        )
        underdamped = data.draw(st.booleans())
        config = harmonic_config(
            n_particles=n_particles,
            temperatures=tuple(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_particles, max_size=n_particles))),
            potential=potential,
            dt=1e-4,
            t_end=data.draw(st.integers(1, 12)) * 1e-4,
            n_trajectories=data.draw(st.integers(1, 20)),
            seed=data.draw(st.integers(0, 2**64 - 1)),
            store_every=data.draw(st.sampled_from([1, 3])),
            x_init="stationary" if potential.kind == "harmonic" else 0.4,
            p_init=data.draw(st.sampled_from(["stationary", -0.2])),
        )
        states = [
            (t, x.copy(), None if p is None else p.copy())
            for t, x, p in brownian.stored_states(config, underdamped)
        ]
        ens = (integrate_underdamped if underdamped else integrate_overdamped)(config)
        assert ens.times.tobytes() == np.array([t for t, _, _ in states]).tobytes()
        assert np.ascontiguousarray(ens.x).tobytes() == np.stack([x for _, x, _ in states], axis=1).tobytes()
        if underdamped:
            assert np.ascontiguousarray(ens.p).tobytes() == np.stack([p for _, _, p in states], axis=1).tobytes()
        else:
            assert ens.p is None

    def test_tally_fed_from_the_stream(self):
        # rows of the stream's own buffer give the bits of the stored ensemble
        config = harmonic_config(n_trajectories=5000, t_end=0.03, store_every=1, seed=21)
        edges = np.linspace(-2.0, 2.0, 9)
        tally = brownian.VelocityTally(edges, 3e-3, config.n_trajectories)
        for j, (_, x, _) in enumerate(brownian.stored_states(config, underdamped=False)):
            if j % 3 == 0:
                tally.add(x[:, 0])
        expected = coarse_velocities(integrate_overdamped(config), 3e-3, edges)
        for got, want in zip(tally.estimates(), expected):
            for field in ("values", "std_errors", "counts"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
