import tracemalloc

import numpy as np
import pytest

from bildsim import brownian, chsh, fields, linalg
from bildsim.errors import (
    DegenerateMeasureError,
    DimensionMismatchError,
    ValidationError,
)


# samples per block of the sampler and of a Monte Carlo estimate
BLOCK = fields._BLOCK


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def random_psd(rng, d, unit_trace=False):
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = c @ c.conj().T
    return b / np.trace(b).real if unit_trace else b


class TestSampleFields:
    def test_zero_covariance_gives_zero_samples(self):
        samples = fields.sample_fields(fields.FieldMeasure(np.zeros((2, 2))), 50, 1)
        np.testing.assert_array_equal(samples, np.zeros((50, 2)))

    def test_identity_empirical_covariance(self):
        n = 10**5
        measure = fields.FieldMeasure(np.eye(2))
        emp = fields.empirical_covariance(fields.sample_fields(measure, n, 2))
        assert np.max(np.abs(emp - np.eye(2))) < 5.0 / np.sqrt(n)

    def test_rank_deficient_covariance(self):
        n = 10**4
        samples = fields.sample_fields(
            fields.FieldMeasure(np.diag([2.0, 0.0])), n, 3
        )
        np.testing.assert_array_equal(samples[:, 1], np.zeros(n))
        assert np.mean(np.abs(samples[:, 0]) ** 2) == pytest.approx(2.0, abs=0.1)

    def test_zero_mean(self):
        n = 10**5
        measure = fields.FieldMeasure(np.eye(3))
        samples = fields.sample_fields(measure, n, 4)
        assert np.linalg.norm(samples.mean(axis=0)) <= 5.0 * np.sqrt(3.0 / n)

    def test_bit_reproducible(self):
        measure = fields.FieldMeasure(random_psd(np.random.default_rng(0), 3))
        a = fields.sample_fields(measure, 1000, 99)
        b = fields.sample_fields(measure, 1000, 99)
        np.testing.assert_array_equal(a, b)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidationError):
            fields.FieldMeasure(np.diag([1.0, -0.5]))

    def test_no_samples_rejected(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            fields.sample_fields(fields.FieldMeasure(np.eye(2)), 0, 1)

    @pytest.mark.parametrize("n", [17, 4 * BLOCK, 4 * BLOCK + 17, 8 * BLOCK + 17])
    def test_chunks_on_one_generator_join_to_one_call(self, n):
        # the calls of a Monte Carlo estimate, one block each
        measure = fields.FieldMeasure(random_psd(np.random.default_rng(1), 3))
        rng = np.random.Generator(np.random.Philox(np.uint64(19)))
        chunks = [fields.sample_fields(measure, min(BLOCK, n - start), rng) for start in range(0, n, BLOCK)]
        assert np.concatenate(chunks).tobytes() == fields.sample_fields(measure, n, 19).tobytes()

    @pytest.mark.parametrize(
        "seed", [1.0, "7", None, True, -1, 2**64, np.random.default_rng(0).bit_generator, 1.5]
    )
    def test_seed_neither_int_nor_generator_rejected(self, seed):
        # the field sampler, both hidden-variable strategies and the
        # integrators key their generators through one check
        measure = fields.FieldMeasure(np.eye(2))
        config = brownian.LangevinConfig(
            n_particles=1, mass=1.0, friction=1.0, temperatures=(1.0,), potential=brownian.Potential.free(),
            dt=1e-3, t_end=1e-2, n_trajectories=2, seed=seed, x_init=0.0,
        )
        samplers = [
            lambda: fields.sample_fields(measure, 10, seed),
            lambda: chsh.hv_sample(chsh.HvStrategy(), 10, seed),
            lambda: chsh.hv_sample(chsh.HvStrategy(kind="constant"), 10, seed),
            lambda: brownian.integrate_overdamped(config),
            lambda: brownian.integrate_underdamped(config),
        ]
        for sample in samplers:
            with pytest.raises(ValidationError, match="seed"):
                sample()


# (dimension, rank of the covariance): full rank, and two rank-deficient cases
REFERENCE_CASES = [(1, 1), (2, 2), (3, 3), (5, 5), (3, 2), (5, 3)]


def reference_measure(d, rank, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return rng, fields.FieldMeasure(c @ c.conj().T)


def reference_values(samples, variable):
    """<phi|A|phi> by the complex three-operand contraction."""
    return np.einsum("ni,ij,nj->n", samples.conj(), variable.kernel, samples).real


# two full blocks and a partial one
BLOCKS_N = 2 * BLOCK + 17


class TestReferenceFormulas:
    """The sampler and the evaluator against the complex formulas they replace."""

    @pytest.mark.parametrize("d,rank", REFERENCE_CASES)
    def test_sample_fields_matches_complex_product(self, d, rank):
        _, measure = reference_measure(d, rank, 20 + d)
        n, seed = BLOCKS_N, 21
        w, v = np.linalg.eigh(measure.covariance)
        factor = v * np.sqrt(np.clip(w, 0.0, None))
        z = np.random.Generator(np.random.Philox(np.uint64(seed))).standard_normal((n, 2 * d))
        expected = ((z[:, :d] + 1j * z[:, d:]) * np.sqrt(0.5)) @ factor.T
        samples = fields.sample_fields(measure, n, seed)
        assert samples.shape == (n, d) and samples.dtype == np.complex128
        assert np.max(np.abs(samples - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("d,rank", REFERENCE_CASES)
    def test_monte_carlo_matches_complex_contraction(self, d, rank):
        rng, measure = reference_measure(d, rank, 30 + d)
        v = fields.QuadraticVariable(random_hermitian(rng, d))
        w = fields.QuadraticVariable(random_hermitian(rng, d))
        n, seed = BLOCKS_N, 31
        samples = fields.sample_fields(measure, n, seed)
        f, g = reference_values(samples, v), reference_values(samples, w)
        estimates = [
            (fields.mc_average(v, measure, n, seed), f),
            (fields.mc_pair_correlation(v, w, measure, n, seed), f * g),
        ]
        for est, vals in estimates:
            assert abs(est.mean - vals.mean()) <= 1e-13 * np.mean(np.abs(vals))
            assert est.std_error == pytest.approx(vals.std(ddof=1) / np.sqrt(n), rel=1e-13)

    @pytest.mark.parametrize("n", [BLOCKS_N, 8 * BLOCK + 17, 2, 1000, BLOCK])
    def test_monte_carlo_equals_values_of_one_call(self, n):
        # one block is numpy's mean and std(ddof=1) of its values bit for bit;
        # across blocks, the merged statistics differ from them by rounding
        rng, measure = reference_measure(3, 3, 50)
        v = fields.QuadraticVariable(random_hermitian(rng, 3))
        w = fields.QuadraticVariable(random_hermitian(rng, 3))
        samples = fields.sample_fields(measure, n, 51)
        for est, variables in (
            (fields.mc_average(v, measure, n, 51), [v]),
            (fields.mc_pair_correlation(v, w, measure, n, 51), [v, w]),
        ):
            forms = [fields._eigen_form(u) for u in variables]
            vals = fields._form_values(forms, samples, np.empty((len(forms), n)), np.empty((n, 6)))
            if n <= BLOCK:
                assert est.mean == vals.mean()
                assert est.std_error == vals.std(ddof=1) / np.sqrt(n)
            else:
                assert est.mean == pytest.approx(vals.mean(), rel=1e-14, abs=0)
                assert est.std_error == pytest.approx(vals.std(ddof=1) / np.sqrt(n), rel=1e-14, abs=0)

    def test_monte_carlo_draws_add_up_to_n_samples(self, monkeypatch):
        # the calls of one estimate count n samples and 16 d n bytes in all
        d, n = 3, 2 * BLOCK + 17
        rng, measure = reference_measure(d, d, 60)
        v = fields.QuadraticVariable(random_hermitian(rng, d))
        calls = []
        sample_fields = fields.sample_fields

        def spy(measure, n, seed, out=None):
            phi = sample_fields(measure, n, seed, out)
            calls.append((n, phi.nbytes))
            return phi

        monkeypatch.setattr(fields, "sample_fields", spy)
        fields.mc_average(v, measure, n, 61)
        assert len(calls) == 3
        assert sum(c[0] for c in calls) == n and sum(c[1] for c in calls) == 16 * d * n

    def test_monte_carlo_seed_must_be_an_integer(self):
        measure = fields.FieldMeasure(np.eye(2))
        with pytest.raises(ValidationError, match="seed"):
            fields.mc_average(fields.QuadraticVariable(np.eye(2)), measure, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_monte_carlo_peak_within_memory_estimate(self, d, monkeypatch):
        rng, measure = reference_measure(d, d, 40 + d)
        v = fields.QuadraticVariable(random_hermitian(rng, d))
        w = fields.QuadraticVariable(random_hermitian(rng, d))
        estimates = {}

        def record(nbytes, what):
            estimates.setdefault(what, nbytes)

        monkeypatch.setattr(fields, "check_memory", record)
        peaks = []
        for n in (BLOCK + 17, 16 * BLOCK + 17):
            tracemalloc.start()
            try:
                fields.mc_pair_correlation(v, w, measure, n, 41)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block of phi and its normals is held, and nothing of n samples:
        # fifteen more blocks of samples leave the peak within 4 KiB
        assert 32 * d * BLOCK < peaks[0] <= estimates["the Monte Carlo estimate"]
        assert abs(peaks[1] - peaks[0]) <= 4096


def point_measure(phi):
    # covariance phi phi*: the fields c phi, c circular Gaussian with E|c|^2 = 1,
    # so a quadratic variable averages to its value <phi|A|phi> at phi
    phi = np.asarray(phi, dtype=complex)
    return fields.FieldMeasure(np.outer(phi, phi.conj()))


class TestQuadraticEval:
    def test_identity_kernel_gives_energy(self):
        v = fields.QuadraticVariable(np.eye(2))
        assert fields.exact_average(v, point_measure([1.0, 1.0j])) == pytest.approx(2.0)

    def test_diagonal_kernel(self):
        v = fields.QuadraticVariable(np.diag([1.0, -1.0]))
        assert fields.exact_average(v, point_measure([1.0, 0.0])) == pytest.approx(1.0)

    def test_sigma_x_on_plus_state(self):
        v = fields.QuadraticVariable(linalg.SIGMA_X)
        phi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert fields.exact_average(v, point_measure(phi)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fields.exact_average(
                fields.QuadraticVariable(np.eye(2)), point_measure(np.zeros(3))
            )


class TestFieldEnergy:
    def test_zero(self):
        assert point_measure(np.zeros(4)).energy == 0.0

    def test_real_vector(self):
        assert point_measure([3.0, 4.0]).energy == pytest.approx(25.0)

    def test_complex_vector(self):
        assert point_measure([1 + 1j, 1 - 1j]).energy == pytest.approx(4.0)


class TestAverages:
    def test_average_energy_identity(self):
        assert fields.FieldMeasure(np.eye(5)).energy == pytest.approx(5.0)

    def test_average_energy_diagonal(self):
        assert fields.FieldMeasure(np.diag([3.0, 1.0])).energy == pytest.approx(4.0)

    def test_average_energy_monte_carlo(self):
        n = 10**5
        measure = fields.FieldMeasure(random_psd(np.random.default_rng(1), 3))
        samples = fields.sample_fields(measure, n, 5)
        energies = np.sum(np.abs(samples) ** 2, axis=1)
        stderr = energies.std(ddof=1) / np.sqrt(n)
        assert abs(energies.mean() - measure.energy) < 3.0 * stderr

    def test_exact_average_identity_kernel(self):
        measure = fields.FieldMeasure(np.diag([2.0, 6.0]))
        v = fields.QuadraticVariable(np.eye(2))
        assert fields.exact_average(v, measure) == pytest.approx(measure.energy)

    def test_exact_average_diagonal(self):
        measure = fields.FieldMeasure(np.diag([2.0, 6.0]))
        v = fields.QuadraticVariable(np.diag([1.0, 0.0]))
        assert fields.exact_average(v, measure) == pytest.approx(2.0)

    def test_exact_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        v = fields.QuadraticVariable(random_hermitian(rng, 4))
        measure = fields.FieldMeasure(random_psd(rng, 4))
        est = fields.mc_average(v, measure, 10**5, 6)
        assert abs(est.mean - fields.exact_average(v, measure)) < 4.0 * est.std_error


class TestMcAverage:
    def test_zero_measure(self):
        est = fields.mc_average(
            fields.QuadraticVariable(np.eye(2)),
            fields.FieldMeasure(np.zeros((2, 2))),
            100,
            7,
        )
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_identity_pair(self):
        est = fields.mc_average(
            fields.QuadraticVariable(np.eye(2)),
            fields.FieldMeasure(np.eye(2)),
            10**5,
            8,
        )
        assert est.mean == pytest.approx(2.0, abs=4 * est.std_error)
        # ||phi||^2 is a sum of two unit exponentials: stderr ~ sqrt(2/n)
        assert est.std_error == pytest.approx(np.sqrt(2.0 / 10**5), rel=0.1)

    def test_bit_reproducible(self):
        v = fields.QuadraticVariable(np.eye(3))
        m = fields.FieldMeasure(np.eye(3))
        a = fields.mc_average(v, m, 5000, 9)
        b = fields.mc_average(v, m, 5000, 9)
        assert a == b

    def test_consistency_battery(self):
        # across a fixed seed battery, |mc - exact| < 4 stderr nearly always
        rng = np.random.default_rng(3)
        v = fields.QuadraticVariable(random_hermitian(rng, 3))
        measure = fields.FieldMeasure(random_psd(rng, 3))
        exact = fields.exact_average(v, measure)
        hits = 0
        for seed in range(100):
            est = fields.mc_average(v, measure, 4000, 10_000 + seed)
            if abs(est.mean - exact) < 4.0 * est.std_error:
                hits += 1
        assert hits >= 99


class TestCorrespondence:
    def test_coupling_identity_mixed(self):
        rng = np.random.default_rng(5)
        v = fields.QuadraticVariable(random_hermitian(rng, 3))
        check = fields.normalized_coupling_check(v, fields.FieldMeasure(np.eye(3)))
        assert check.lhs == pytest.approx(np.trace(v.kernel).real / 3.0)
        assert check.gap < 1e-12

    def test_coupling_identity_diagonal(self):
        v = fields.QuadraticVariable(np.diag([1.0, 0.0]))
        measure = fields.FieldMeasure(np.diag([2.0, 6.0]))
        check = fields.normalized_coupling_check(v, measure)
        assert check.lhs == pytest.approx(0.25)
        assert check.rhs == pytest.approx(0.25)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_coupling_identity_random(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            v = fields.QuadraticVariable(random_hermitian(rng, d))
            measure = fields.FieldMeasure(random_psd(rng, d))
            assert fields.normalized_coupling_check(v, measure).gap < 1e-10

    def test_degenerate_measure_rejected(self):
        v = fields.QuadraticVariable(np.eye(2))
        with pytest.raises(DegenerateMeasureError):
            fields.normalized_coupling_check(
                v, fields.FieldMeasure(np.zeros((2, 2)))
            )


class TestAmplifiedVariable:
    def test_amplified_average_equals_state_pairing(self):
        # the kernel rescaled by the inverse average energy averages to the
        # quantum-state pairing of the original kernel
        rng = np.random.default_rng(6)
        v = fields.QuadraticVariable(random_hermitian(rng, 4))
        measure = fields.FieldMeasure(random_psd(rng, 4))
        g = fields.QuadraticVariable(v.kernel / measure.energy)
        assert fields.exact_average(g, measure) == pytest.approx(
            fields.normalized_coupling_check(v, measure).rhs
        )


class TestPairCorrelation:
    def test_identity_fourth_moment(self):
        # E||phi||^4 = d^2 + d for the standard measure
        for d in (2, 3, 5):
            v = fields.QuadraticVariable(np.eye(d))
            measure = fields.FieldMeasure(np.eye(d))
            assert fields.exact_pair_correlation(v, v, measure) == pytest.approx(
                d**2 + d
            )

    def test_zero_measure(self):
        v = fields.QuadraticVariable(np.eye(2))
        measure = fields.FieldMeasure(np.zeros((2, 2)))
        assert fields.exact_pair_correlation(v, v, measure) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(10 + d)
        v = fields.QuadraticVariable(random_hermitian(rng, d))
        w = fields.QuadraticVariable(random_hermitian(rng, d))
        measure = fields.FieldMeasure(random_psd(rng, d))
        exact = fields.exact_pair_correlation(v, w, measure)
        est = fields.mc_pair_correlation(v, w, measure, 10**6, 11)
        assert abs(est.mean - exact) < 4.0 * est.std_error


class TestDimensionMismatch:
    """A kernel of another dimension than the measure's is named as such by
    every average, exact or Monte Carlo, before any product is formed."""

    @pytest.mark.parametrize(
        "average",
        [
            fields.exact_average,
            lambda v, m: fields.exact_pair_correlation(v, v, m),
            lambda v, m: fields.mc_average(v, m, 10, 1),
            lambda v, m: fields.mc_pair_correlation(v, v, m, 10, 1),
        ],
        ids=["exact_average", "exact_pair_correlation", "mc_average", "mc_pair_correlation"],
    )
    def test_kernel_of_other_dimension_rejected(self, average):
        variable, measure = fields.QuadraticVariable(np.eye(3)), fields.FieldMeasure(np.eye(2))
        with pytest.raises(DimensionMismatchError, match="kernel dimension 3 vs measure dimension 2"):
            average(variable, measure)


class TestEmpiricalCovariance:
    def test_zero_samples(self):
        np.testing.assert_array_equal(
            fields.empirical_covariance(np.zeros((10, 2), dtype=complex)),
            np.zeros((2, 2)),
        )

    def test_statistical_round_trip(self):
        n, d = 10**5, 4
        b = random_psd(np.random.default_rng(7), d, unit_trace=True)
        samples = fields.sample_fields(fields.FieldMeasure(b), n, 12)
        emp = fields.empirical_covariance(samples)
        rho = linalg.density_from_covariance(emp)
        assert np.linalg.norm(rho - linalg.density_from_covariance(b)) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fields.empirical_covariance(np.zeros((1, 2), dtype=complex))


class TestNonInjectivity:
    def test_gaussian_and_discrete_measures_share_state(self):
        # discrete fixture on +-sqrt(d lambda_i) v_i with equal weights has
        # covariance exactly B, yet is a different measure than the Gaussian
        rng = np.random.default_rng(8)
        d, n = 4, 10**5
        b = random_psd(rng, d, unit_trace=True)
        w, vec = linalg.spectral_decomposition(b)
        disc_cov = (vec * w) @ vec.conj().T
        np.testing.assert_allclose(
            linalg.density_from_covariance(disc_cov),
            linalg.density_from_covariance(b),
            atol=1e-12,
        )
        idx = rng.integers(0, d, size=n)
        signs = rng.choice([-1.0, 1.0], size=n)
        disc_samples = (signs * np.sqrt(d * w[idx]))[:, None] * vec.T[idx]
        emp_disc = fields.empirical_covariance(disc_samples)
        gauss_samples = fields.sample_fields(fields.FieldMeasure(b), n, 13)
        emp_gauss = fields.empirical_covariance(gauss_samples)
        assert np.linalg.norm(emp_disc - emp_gauss) < 0.02
        # the two measures really differ: fourth moments disagree
        e4_disc = np.mean(np.sum(np.abs(disc_samples) ** 2, axis=1) ** 2)
        e4_gauss = np.mean(np.sum(np.abs(gauss_samples) ** 2, axis=1) ** 2)
        assert abs(e4_disc - e4_gauss) > 0.05
