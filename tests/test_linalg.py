import numpy as np
import pytest

from bildsim import linalg
from bildsim.errors import (
    DegenerateMeasureError,
    DimensionMismatchError,
    ValidationError,
)


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def random_psd(rng, d):
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return c @ c.conj().T


class TestSpectralDecomposition:
    def test_identity(self):
        w, _ = linalg.spectral_decomposition(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = linalg.spectral_decomposition(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 3.0])

    def test_pauli_x(self):
        # characteristic polynomial l^2 - 1 = 0 by hand
        w, _ = linalg.spectral_decomposition(linalg.SIGMA_X)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_reconstruction_and_orthonormality(self, d):
        rng = np.random.default_rng(d)
        h = random_hermitian(rng, d)
        w, v = linalg.spectral_decomposition(h)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)

    def test_non_hermitian_names_entry(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1.0
        with pytest.raises(ValidationError, match=r"\(0,2\)|\(2,0\)"):
            linalg.spectral_decomposition(m)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            linalg.spectral_decomposition(np.array([[np.nan, 0], [0, 1.0]]))


class TestTraceProduct:
    def test_identity_gives_trace(self):
        rng = np.random.default_rng(0)
        b = random_hermitian(rng, 3)
        assert linalg.trace_product(np.eye(3), b) == pytest.approx(
            np.trace(b).real
        )

    def test_diagonal_arithmetic(self):
        assert linalg.trace_product(
            np.diag([1.0, 2.0]), np.diag([0.5, 0.5])
        ) == pytest.approx(1.5)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        oracle = 0.0
        for i in range(4):
            for j in range(4):
                oracle += a[i, j] * b[j, i]
        assert linalg.trace_product(a, b) == pytest.approx(oracle.real)

    def test_real_for_psd_partner(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_hermitian(rng, 5)
            b = random_psd(rng, 5)
            t = np.trace(a @ b)
            assert abs(t.imag) <= 1e-10 * max(abs(t.real), 1.0)
            assert linalg.trace_product(a, b) == pytest.approx(t.real)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.trace_product(np.eye(2), np.eye(3))

    def test_imaginary_residue_rejected(self):
        # each matrix is Hermitian to within HERMITIAN_TOL, and Tr(AB) = 1e-24 i
        # is far beyond 1e-10 ||A|| ||B|| = 1e-34
        with pytest.raises(ValidationError, match="imaginary residue"):
            linalg.trace_product([[0, 1e-12], [0, 0]], [[0, 0], [1e-12j, 0]])


class TestMatrixChecks:
    @pytest.mark.parametrize(
        "shape,message", [((2, 3), r"square matrix, got shape \(2, 3\)"), ((0, 0), ">= 1")], ids=["2x3", "0x0"]
    )
    def test_shapes_rejected(self, shape, message):
        with pytest.raises(ValidationError, match=message):
            linalg.as_complex_matrix(np.zeros(shape))

    def test_density_of_trace_two_rejected(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        with pytest.raises(ValidationError, match="trace is"):
            linalg.check_density(2 * np.outer(psi, psi))


class TestDensityFromCovariance:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            linalg.density_from_covariance(np.eye(2)), np.diag([0.5, 0.5])
        )

    def test_normalization(self):
        np.testing.assert_allclose(
            linalg.density_from_covariance(np.diag([3.0, 1.0])),
            np.diag([0.75, 0.25]),
        )

    def test_rank_one_gives_pure_state(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        proj = np.outer(psi, psi.conj())
        np.testing.assert_allclose(
            linalg.density_from_covariance(2.0 * proj), proj, atol=1e-14
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        b = random_psd(rng, 4)
        for c in (0.01, 1.0, 250.0):
            np.testing.assert_allclose(
                linalg.density_from_covariance(c * b),
                linalg.density_from_covariance(b),
                atol=1e-12,
            )

    def test_zero_trace_degenerate(self):
        with pytest.raises((DegenerateMeasureError, ValidationError)):
            linalg.density_from_covariance(np.zeros((2, 2)))


class TestTensorProduct:
    def test_identities(self):
        np.testing.assert_allclose(
            linalg.tensor_product(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_diag_with_identity(self):
        np.testing.assert_allclose(
            linalg.tensor_product(np.diag([1.0, -1.0]), np.eye(2)),
            np.diag([1.0, 1.0, -1.0, -1.0]),
        )

    def test_zz_singlet_expectation(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        zz = linalg.tensor_product(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert (psi.conj() @ zz @ psi).real == pytest.approx(-1.0)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(4)
        t = linalg.tensor_product(random_hermitian(rng, 2), random_hermitian(rng, 3))
        np.testing.assert_allclose(t, t.conj().T, atol=1e-12)


class TestCommutatorNorm:
    def test_disjoint_tensor_factors_commute(self):
        a = linalg.tensor_product(linalg.SIGMA_Z, np.eye(2))
        b = linalg.tensor_product(np.eye(2), linalg.SIGMA_X)
        assert linalg.commutator_norm(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pauli_pair(self):
        # [sigma_z, sigma_x] = 2i sigma_y, Frobenius norm 2*sqrt(2)
        assert linalg.commutator_norm(linalg.SIGMA_Z, linalg.SIGMA_X) == pytest.approx(
            2.0 * np.sqrt(2.0)
        )

    def test_self_commutation(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        assert linalg.commutator_norm(a, a) == pytest.approx(0.0, abs=1e-12)


class TestJsonFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 3)
        obj = linalg.matrix_to_json(m)
        assert obj["dim"] == 3
        np.testing.assert_allclose(linalg.matrix_from_json(obj), m)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            linalg.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
