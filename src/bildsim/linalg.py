"""Finite-dimensional complex Hilbert space linear algebra.

Hermitian/PSD validation, spectral decomposition, trace pairings, Kronecker
products and the covariance -> density-operator normalization map. All
functions operate on plain complex numpy arrays; validation helpers enforce
the structural invariants at module boundaries.
"""

import numpy as np

from .errors import (
    DegenerateMeasureError,
    DimensionMismatchError,
    ValidationError,
)

# Entrywise absolute tolerance for the Hermitian check.
HERMITIAN_TOL = 1e-12
# Eigenvalue floor for positive semidefiniteness; slightly negative to absorb
# floating-point noise in empirically estimated covariances.
EIGENVALUE_FLOOR = -1e-10
# Covariances with trace below this are treated as degenerate measures.
TRACE_EPS = 1e-14

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def check_hermitian(m) -> np.ndarray:
    """Validate Hermiticity entrywise to HERMITIAN_TOL; name the worst offending entry on failure."""
    a = as_complex_matrix(m)
    dev = np.abs(a - a.conj().T)
    if dev.max() > HERMITIAN_TOL:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: entry ({i},{j}) deviates from its "
            f"conjugate transpose by {dev[i, j]:.3e} (tol {HERMITIAN_TOL:.1e})"
        )
    return a


def check_psd(m) -> np.ndarray:
    """Validate Hermiticity and the eigenvalue floor EIGENVALUE_FLOOR."""
    a = check_hermitian(m)
    w = np.linalg.eigvalsh(a)
    if w.min() < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue {w.min():.3e}"
        )
    return a


def check_density(m) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, unit trace."""
    a = check_psd(m)
    tr = np.trace(a)
    if abs(tr - 1.0) > 1e-12:
        raise ValidationError(f"density operator trace is {tr}, expected 1")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def spectral_decomposition(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that
    ``h = V @ diag(w) @ V.conj().T``.
    """
    a = check_hermitian(h)
    w, v = np.linalg.eigh(a)
    return w, v


def trace_product(a, b) -> float:
    """Tr(A B) for Hermitian A, B; the symmetric pairing is real.

    The imaginary residue of the complex trace is checked against
    1e-10 * ||A||_F * ||B||_F.
    """
    am = check_hermitian(a)
    bm = check_hermitian(b)
    _check_same_dim(am, bm)
    t = np.sum(am * bm.T)  # Tr(AB) = sum_ij A_ij B_ji
    scale = np.linalg.norm(am) * np.linalg.norm(bm)
    if abs(t.imag) > 1e-10 * max(scale, 1e-300):
        raise ValidationError(
            f"trace product has imaginary residue {t.imag:.3e} beyond tolerance"
        )
    return float(t.real)


def density_from_covariance(b) -> np.ndarray:
    """Normalize a covariance operator (Hermitian, PSD) by its trace to a density operator."""
    bm = check_psd(b)
    tr = np.trace(bm).real
    if tr <= TRACE_EPS:
        raise DegenerateMeasureError(
            f"covariance trace {tr:.3e} is numerically zero; state undefined"
        )
    return bm / tr


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two Hermitian operators."""
    return np.kron(check_hermitian(a), check_hermitian(b))


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator AB - BA."""
    am = check_hermitian(a)
    bm = check_hermitian(b)
    _check_same_dim(am, bm)
    return float(np.linalg.norm(am @ bm - bm @ am))


def matrix_to_json(m) -> dict:
    """Serialize a complex matrix to the wire format {dim, re, im}."""
    a = as_complex_matrix(m)
    return {
        "dim": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the wire format produced by :func:`matrix_to_json`."""
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    return as_complex_matrix(re + 1j * im)
