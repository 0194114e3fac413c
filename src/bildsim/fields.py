"""Zero-mean Gaussian random fields on C^d and their quadratic variables.

A field measure is identified by its covariance operator; quadratic variables
are Hermitian-kernel forms f(phi) = <phi|A|phi>. The module provides exact
(trace) and Monte Carlo averages, the energy-scaled coupling check against
the density operator of linalg.density_from_covariance, pair correlations via
the circular-Gaussian fourth-moment formula, and the empirical covariance
estimator.

Sampling uses the counter-based Philox generator keyed by the user seed, with
a fixed draw order per sample, so results are reproducible bit-for-bit from
(covariance, n, seed).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError, check_memory, check_work, philox

# samples per block of the sampler and of a Monte Carlo estimate, which holds
# one block at a time; and the bytes that a memory estimate allows beside its
# arrays: the generator, the 2d x 2d matrices and the array headers (under
# 6 KiB at d = 5, tracemalloc)
_BLOCK = 2**14
_SMALL_BYTES = 2**16


@dataclass(frozen=True)
class FieldMeasure:
    """Zero-mean circular complex Gaussian measure on C^d.

    Identified by its covariance operator alone; the average field energy is
    its trace.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = linalg.check_psd(self.covariance)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @property
    def energy(self) -> float:
        """Average field energy E[||phi||^2] = Tr B."""
        return float(np.trace(self.covariance).real)

    @cached_property
    def embedding(self) -> np.ndarray:
        """The real (2d, 2d) matrix E that takes 2d normals, real parts first,
        to the interleaved (Re phi_j, Im phi_j) of one sample: the real form
        of sqrt(1/2) L^T, with B = L L*."""
        d = self.dim
        m = np.sqrt(0.5) * _covariance_factor(self.covariance).T
        return _real_form(m).transpose(1, 0, 2, 3).reshape(2 * d, 2 * d)


@dataclass(frozen=True)
class QuadraticVariable:
    """Quadratic form phi -> <phi|A|phi> with Hermitian kernel A."""

    kernel: np.ndarray

    def __post_init__(self):
        k = linalg.check_hermitian(self.kernel)
        object.__setattr__(self, "kernel", k)

    @property
    def dim(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


class CouplingCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L* = B via spectral decomposition.

    FieldMeasure has checked B against the PSD floor; the negative
    eigenvalues within it are clamped to zero so that rank-deficient and
    empirically estimated covariances factor robustly.
    """
    w, v = linalg.spectral_decomposition(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix of phi -> phi m on the interleaved (Re, Im) floats of phi.

    R[j, a, k, b] takes part a of phi_j to part b of (phi m)_k, part 0 being
    the real one, so x R.reshape(2d, 2d) is the float view of phi m.
    """
    d = m.shape[0]
    r = np.empty((d, 2, d, 2))
    r[:, 0, :, 0] = r[:, 1, :, 1] = m.real
    r[:, 0, :, 1] = m.imag
    r[:, 1, :, 0] = -m.imag
    return r


def sample_fields(measure: FieldMeasure, n: int, seed, out=None) -> np.ndarray:
    """Draw n field samples, returned as an (n, d) complex array.

    phi = L z with B = L L* and z i.i.d. standard circular complex Gaussian
    (real and imaginary parts independent N(0, 1/2)), so E[phi phi*] = B.
    Each sample takes 2d normals, real parts first, from one Philox stream:
    a fresh one keyed by ``seed`` when it is an integer, or the stream of
    ``seed`` when it is a ``np.random.Generator``, which continues from where
    it stands and is left after the last normal drawn. Blocks of _BLOCK
    samples are drawn into one reused buffer and mapped straight into their
    rows of phi by one real product with the measure's embedding. The stream
    continues across blocks, so phi does not depend on the block size, and
    calls of whole blocks on one generator, joined, equal one call for all
    their samples bit for bit. ``out`` may give the buffers (phi, normals):
    phi (n, d) complex, which is returned, and min(n, _BLOCK) x 2d floats.
    """
    if n < 1:
        raise ValidationError("need at least one sample")
    rng = seed if isinstance(seed, np.random.Generator) else philox(seed)
    d = measure.dim
    if out is None:
        # phi, 16 bytes per sample and component, and one block of normals
        check_memory(16 * d * (n + _BLOCK) + _SMALL_BYTES, "the field samples")
        out = np.empty((n, d), dtype=np.complex128), np.empty((min(n, _BLOCK), 2 * d))
    phi, z = out
    embedding = measure.embedding
    x = phi.view(np.float64)
    for start in range(0, n, _BLOCK):
        rows = x[start : start + _BLOCK]
        block = z[: len(rows)]
        rng.standard_normal(out=block)
        np.matmul(block, embedding, out=rows)
    return phi


def _check_dims(measure: FieldMeasure, *variables: QuadraticVariable) -> None:
    for variable in variables:
        if variable.dim != measure.dim:
            raise DimensionMismatchError(
                f"kernel dimension {variable.dim} vs measure dimension {measure.dim}"
            )


def exact_average(variable: QuadraticVariable, measure: FieldMeasure) -> float:
    """Exact measure average of a quadratic variable: Tr(A B)."""
    _check_dims(measure, variable)
    return linalg.trace_product(variable.kernel, measure.covariance)


def _form_values(forms, samples: np.ndarray, out: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Per sample, x S x^T for the one form S of ``forms``, or the product of
    that of its two, into ``out``, with x S in ``products``. S, the real form
    of phi -> A phi, is symmetric for a Hermitian kernel A, and x S x^T is
    Re<phi|A phi> on phi's interleaved float view x."""
    x = samples.view(np.float64)
    np.einsum("nk,nk->n", x, np.matmul(x, forms[0], out=products), out=out)
    if len(forms) == 2:
        out *= np.einsum("nk,nk->n", x, np.matmul(x, forms[1], out=products))
    return out


def _monte_carlo(variables, measure: FieldMeasure, n: int, seed: int) -> MonteCarloEstimate:
    """Mean and standard error of the product of ``variables`` over n samples.

    The samples are drawn and evaluated _BLOCK at a time on one generator,
    into buffers of one block. Each block's sum and centred sum of squares
    are merged into the totals by the update of Chan, Golub and LeVeque
    (1979): bit for bit numpy's mean and std(ddof=1) for n <= _BLOCK, equal
    to rounding above.
    """
    if n < 2:
        raise ValidationError("Monte Carlo estimate needs n >= 2")
    rng = philox(seed)
    d = measure.dim
    check_work(2 * d * n, f"the {2 * d} normals of each of {n} samples")
    # for one block, the values and a second form's (8 bytes per sample each),
    # and phi and its normals, which x S reuses (16 bytes per sample and component each)
    check_memory(16 * _BLOCK + 32 * d * _BLOCK + _SMALL_BYTES, "the Monte Carlo estimate")
    forms = [_real_form(v.kernel.T).reshape(2 * d, 2 * d) for v in variables]
    m = min(n, _BLOCK)
    vals, phi, scratch = np.empty(m), np.empty((m, d), dtype=np.complex128), np.empty((m, 2 * d))
    for start in range(0, n, _BLOCK):
        k = min(n - start, _BLOCK)
        block = vals[:k]
        _form_values(forms, sample_fields(measure, k, rng, out=(phi[:k], scratch[:k])), block, scratch[:k])
        block_sum = np.add.reduce(block)
        # the squared deviations from the block's mean, in place
        block -= block_sum / k
        np.multiply(block, block, out=block)
        if start:
            delta = total / start - block_sum / k
            squares += np.add.reduce(block) + delta * delta * (start * k / (start + k))
            total += block_sum
        else:
            total, squares = block_sum, np.add.reduce(block)
    return MonteCarloEstimate(
        mean=float(total / n),
        std_error=float(np.sqrt(squares / (n - 1)) / np.sqrt(n)),
        n_samples=n,
        seed=seed,
    )


def mc_average(
    variable: QuadraticVariable, measure: FieldMeasure, n: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the measure average of a quadratic variable."""
    return _monte_carlo([variable], measure, n, seed)


def normalized_coupling_check(
    variable: QuadraticVariable, measure: FieldMeasure
) -> CouplingCheck:
    """Check the energy-scaled average identity.

    lhs = exact average divided by average energy; rhs = trace pairing of the
    normalized state with the kernel. The gap vanishes analytically.
    """
    # raises DegenerateMeasureError for a zero-energy (zero-trace) measure
    state = linalg.density_from_covariance(measure.covariance)
    lhs = exact_average(variable, measure) / measure.energy
    rhs = linalg.trace_product(state, variable.kernel)
    return CouplingCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def exact_pair_correlation(
    v: QuadraticVariable, w: QuadraticVariable, measure: FieldMeasure
) -> float:
    """E[f g] for two quadratic variables under the Gaussian measure.

    Circular complex Gaussian fourth-moment (Wick) formula:
    Tr(A B) Tr(G B) + Tr(A B G B). Validated against brute-force Monte Carlo
    in the test suite before use.
    """
    _check_dims(measure, v, w)
    a, g, b = v.kernel, w.kernel, measure.covariance
    term = np.trace(a @ b).real * np.trace(g @ b).real
    cross = np.trace(a @ b @ g @ b).real
    return float(term + cross)


def mc_pair_correlation(
    v: QuadraticVariable, w: QuadraticVariable, measure: FieldMeasure, n: int, seed: int
) -> MonteCarloEstimate:
    """Brute-force Monte Carlo estimate of E[f g]; oracle for the closed form."""
    return _monte_carlo([v, w], measure, n, seed)


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """Empirical covariance (1/n) sum phi phi* of an (n, d) sample array."""
    s = np.asarray(samples, dtype=complex)
    if s.ndim != 2 or s.shape[0] < 2:
        raise ValidationError("need an (n, d) array with n >= 2")
    cov = s.T @ s.conj() / s.shape[0]
    # symmetrize away floating-point asymmetry before validation
    return linalg.check_psd(0.5 * (cov + cov.conj().T))
