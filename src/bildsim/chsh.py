"""CHSH bench: quantum correlations, commutation audit, and hidden-variable
outcome streams.

Measurement directions live in the z-x plane, so each setting is a single
angle and the observable is cos(theta) sigma_z + sin(theta) sigma_x. The
hidden-variable side draws a unit vector uniformly on the 2-sphere and
responds with the sign of its projection on the setting direction; all four
responses are evaluated on the same draw, which is what makes the
incompatible-pair correlations computable from one stream.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError, check_memory, check_work, philox

PAIR_NAMES = ("A1B1", "A1B2", "A2B1", "A2B2", "A1A2", "B1B2")
# the bit of an outcome code that holds each response
_COLUMNS = {"A1": 0, "A2": 1, "B1": 2, "B2": 3}

# records per block of the hidden-variable draw, and the bytes that the memory
# estimate allows beside one block's arrays (under 4 KiB, tracemalloc)
_BLOCK = 2**14
_SMALL_BYTES = 2**16

# Quantum-optimal settings for the singlet state.
OPTIMAL_ANGLES = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)


@dataclass(frozen=True)
class ChshAngles:
    """Measurement angles (a1, a2) for Alice and (b1, b2) for Bob, radians, or arrays that broadcast."""

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"angle {name} is not finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.b1, self.b2)


def observable_from_angle(theta: float) -> np.ndarray:
    """Spin observable cos(theta) sigma_z + sin(theta) sigma_x; eigenvalues +-1."""
    return np.cos(theta) * linalg.SIGMA_Z + np.sin(theta) * linalg.SIGMA_X


def singlet_state() -> np.ndarray:
    """Density operator of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def _zx_tensor(rho: np.ndarray) -> tuple:
    """rho validated, and its z/x correlation tensor T_ij = Tr(rho s_i (x) s_j),
    s = (sigma_z, sigma_x), as (T_zz, T_zx, T_xz, T_xx)."""
    r = linalg.check_density(rho)
    if r.shape != (4, 4):
        raise DimensionMismatchError("two-qubit state must be 4x4")
    zx = (linalg.SIGMA_Z, linalg.SIGMA_X)
    return tuple(linalg.trace_product(r, linalg.tensor_product(i, j)) for i in zx for j in zx)


def _correlation(t: tuple, theta_a, theta_b) -> np.ndarray:
    """E = (cos a, sin a) T (cos b, sin b)^T from the tensor of ``_zx_tensor``, checked and clipped to [-1, 1]."""
    tzz, tzx, txz, txx = t
    ca, sa, cb, sb = np.cos(theta_a), np.sin(theta_a), np.cos(theta_b), np.sin(theta_b)
    val = ca * cb * tzz + ca * sb * tzx + sa * cb * txz + sa * sb * txx
    if not np.all(np.abs(val) <= 1.0 + 1e-10):
        raise ValidationError(f"correlation of magnitude {np.max(np.abs(val))} outside [-1, 1]")
    return np.clip(val, -1.0, 1.0)


def _chsh(t: tuple, angles: ChshAngles) -> np.ndarray:
    """S = (E(a1,b1) + E(a2,b1)) + (E(a1,b2) - E(a2,b2)), by Bob's setting, from the tensor of ``_zx_tensor``."""
    a1, a2, b1, b2 = angles.as_tuple()
    p = _correlation(t, a1, b1) + _correlation(t, a2, b1)
    return p + (_correlation(t, a1, b2) - _correlation(t, a2, b2))


def quantum_correlation(rho: np.ndarray, theta_a, theta_b) -> float | np.ndarray:
    """Correlation Tr(rho A(theta_a) (x) B(theta_b)) in [-1, 1], a float for two scalar angles.

    Arrays of angles broadcast: E = (cos a, sin a) T (cos b, sin b)^T, with rho validated and its
    z/x correlation tensor T_ij = Tr(rho s_i (x) s_j), s = (sigma_z, sigma_x), built once per call.
    """
    val = _correlation(_zx_tensor(rho), theta_a, theta_b)
    return float(val) if np.ndim(val) == 0 else val


def chsh_value(rho: np.ndarray, angles: ChshAngles) -> float | np.ndarray:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), broadcast over the angles; rho is validated once."""
    s = _chsh(_zx_tensor(rho), angles)
    return float(s) if np.ndim(s) == 0 else s


def chsh_grid_max(rho: np.ndarray) -> tuple[float, ChshAngles]:
    """Maximum |S| over 61 uniform angles in [-pi, pi], with the attaining settings.

    S = p(b1) + q(b2) over (a1, a2, b), with p = E(a1,b) + E(a2,b) and q = E(a1,b) - E(a2,b)
    from one 61x61 table of E, so the extremes over b1 and b2 separate: two 61^3 tables, 1.8 MB
    each, where S over the 61^4 grid is 110 MB. Rounded addition is monotone in each operand,
    so max p + max q, rounded, is the largest S, and the result is bit for bit that of one argmax
    of |S| over the whole grid: ties go to the first settings in grid order. rho is validated once.
    """
    t = np.linspace(-np.pi, np.pi, 61)
    e = _correlation(_zx_tensor(rho), t[:, None], t)
    p = e[:, None, :] + e
    q = e[:, None, :] - e
    best = np.maximum(p.max(-1) + q.max(-1), -(p.min(-1) + q.min(-1)))
    i1, i2 = np.unravel_index(np.argmax(best), best.shape)
    j1, j2 = np.unravel_index(np.argmax(np.abs(p[i1, i2, :, None] + q[i1, i2])), e.shape)
    return float(best[i1, i2]), ChshAngles(t[i1], t[i2], t[j1], t[j2])


def compatibility_audit(angles: ChshAngles) -> dict:
    """Commutator norms of all six observable pairs in the bipartite realization.

    Cross pairs (Alice vs Bob) commute identically; local pairs commute only
    when the two settings coincide modulo pi, in which case the CHSH
    combination degenerates and cannot exceed the classical bound.
    """
    eye = np.eye(2, dtype=complex)
    ops = {
        "A1": linalg.tensor_product(observable_from_angle(angles.a1), eye),
        "A2": linalg.tensor_product(observable_from_angle(angles.a2), eye),
        "B1": linalg.tensor_product(eye, observable_from_angle(angles.b1)),
        "B2": linalg.tensor_product(eye, observable_from_angle(angles.b2)),
    }
    norms = {pair: linalg.commutator_norm(ops[pair[:2]], ops[pair[2:]]) for pair in PAIR_NAMES}
    cross = {pair: norms[pair] for pair in PAIR_NAMES[:4]}
    local = {pair: norms[pair] for pair in PAIR_NAMES[4:]}
    degenerate = min(local.values()) <= 1e-12
    return {"cross": cross, "local": local, "degenerate": degenerate}


@dataclass(frozen=True)
class HvStrategy:
    """Hidden-variable strategy: a distribution over lambda plus four
    +-1-valued responses.

    kind "sphere_sign": lambda uniform on the unit 2-sphere, response
    sign(lambda . n(theta)) with n(theta) = (sin theta, 0, cos theta).
    kind "constant": responses are fixed values, independent of lambda.
    """

    kind: str = "sphere_sign"
    angles: ChshAngles = field(
        default_factory=lambda: ChshAngles(*OPTIMAL_ANGLES)
    )
    constants: tuple[int, int, int, int] = (1, 1, 1, 1)

    def __post_init__(self):
        if self.kind not in ("sphere_sign", "constant"):
            raise ValidationError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "constant" and any(
            c not in (-1, 1) for c in self.constants
        ):
            raise ValidationError("constant responses must be +-1")

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"kind": self.kind, "constants": list(self.constants)}
        return {"kind": self.kind, "angles": list(self.angles.as_tuple())}


@dataclass(frozen=True)
class OutcomeStream:
    """The joint histogram of records (A1, A2, B1, B2) in {-1, +1}^4 from one
    strategy: counts[c] records answer +1 exactly in the columns whose bits
    (_COLUMNS: A1 is bit 0, B2 bit 3) are set in c, and -1 in the others."""

    n: int
    counts: np.ndarray  # (16,) int64
    seed: int
    strategy: dict


def hv_sample(strategy: HvStrategy, n: int, seed: int) -> OutcomeStream:
    """Evaluate all four responses on n independent lambda draws and tally them.

    lambda is drawn _BLOCK records at a time from one Philox stream, which
    continues across blocks, so the counts do not depend on the block size.
    A record's four sign bytes, read as a little-endian uint32 and multiplied
    by 0x01020408, hold its code sum_j [sign_j > 0] 2^j in the top byte.
    """
    if n < 1:
        raise ValidationError("need at least one record")
    # every strategy's seed and count are checked, though the constant one draws nothing
    rng = philox(seed)
    check_work(3 * n, f"the 3 normals of each of {n} hidden-variable records")
    counts = np.zeros(16, dtype=np.int64)
    if strategy.kind == "constant":
        counts[sum(1 << j for j, c in enumerate(strategy.constants) if c == 1)] = n
        return OutcomeStream(n=n, counts=counts, seed=seed, strategy=strategy.describe())
    # a block's lambda and projections (7 float64), signs, codes and their intp copy
    check_memory(72 * _BLOCK + _SMALL_BYTES, "the outcome stream")
    # sign(lambda . n) does not depend on |lambda|, so lambda is not normalised
    directions = np.array([[np.sin(t), 0.0, np.cos(t)] for t in strategy.angles.as_tuple()]).T
    m = min(n, _BLOCK)
    lam, projections = np.empty((m, 3)), np.empty((m, 4))
    signs = np.empty((m, 4), dtype=np.bool_)
    codes = np.empty((m, 1), dtype="<u4")
    for start in range(0, n, _BLOCK):
        k = min(n - start, _BLOCK)
        rng.standard_normal(out=lam[:k])
        np.matmul(lam[:k], directions, out=projections[:k])
        np.greater_equal(projections[:k], 0.0, out=signs[:k])
        np.multiply(signs[:k].view("<u4"), 0x01020408, out=codes[:k])
        np.right_shift(codes[:k], 24, out=codes[:k])
        counts += np.bincount(codes[:k, 0], minlength=16)
    return OutcomeStream(n=n, counts=counts, seed=seed, strategy=strategy.describe())


def empirical_correlation(stream: OutcomeStream, pair: str) -> float:
    """Mean product of one outcome pair; all six pairs share the stream.

    Each product is +1 where the outcomes agree and -1 where they differ, so
    the mean is (2 agreements - n) / n, from an exact integer count: the
    records of the cells whose codes agree in the pair's two bits.
    """
    if pair not in PAIR_NAMES:
        raise ValidationError(f"unknown pair {pair!r}; expected one of {PAIR_NAMES}")
    i, j = _COLUMNS[pair[:2]], _COLUMNS[pair[2:]]
    agree = sum(int(count) for c, count in enumerate(stream.counts) if (c >> i & 1) == (c >> j & 1))
    return (2 * agree - stream.n) / stream.n


def chsh_from_stream(stream: OutcomeStream) -> float:
    """S estimated from the four cross pairs of one joint stream."""
    return (
        empirical_correlation(stream, "A1B1")
        + empirical_correlation(stream, "A1B2")
        + empirical_correlation(stream, "A2B1")
        - empirical_correlation(stream, "A2B2")
    )


def sphere_sign_correlation(theta_1: float, theta_2: float) -> float:
    """Analytic pair correlation 1 - 2|dtheta|/pi for the sign-on-sphere model."""
    delta = abs((theta_1 - theta_2 + np.pi) % (2 * np.pi) - np.pi)
    return 1.0 - 2.0 * delta / np.pi


def deterministic_bound_enumeration() -> float:
    """Max |S| over all 16 deterministic +-1 assignments; equals 2."""
    best = 0.0
    for a1, a2, b1, b2 in itertools.product((-1, 1), repeat=4):
        s = a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2
        best = max(best, abs(float(s)))
    return best
