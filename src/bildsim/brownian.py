"""Two-level Brownian dynamics: underdamped and overdamped integrators,
Fokker-Planck consistency, and coarse-grained velocity estimators.

The underdamped level evolves (x, p) with friction gamma and bath noise; the
overdamped level evolves x alone with drift force/gamma and diffusion
T/gamma. With ``paper_units`` set, gamma is taken as 1 so the overdamped
transition density satisfies dP/dt = -d_x(f P) + T d2_x P verbatim.

Directional velocities are finite-increment conditional means: v_plus uses
the displacement leaving a bin, v_minus the displacement that arrived there.
Their half-difference is the osmotic velocity, equal in law to
-(T/gamma) d_x log P for stationary ensembles.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError, RegimeError, ValidationError, check_memory, check_work, philox

DEFAULT_MIN_BIN_COUNT = 200

# trajectories per block of momentum_resolution_check: its working set, 25 bytes
# per trajectory and lattice time of a block, stays well below the ensemble
_BLOCK = 2**12

# binned KDE of log_density_gradient: kernel cut in bandwidths, grid nodes
# per bandwidth, most grid nodes, samples read per block by _sample_blocks
_KDE_REACH = 40.0
_KDE_NODES_PER_BANDWIDTH = 256
_KDE_MAX_NODES = 2**22
_KDE_BLOCK = 2**16

# histogram bins of _order_statistics
_RANK_BINS = 2**14

# Fokker-Planck spectral gap of _polynomial_tau_x: grid nodes, and the reach of
# the grid, U - U_min < 69 T, where the stationary density has fallen to
# e^-69 (about 1e-30) of its peak
_GAP_NODES = 4000
_GAP_REACH = 69.0


@dataclass(frozen=True)
class Potential:
    """Confining potential U(x) acting per particle through its force -dU/dx.

    kinds: "free" (U = 0), "harmonic" (U = sum k_i x_i^2 / 2, spring constants
    per particle), "polynomial" (same 1-D polynomial in each coordinate,
    coefficients in ascending order).
    """

    kind: str
    spring_constants: tuple = ()
    coefficients: tuple = ()

    @classmethod
    def free(cls) -> "Potential":
        return cls(kind="free")

    @classmethod
    def harmonic(cls, k) -> "Potential":
        ks = tuple(float(v) for v in np.atleast_1d(k))
        if any(v <= 0 for v in ks):
            raise ValidationError("harmonic spring constants must be positive")
        return cls(kind="harmonic", spring_constants=ks)

    @classmethod
    def polynomial(cls, coefficients) -> "Potential":
        cs = tuple(float(c) for c in coefficients)
        if not cs:
            raise ValidationError("polynomial potential needs coefficients")
        return cls(kind="polynomial", coefficients=cs)

    @functools.cached_property
    def _derivative(self) -> np.polynomial.Polynomial:
        """dU/dx of a polynomial potential, built once per Potential."""
        return np.polynomial.Polynomial(self.coefficients).deriv()

    def force(self, x: np.ndarray) -> np.ndarray:
        """-dU/dx_i, same shape as x; a single spring constant acts on every particle."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return -np.asarray(self.spring_constants) * x
        return -self._derivative(x)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "harmonic":
            d["spring_constants"] = list(self.spring_constants)
        elif self.kind == "polynomial":
            d["coefficients"] = list(self.coefficients)
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "Potential":
        kind = obj.get("kind")
        if kind not in ("free", "harmonic", "polynomial"):
            raise ValidationError(f"unknown potential kind {kind!r}")
        for field, owner in (("spring_constants", "harmonic"), ("coefficients", "polynomial")):
            if kind != owner and np.size(obj.get(field, ())):
                raise ValidationError(f"{field} belong to a {owner} potential, not to a {kind} one")
        if kind == "harmonic":
            return cls.harmonic(obj.get("spring_constants", ()))
        if kind == "polynomial":
            return cls.polynomial(obj.get("coefficients", ()))
        return cls.free()


@dataclass(frozen=True)
class LangevinConfig:
    """Full description of one simulation run.

    ``x_init`` / ``p_init`` are either a number (all trajectories start
    there) or "stationary" (draw from the equilibrium law; positions require
    a harmonic potential, momenta are N(0, m T)). ``store_every`` thins the
    stored time grid; the integration step is always ``dt``. A harmonic
    potential has one spring constant for all particles or one per particle.
    """

    n_particles: int
    mass: float
    friction: float
    temperatures: tuple
    potential: Potential
    dt: float
    t_end: float
    n_trajectories: int
    seed: int
    paper_units: bool = False
    store_every: int = 1
    x_init: object = 0.0
    p_init: object = "stationary"

    def __post_init__(self):
        # the scalar checks come first: the temperature tuple is sized by n_particles
        for name in ("mass", "friction", "dt", "t_end"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.n_particles < 1 or self.n_trajectories < 1:
            raise ValidationError("n_particles and n_trajectories must be >= 1")
        if self.store_every < 1:
            raise ValidationError("store_every must be >= 1")
        if not math.isfinite(self.tau_p):
            raise ValidationError(f"tau_p = mass / friction = {self.mass:.3g} / {self.gamma:.3g} overflows")
        temps = tuple(float(t) for t in np.atleast_1d(self.temperatures))
        if len(temps) == 1:
            # one 8-byte reference per particle
            check_memory(8 * self.n_particles, "the temperature tuple")
            temps = temps * self.n_particles
        if len(temps) != self.n_particles:
            raise ValidationError(
                f"{len(temps)} temperatures for {self.n_particles} particles"
            )
        object.__setattr__(self, "temperatures", temps)
        if any(t < 0 for t in temps):
            raise ValidationError("temperatures must be nonnegative")
        n_springs = len(self.potential.spring_constants)
        if self.potential.kind == "harmonic" and n_springs not in (1, self.n_particles):
            raise ValidationError(f"{n_springs} spring constants for {self.n_particles} particles")
        for name in ("x_init", "p_init"):
            start = getattr(self, name)
            if isinstance(start, str) and start != "stationary":
                raise ValidationError(f"unknown {name} {start!r}")
        if self.x_init == "stationary" and self.potential.kind != "harmonic":
            raise ValidationError("stationary position start requires a harmonic potential")

    @property
    def gamma(self) -> float:
        """Effective friction used in the overdamped mapping."""
        return 1.0 if self.paper_units else self.friction

    @property
    def tau_p(self) -> float:
        return self.mass / self.gamma

    @property
    def temps(self) -> np.ndarray:
        return np.asarray(self.temperatures, dtype=float)

    def diffusion_coefficients(self) -> np.ndarray:
        """Per-particle overdamped diffusion coefficients T_i / gamma."""
        return self.temps / self.gamma

    def to_dict(self) -> dict:
        return dict(vars(self), potential=self.potential.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "LangevinConfig":
        obj = dict(obj)
        obj["potential"] = Potential.from_dict(obj["potential"])
        return cls(**obj)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Stored positions (and momenta for underdamped runs) on a uniform grid.

    Shapes: times (n_times,), x and p (n_trajectories, n_times, n_particles).
    These are logical shapes: x and p may be views of memory in another
    order (the integrators store time-major, a loaded file is
    trajectory-major). Consumers index them and must not assume
    C-contiguity; ``ravel`` and ``reshape`` of them may copy.
    """

    times: np.ndarray
    x: np.ndarray
    p: Optional[np.ndarray]
    config: LangevinConfig

    @property
    def dt_store(self) -> float:
        """The step between stored times; nan for one stored time, which has none."""
        return float(self.times[1] - self.times[0]) if self.n_times > 1 else math.nan

    @property
    def n_times(self) -> int:
        return self.times.shape[0]


class TimescaleReport(NamedTuple):
    tau_p: float
    tau_x: float
    overdamped: bool
    tau_x_estimated: bool


def timescale_report(config: LangevinConfig) -> TimescaleReport:
    """Momentum and position relaxation times and the regime classification.

    tau_p = m/gamma always. tau_x depends on the potential alone:
    - free: infinite;
    - harmonic: gamma / max k, the stiffest coordinate;
    - polynomial: 1/lambda_1 from the Fokker-Planck spectral gap
      (``_polynomial_tau_x``), the smallest over the particles' distinct
      temperatures: again the fastest coordinate. At T = 0 it is the
      deterministic relaxation time gamma / max U'' over the local minima,
      which equals the harmonic gamma / k for U = k x^2 / 2, and infinite
      where that curvature vanishes. It is infinite for a potential that
      does not confine (degree below 2, odd degree or a negative leading
      coefficient), and where the grid cannot resolve the gap from the zero
      mode.
    Either way the fastest coordinate binds both the regime test and the
    overdamped step bound. Overdamped means tau_x >= 100 tau_p. No
    integrator runs, so the report does not depend on the seed, the
    trajectories or the time grid.
    """
    kind = config.potential.kind
    if kind == "free":
        tau_x = math.inf
    elif kind == "harmonic":
        tau_x = config.gamma / max(config.potential.spring_constants)
    else:
        tau_x = min(
            _polynomial_tau_x(config.potential.coefficients, config.gamma, t)
            for t in set(config.temperatures)
        )
    overdamped = tau_x >= 100.0 * config.tau_p
    return TimescaleReport(config.tau_p, tau_x, overdamped, kind == "polynomial")


def _polynomial_tau_x(coefficients, gamma: float, temperature: float) -> float:
    """tau_x = 1/lambda_1 of one coordinate in U = polynomial(coefficients),
    with lambda_1 the smallest nonzero eigenvalue of the overdamped
    Fokker-Planck operator (Risken 1989, ch. 5); infinite in the cases that
    ``timescale_report`` lists.

    The operator is discretised on 4000 uniform nodes over the range where
    U - U_min < 69 T, with the Scharfetter-Gummel rates D/h^2 e^{-+dU/2T}
    between neighbouring nodes (D = T/gamma). They obey detailed balance with
    e^{-U/T}, so the generator is similar to a symmetric tridiagonal matrix
    whose off-diagonal is -D/h^2. On U = x^2/2 this gives 1.0000043 gamma.
    Rates that overflow, or a lambda_1 within 1e3 eps of the largest rate
    sum, cannot be told from the zero mode. A well that double precision
    cannot locate is a NumericalError. At T = 0 there is no diffusion, and
    tau_x is gamma / U'' at the stiffest local minimum instead: the limit of
    the gap for a single well, whereas a double well's gap closes as T -> 0
    (Kramers).
    """
    from scipy.linalg import eigh_tridiagonal

    poly = np.polynomial.Polynomial(coefficients).trim()
    degree = poly.degree()
    if degree < 2 or degree % 2 or poly.coef[-1] < 0:
        return math.inf
    if temperature == 0:
        with np.errstate(all="ignore"):
            try:
                critical = poly.deriv().roots()
            except np.linalg.LinAlgError as exc:  # coefficient ratios beyond double range
                raise NumericalError(
                    "cannot locate the minima of the polynomial potential in double precision"
                ) from exc
        real = critical.real[np.abs(critical.imag) <= 1e-6 * np.abs(critical)]
        # U'' is positive at the strict local minima only
        curvature = poly.deriv(2)(real).max(initial=0.0)
        return float(gamma / curvature) if curvature > 0 else math.inf
    with np.errstate(all="ignore"):
        try:
            critical = poly.deriv().roots().real
            # U(x_min + y) - U_min, centred so that U keeps its precision on the grid
            well = poly(np.polynomial.Polynomial([critical[np.argmin(poly(critical))], 1.0]))
            well = well - well.coef[0]
            edges = (well - _GAP_REACH * temperature).roots()
        except np.linalg.LinAlgError:  # coefficient ratios beyond double range
            edges = np.array([])
        # a double root comes out as a pair about sqrt(eps) apart: it counts as real
        real = edges.real[np.abs(edges.imag) <= 1e-6 * np.abs(edges)]
        lo, hi = real.min(initial=0.0), real.max(initial=0.0)
        if not lo < 0.0 < hi:
            raise NumericalError(
                f"cannot locate the well of the polynomial potential at T={temperature:.3g} "
                "in double precision"
            )
        y, h = np.linspace(lo, hi, _GAP_NODES, retstep=True)
        du = np.diff(well(y)) / (2.0 * temperature)
        # each node's rates out, in units of D/h^2: up and down its bonds
        diag = np.zeros(_GAP_NODES)
        diag[:-1] += np.exp(-du)
        diag[1:] += np.exp(du)
    resolution = 1e3 * np.finfo(float).eps * diag.max()
    if not resolution < math.inf:
        return math.inf
    mu = eigh_tridiagonal(
        diag, np.full(_GAP_NODES - 1, -1.0), eigvals_only=True, select="i", select_range=(0, 1)
    )[1]
    return float(gamma * h * h / (temperature * mu)) if mu > resolution else math.inf


def _initial_state(start, stationary_variance, shape: tuple, rng) -> np.ndarray:
    """Start values of one coordinate: ``start`` everywhere, or, for
    "stationary", normal draws with the per-particle variance that
    ``stationary_variance()`` returns."""
    if start == "stationary":
        return rng.standard_normal(shape) * np.sqrt(stationary_variance())
    return np.full(shape, float(start))


def _check_finite(arr: np.ndarray, step: int, dt: float):
    # min and max carry a nan or an infinity through and allocate nothing;
    # the per-entry mask is built only to count the bad entries
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NumericalError(
            f"integration blew up at step {step} (t={step * dt:.4g}): "
            f"{bad} non-finite state entries"
        )


def _schedule(config: LangevinConfig) -> tuple[int, int]:
    """The steps of a run, round(t_end / dt), and the times it stores: every
    store_every-th step from the first, store_every * dt apart."""
    steps = config.t_end / config.dt
    if not math.isfinite(steps):
        raise ValidationError(f"t_end / dt = {steps} is not a finite step count")
    n_steps = int(round(steps))
    return n_steps, n_steps // config.store_every + 1


def stored_states(config: LangevinConfig, underdamped: bool):
    """Euler-Maruyama for the underdamped dx = (p/m) dt, dp = (F - gamma p/m) dt
    + sqrt(2 gamma T) dW, or the overdamped dx = (F/gamma) dt + sqrt(2 T/gamma) dW,
    as a stream of (time, x, p) at each stored time: x and p (None when
    overdamped) are (trajectory, particle) buffers that the next step
    overwrites.

    Draw order, which fixes the output bit for bit for a (config, seed):
    initial positions, initial momenta (underdamped only), then one
    standard-normal array of shape x.shape per step. Raised before the first
    draw: a RegimeError for a dt above tau_p / 20 (underdamped) or 1e-3 tau_x
    (overdamped, ``timescale_report``), and a ValidationError for a step count
    t_end / dt too large to be a number, more than 10^12 particle-steps, or a
    seed that is not an integer in [0, 2^64). The state that carries the noise
    (p, or x when overdamped) is checked every 200 steps, and the whole final
    state after the last step: the updates only add to x and p, so an entry
    that turns non-finite at any step is non-finite at the end.
    """
    if underdamped and config.dt > config.tau_p / 20.0:
        raise RegimeError(
            f"dt={config.dt:.3g} exceeds tau_p/20={config.tau_p / 20.0:.3g}; "
            "momentum dynamics would be under-resolved"
        )
    bound = math.inf if underdamped else 1e-3 * timescale_report(config).tau_x
    if config.dt > bound:
        raise RegimeError(f"dt={config.dt:.3g} exceeds overdamped step bound {bound:.3g}")
    n_steps, _ = _schedule(config)
    # hours at ~2e7 particle-steps a second; the largest test or criterion takes 1e8
    work = n_steps * config.n_trajectories * config.n_particles
    check_work(work, f"{n_steps} steps x {config.n_trajectories} trajectories x {config.n_particles} particles")
    rng = philox(config.seed)
    # equilibrium variances: T/k in the harmonic well (LangevinConfig requires
    # it for a stationary position start), m T for the momenta
    shape = (config.n_trajectories, config.n_particles)
    springs = np.asarray(config.potential.spring_constants)
    x = _initial_state(config.x_init, lambda: config.temps / springs, shape, rng)
    p = _initial_state(config.p_init, lambda: config.mass * config.temps, shape, rng) if underdamped else None
    xi = np.empty(shape)
    gamma, m, dt, force = config.gamma, config.mass, config.dt, config.potential.force
    noise_amp = np.sqrt(2.0 * (gamma * config.temps if underdamped else config.diffusion_coefficients()) * dt)
    for step in range(n_steps):
        if step % config.store_every == 0:
            yield step * dt, x, p
        rng.standard_normal(out=xi)
        # in place, each term added in turn: the roundings of x + a + b
        if underdamped:
            dp = (force(x) - gamma * p / m) * dt + noise_amp * xi
            x += (p / m) * dt
            p += dp
        else:
            x += force(x) / gamma * dt
            x += noise_amp * xi
        if step % 200 == 0:
            _check_finite(p if underdamped else x, step, dt)
    for state in (x, p) if underdamped else (x,):
        _check_finite(state, n_steps, dt)
    if n_steps % config.store_every == 0:
        yield n_steps * dt, x, p


def _collect(config: LangevinConfig, underdamped: bool) -> TrajectoryEnsemble:
    """The stored states of ``stored_states`` as an ensemble. Storage larger
    than the machine's physical memory is a ValidationError, raised before
    anything is allocated and before the stream's checks. The stored arrays
    are held time-major, (time, trajectory, particle), and returned as
    (trajectory, time, particle) views of that memory: they index like the
    ensemble's contract says but are not C-contiguous.
    """
    _, n_stored = _schedule(config)
    # xs, ps (underdamped) and times
    per_time = (1 + underdamped) * config.n_trajectories * config.n_particles + 1
    check_memory(8 * n_stored * per_time, "the stored ensemble")
    # time-major, so that each stored state is one contiguous write
    xs = np.empty((n_stored, config.n_trajectories, config.n_particles))
    ps = np.empty_like(xs) if underdamped else None
    times = np.empty(n_stored)
    for slot, (t, x, p) in enumerate(stored_states(config, underdamped)):
        times[slot], xs[slot] = t, x
        if underdamped:
            ps[slot] = p
    p_view = ps.transpose(1, 0, 2) if underdamped else None
    return TrajectoryEnsemble(times=times, x=xs.transpose(1, 0, 2), p=p_view, config=config)


def integrate_underdamped(config: LangevinConfig) -> TrajectoryEnsemble:
    """The underdamped run of ``stored_states``, collected, at a step dt of at most tau_p / 20."""
    return _collect(config, underdamped=True)


def integrate_overdamped(config: LangevinConfig) -> TrajectoryEnsemble:
    """The overdamped run of ``stored_states``, collected, at a step dt of at
    most 1e-3 tau_x (``timescale_report``) for every potential kind."""
    return _collect(config, underdamped=False)


@dataclass(frozen=True)
class VelocityFieldEstimate:
    """Binned conditional-mean velocity with standard errors.

    Bins below the minimum occupancy carry NaN values (missing, never zero).
    """

    bin_centers: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    counts: np.ndarray
    epsilon: float


def epsilon_steps(config: LangevinConfig, epsilon: float) -> int:
    """The stored steps in the time increment ``epsilon`` of the velocity
    estimators, for a run of ``config`` that is not yet integrated: the
    checks of ``_epsilon_steps`` on the times the run will store."""
    _, n_stored = _schedule(config)
    return _epsilon_steps(config.store_every * config.dt, n_stored, config.dt, epsilon)


def _epsilon_steps(dt_store: float, n_times: int, dt: float, epsilon: float) -> int:
    """The stored steps in ``epsilon``, for n_times stored times dt_store
    apart, integrated at step dt. ValidationError unless epsilon is a
    multiple of dt_store, at least 2 dt and shorter than the run, each to a
    relative 1e-9."""
    if n_times < 2:
        raise ValidationError("velocity estimates need at least two stored times")
    steps = epsilon / dt_store
    if not np.isfinite(steps):
        raise ValidationError(f"epsilon={epsilon:.3g} is not a finite number of stored steps {dt_store:.3g}")
    k = int(round(steps))
    if k < 1 or abs(k * dt_store - epsilon) > 1e-9 * max(epsilon, dt_store):
        raise ValidationError(
            f"epsilon={epsilon:.3g} is not a multiple of the stored step "
            f"{dt_store:.3g}"
        )
    if epsilon < 2.0 * dt * (1 - 1e-9):
        raise ValidationError(f"epsilon={epsilon:.3g} must be at least twice the integration step {dt:.3g}")
    if k >= n_times:
        raise ValidationError(
            f"epsilon={epsilon:.3g} is longer than the run: {k} stored steps "
            f"where the run has {n_times - 1}"
        )
    return k


def _binned_velocity(
    counts: np.ndarray, sums: np.ndarray, sq: np.ndarray, edges: np.ndarray, epsilon: float, min_count: int
) -> VelocityFieldEstimate:
    """Mean and standard error per bin from its count, sum and sum of squares."""
    values = np.full(counts.size, np.nan)
    errs = np.full(counts.size, np.nan)
    ok = counts >= min_count
    values[ok] = sums[ok] / counts[ok]
    var = np.maximum(sq[ok] / counts[ok] - values[ok] ** 2, 0.0)
    errs[ok] = np.sqrt(var / counts[ok])
    centers = 0.5 * (edges[:-1] + edges[1:])
    return VelocityFieldEstimate(bin_centers=centers, values=values, std_errors=errs, counts=counts, epsilon=epsilon)


class VelocityTally:
    """Forward and backward velocities of one coordinate on common bins, fed
    its positions at the lattice times 0, eps, 2 eps, ... one lattice time
    after another: ``add`` takes each such row of all trajectories in turn.

    v_plus is the mean of (x(t+eps) - x(t))/eps given x(t) in each bin,
    v_minus the mean of (x(t) - x(t-eps))/eps given x(t). Only positions
    inside the edges, e_0 <= x < e_last, fall in a bin; the others, nan
    among them, are dropped before the lookup. A row is taken in quarters of
    its trajectories, in increasing order. The windows that end at a
    chunk's positions in a bin (v_minus) are tallied when the row arrives,
    and those that start there (v_plus) at the next ``add``, which looks
    those positions up again rather than hold their bins. A row's count per
    bin is taken once: in each bin, as many windows start at a row as end
    there. A window's displacement is computed only where it is tallied.
    Each bin's sums add its windows in time order, and within one window in
    trajectory order. The tally keeps the last row's positions, so a row may
    be a buffer that its producer overwrites.

    A position's bin is np.digitize's, less one, by arithmetic: x guesses the
    bin (x - e_0)/w - 1/2 truncated to an integer, w the mean bin width, and
    steps up one at the guessed bin's upper edge. The guess is monotone in x,
    so if this is exact at each edge and the float below it inside the
    edges, it is for every x there; else np.digitize.
    """

    def __init__(self, bin_edges, epsilon: float, n_trajectories: int):
        # a row is taken in quarters. 20 bytes per trajectory: the last row's
        # positions, 8, and a quarter of 48, a chunk's lookups and windows
        self._chunk = max(1, -(-n_trajectories // 4))
        check_memory(20 * n_trajectories, "the velocity estimator's working set")
        self.edges = e = np.asarray(bin_edges, dtype=float)
        if e.ndim != 1 or e.size < 2 or not np.isfinite(e).all() or (e[1:] < e[:-1]).any():
            raise ValidationError("bin edges must be at least two finite numbers in non-decreasing order")
        self.epsilon = epsilon
        # per direction, v_plus then v_minus, and per bin: the windows, and
        # the sums of their steps and squares
        self.counts = np.zeros((2, e.size - 1), dtype=np.intp)
        self.sums = np.zeros((2, e.size - 1))
        self.sq = np.zeros_like(self.sums)
        self._last = np.empty(n_trajectories)
        # per bin, the windows that start at the last row
        self._starts = None
        self._upper = e[1:]
        with np.errstate(all="ignore"):
            width = (e[-1] - e[0]) / (e.size - 1)
            self._origin, self._scale = e[0] + width / 2, 1 / width
            # no (x - origin) * scale of a position in a bin exceeds e_last's
            scaled = np.isfinite((e[-1] - self._origin) * self._scale) and 0 < self._scale
        probe = np.concatenate([e, np.nextafter(e, -np.inf)])
        probe = probe[(probe >= e[0]) & (probe < e[-1])]
        if not (scaled and (self._bins(probe) == np.digitize(probe, e) - 1).all()):
            self._scale = None

    def _bins(self, x: np.ndarray) -> np.ndarray:
        """np.digitize(x, self.edges) - 1, for positions inside the edges."""
        if self._scale is None:
            return np.digitize(x, self.edges) - 1
        work = np.subtract(x, self._origin)
        work *= self._scale
        bins = work.astype(np.intp)
        # in place: take's default mode and a bool-to-intp ufunc would go through buffers
        up = np.greater_equal(x, self._upper.take(bins, out=work, mode="clip"))
        np.copyto(work.view(np.intp), up)
        bins += work.view(np.intp)
        return bins

    def _lookup(self, x: np.ndarray) -> tuple:
        """The positions of x inside the edges: their indices in x, a copy of
        them and their bins."""
        inside = np.greater_equal(x, self.edges[0])
        inside &= np.less(x, self.edges[-1])
        at = np.flatnonzero(inside)
        positions = x[at]
        return at, positions, self._bins(positions)

    def _tally(self, d: int, ends: np.ndarray, starts: np.ndarray, bins: np.ndarray) -> None:
        """Add the windows from ``starts`` to ``ends``, an array that this
        overwrites, to their bins of direction d (0 v_plus, 1 v_minus)."""
        steps = np.subtract(ends, starts, out=ends)
        steps /= self.epsilon
        # add.at adds in input order
        np.add.at(self.sums[d], bins, steps)
        np.multiply(steps, steps, out=steps)
        np.add.at(self.sq[d], bins, steps)

    def add(self, row: np.ndarray) -> None:
        """Take the positions at the next lattice time: the windows that end there."""
        ends = np.zeros_like(self.counts[0])
        for start in range(0, row.size, self._chunk):
            ends += self._add_chunk(row[start : start + self._chunk], self._last[start : start + self._chunk])
        # a row's bins count the windows that end there and those that start there
        if self._starts is not None:
            self.counts[0] += self._starts
            self.counts[1] += ends
        self._starts = ends

    def _add_chunk(self, x: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Take a chunk of a row, x, whose positions in the last row, ``last``,
        it then overwrites; return the chunk's count per bin."""
        first = self._starts is None
        if not first:
            at, positions, bins = self._lookup(last)
            self._tally(0, x[at], positions, bins)
            # dropped before the next lookup, beside which they would be held
            del at, positions, bins
        at, positions, bins = self._lookup(x)
        if not first:
            self._tally(1, positions, last[at], bins)
        np.copyto(last, x)
        return np.bincount(bins, minlength=self.counts.shape[1])

    def estimates(self, min_count: int = DEFAULT_MIN_BIN_COUNT) -> tuple:
        """(v_plus, v_minus) of the windows taken so far."""
        return tuple(
            _binned_velocity(self.counts[d], self.sums[d], self.sq[d], self.edges, self.epsilon, min_count)
            for d in range(2)
        )


def coarse_velocities(
    ensemble: TrajectoryEnsemble,
    epsilon: float,
    bin_edges,
    min_count: int = DEFAULT_MIN_BIN_COUNT,
) -> tuple[VelocityFieldEstimate, VelocityFieldEstimate]:
    """Forward and backward velocities (v_plus, v_minus) of particle 0 on
    common bins, from all windows between the lattice times 0, eps, 2 eps, ...
    (``VelocityTally``, fed each lattice time's positions in place). Windows
    are disjoint, so the standard errors treat them as independent
    (justified by the Markov property); pooling assumes a stationary
    ensemble.
    """
    k = _epsilon_steps(ensemble.dt_store, ensemble.n_times, ensemble.config.dt, epsilon)
    tally = VelocityTally(bin_edges, epsilon, ensemble.x.shape[0])
    for j in range(0, ensemble.n_times, k):
        tally.add(ensemble.x[:, j, 0])
    return tally.estimates(min_count)


def osmotic_velocity(
    v_plus: VelocityFieldEstimate, v_minus: VelocityFieldEstimate
) -> VelocityFieldEstimate:
    """Half-difference (v_minus - v_plus)/2 with propagated errors."""
    if v_plus.epsilon != v_minus.epsilon or not np.allclose(
        v_plus.bin_centers, v_minus.bin_centers
    ):
        raise ValidationError("velocity estimates use different bins or epsilon")
    values = 0.5 * (v_minus.values - v_plus.values)
    errs = 0.5 * np.sqrt(v_plus.std_errors**2 + v_minus.std_errors**2)
    return VelocityFieldEstimate(
        bin_centers=v_plus.bin_centers,
        values=values,
        std_errors=errs,
        counts=np.minimum(v_plus.counts, v_minus.counts),
        epsilon=v_plus.epsilon,
    )


def velocity_gap(v_plus: VelocityFieldEstimate, v_minus: VelocityFieldEstimate) -> dict:
    """The witness row of the first bin of (v_plus, v_minus): epsilon, both
    velocities, their gap and its standard error."""
    return {
        "epsilon": float(v_plus.epsilon),
        "v_plus": float(v_plus.values[0]),
        "v_minus": float(v_minus.values[0]),
        "gap": float(abs(v_minus.values[0] - v_plus.values[0])),
        "gap_err": float(np.hypot(v_plus.std_errors[0], v_minus.std_errors[0])),
    }


class MomentumResolutionResult(NamedTuple):
    v_plus: float
    v_plus_err: float
    v_minus: float
    v_minus_err: float
    p_over_m: float


def momentum_resolution_check(
    ensemble: TrajectoryEnsemble, epsilon: float, p_center: float
) -> MomentumResolutionResult:
    """At time increments well below tau_p both directional velocities
    collapse to the instantaneous p/m of the momentum bin p_center +- 0.05.

    The windows of each anchor whose momentum is in the bin are gathered
    one block of 2^12 trajectories at a time, in trajectory order, then
    anchor order, as one 2-D mask over all trajectories would pick them.
    """
    if ensemble.p is None:
        raise ValidationError("momentum resolution check needs an underdamped ensemble")
    tau_p = ensemble.config.tau_p
    if epsilon > tau_p / 50.0:
        raise RegimeError(
            f"epsilon={epsilon:.3g} exceeds tau_p/50={tau_p / 50.0:.3g}; at this "
            "resolution only coarse-grained velocities are defined"
        )
    k = _epsilon_steps(ensemble.dt_store, ensemble.n_times, ensemble.config.dt, epsilon)
    x, p = ensemble.x[:, ::k, 0], ensemble.p[:, ::k, 0]
    # per block, at most 25 bytes per trajectory and lattice time: the
    # displacements (or the momenta's distances from p_center), the bin mask
    # and its indices; when every momentum is in the bin, 24 bytes per
    # anchor: the two windows picked and np.std's deviations from their mean
    check_memory(24 * x.size + 25 * min(x.shape[0], _BLOCK) * x.shape[1], "the momentum check's working set")
    forward, backward = [], []
    for start in range(0, x.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        # anchors are the inner lattice times: window j + 1 leaves anchor j
        # and window j arrives there
        dist = p[rows, 1:-1] - p_center
        in_bin = np.abs(dist, out=dist) <= 0.05
        del dist
        disp = np.diff(x[rows], axis=1)
        disp /= epsilon
        # a 2-D mask selects in C order: trajectory-major, then anchor
        forward.append(disp[:, 1:][in_bin])
        backward.append(disp[:, :-1][in_bin])
        del disp
    vf, vb = np.concatenate(forward), np.concatenate(backward)
    nf = vf.size
    if nf < DEFAULT_MIN_BIN_COUNT:
        raise ValidationError(f"only {nf} samples in the momentum bin")
    return MomentumResolutionResult(
        v_plus=float(vf.mean()),
        v_plus_err=float(vf.std(ddof=1) / np.sqrt(nf)),
        v_minus=float(vb.mean()),
        v_minus_err=float(vb.std(ddof=1) / np.sqrt(nf)),
        p_over_m=float(p_center / ensemble.config.mass),
    )


def _sample_blocks(samples: np.ndarray):
    """The samples as 1-D float64 blocks of at most _KDE_BLOCK, in memory
    order. An array that one stride walks, such as an ensemble's
    (trajectory, time) view of one particle, is read in place; a cast, or a
    layout no single stride walks, is copied a block at a time into the
    iterator's buffer, so a block is valid only until the next is drawn."""
    return np.nditer(
        samples,
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_dtypes=[np.float64],
        order="K",
        buffersize=_KDE_BLOCK,
    )


def _rank_bins(block: np.ndarray, lo: float, scale: float, work: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Histogram bin of each sample v of ``block``: floor((v/2 - lo/2) scale).
    Every step rounds monotonically, so a smaller sample never lands in a
    higher bin and each bin holds a range of the sorted samples. Halving
    first keeps v - lo finite over any finite range."""
    w, b = work[: block.size], bins[: block.size]
    np.multiply(block, 0.5, out=w)
    w -= 0.5 * lo
    w *= scale
    np.copyto(b, w, casting="unsafe")
    return b


def _order_statistics(samples, ranks: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """The samples at 0-based ``ranks`` of their ascending order, exactly,
    for finite samples of min ``lo`` and max hi, with ``scale`` =
    _RANK_BINS / (hi/2 - lo/2) finite.

    One pass bins the samples by _rank_bins into _RANK_BINS + 1 bins over
    [lo, hi]; a second gathers the samples of the bins that hold the ranks
    and partitions them. The gather is a few hundred samples per rank for a
    smooth density, and at most all of them when most samples share one bin
    (a far outlier), which is the copy np.percentile makes.
    """
    # one block for both buffers: glibc's mmap threshold follows the largest
    # block freed, so once this one is, the density estimate's block-sized
    # temporaries come from its heap instead of each mapping fresh pages
    scratch = np.empty((2, min(samples.size, _KDE_BLOCK)))
    work, bins = scratch[0], scratch[1].view(np.intp)
    counts = np.zeros(_RANK_BINS + 1, dtype=np.intp)
    for block in _sample_blocks(samples):
        counts += np.bincount(_rank_bins(block, lo, scale, work, bins), minlength=_RANK_BINS + 1)
    held = np.searchsorted(np.cumsum(counts), ranks, side="right")
    wanted = np.zeros(_RANK_BINS + 1, dtype=bool)
    wanted[held] = True
    # the gathered samples stand in rank order behind those of the bins left out
    skipped = np.cumsum(np.where(wanted, 0, counts))
    picked = np.concatenate(
        [block[wanted[_rank_bins(block, lo, scale, work, bins)]] for block in _sample_blocks(samples)]
    )
    at = ranks - skipped[held]
    return np.partition(picked, at)[at]


def _percentiles(samples, q: list, lo: float, hi: float) -> np.ndarray:
    """``np.percentile(samples, q)`` with numpy's linear method, bit for bit,
    from exact order statistics instead of a partitioned copy of the
    samples; ``lo`` and ``hi`` are their min and max. Samples that are nan
    or infinite, or a range too narrow to bin, go to np.percentile itself."""
    # bins per unit of v/2, for _rank_bins over [lo, hi]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = _RANK_BINS / (0.5 * hi - 0.5 * lo)
    if not (np.isfinite(lo) and np.isfinite(hi) and (lo == hi or np.isfinite(scale))):
        return np.percentile(samples, q)
    n = samples.size
    # numpy's quantile steps: the virtual indexes, their gamma and the lerp
    virtual = (n - 1) * np.true_divide(q, 100)
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    gamma = virtual - prev
    ranks = np.concatenate([prev, nxt]) % n
    if lo == hi:
        a, b = np.full((2, len(q)), lo)
    else:
        a, b = _order_statistics(samples, ranks, lo, scale).reshape(2, -1)
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def _silverman(samples) -> tuple:
    """Silverman's bandwidth of the samples, and their min and max."""
    n = samples.size
    total, lo, hi = 0.0, np.inf, -np.inf
    for block in _sample_blocks(samples):
        total += np.add.reduce(block)
        lo, hi = np.minimum(lo, block.min()), np.maximum(hi, block.max())
    # np.std: the mean, then the mean of the squared deviations from it
    mean = total / n
    work = np.empty(min(n, _KDE_BLOCK))
    squares = 0.0
    for block in _sample_blocks(samples):
        w = work[: block.size]
        np.subtract(block, mean, out=w)
        np.square(w, out=w)
        squares += np.add.reduce(w)
    std = np.sqrt(squares / n)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        # a nan or infinite sample makes std nan, which min() below returns
        # whatever the quartiles are
        return 0.9 * std * n ** (-0.2), lo, hi
    q75, q25 = _percentiles(samples, [75, 25], lo, hi)
    a = min(std, (q75 - q25) / 1.34)
    return 0.9 * a * n ** (-0.2), lo, hi


def _check_samples(samples) -> np.ndarray:
    s = np.asarray(samples)
    if s.size == 0:
        raise ValidationError("the density estimate needs at least one sample")
    return s


def silverman_bandwidth(samples) -> float:
    """Silverman's rule 0.9 min(std, IQR / 1.34) n^(-1/5) in double precision.

    The samples, an array of any shape, are read in place, in memory order
    and in blocks of at most 2^16 (``_sample_blocks``); neither a ravel nor
    np.std's deviations nor np.percentile's copy is made. The quartiles
    are exact order statistics, ``np.percentile(.., [75, 25])`` of all the
    samples bit for bit. std is np.std's two-pass value up to rounding: each
    block is summed as np.std sums, and the block sums are added in turn, so
    up to one block it is np.std of the memory-order ravel bit for bit.
    """
    return _silverman(_check_samples(samples))[0]


def log_density_gradient(samples, points: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """d/dx log of a Gaussian-kernel density estimate, at the given points.

    The samples are an array of any shape, read in place in memory order,
    in blocks of 2^16: a time-major ensemble's (trajectory, time) view and
    one particle's view of a multi-particle ensemble are never copied. The
    bandwidth h defaults to Silverman's rule. The samples are
    binned linearly (Wand 1994) onto a uniform grid of spacing delta = h/256
    that spans [max(min s, min p - 40h), min(max s, max p + 40h)], block by
    block; each point then sums the kernel over the nodes within 40h of it
    (Silverman 1982, AS 176). A sample farther than 40h from a point has
    kernel weight exp(-800), which is 0.0 in double precision, so both cuts
    are exact. Linear binning keeps each sample's mass and mean; it moves
    the weight of a sample z bandwidths from a point by a relative amount of
    at most (delta/h)^2 |z^2 - 1| / 8, about 1.9e-6 |z^2 - 1|. The grid holds
    at most 2^22 nodes: a wider span widens delta, and the bound grows with
    (delta/h)^2. Points with no sample within 40h give nan; a nan sample,
    and a bandwidth that is not positive (identical samples), give nan at
    every point.
    """
    s = _check_samples(samples)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if bandwidth is None:
        h, s_min, s_max = _silverman(s)
    else:
        h, s_min, s_max = bandwidth, s.min(), s.max()
    if not h > 0 or np.isnan(s_min):
        return np.full(pts.size, np.nan)
    reach = _KDE_REACH * h
    lo = max(float(s_min), float(pts.min()) - reach)
    hi = min(float(s_max), float(pts.max()) + reach)
    span = max(hi - lo, 0.0)
    delta = max(h / _KDE_NODES_PER_BANDWIDTH, span / (_KDE_MAX_NODES - 2))
    n_nodes = int(span / delta) + 2
    # node j sits at lo + j delta; a sample at lo + (j + f) delta puts
    # weight 1 - f on node j and f on node j + 1
    counts = np.zeros(n_nodes)
    for block in _sample_blocks(s):
        t = (block[(block >= lo) & (block <= hi)] - lo) / delta
        j = t.astype(np.intp)
        frac = t - j
        counts += np.bincount(j, 1.0 - frac, n_nodes)
        counts[1:] += np.bincount(j, frac, n_nodes - 1)
    # a point beyond 40h + 2 delta of the grid [lo, lo + span] is moved there: its window
    # stays empty (or, if 40h is below lo's rounding, sample-free) and cannot overflow
    near = np.clip(pts, lo - reach - 2 * delta, lo + span + reach + 2 * delta)
    first = np.clip(np.ceil((near - reach - lo) / delta), 0, n_nodes).astype(np.intp)
    stop = np.clip(np.floor((near + reach - lo) / delta) + 1, 0, n_nodes).astype(np.intp)
    num = np.empty(pts.size)
    den = np.empty(pts.size)
    for i, x in enumerate(near):
        d = lo + np.arange(first[i], stop[i]) * delta - x
        w = counts[first[i] : stop[i]] * np.exp(-0.5 * (d / h) ** 2)
        # a BLAS dot would split its sum by thread count; add.reduce does not
        num[i] = np.add.reduce(w * d)
        den[i] = w.sum()
    with np.errstate(invalid="ignore"):
        return num / (h * h * den)


def fokker_planck_residual(ensemble: TrajectoryEnsemble) -> float:
    """Normalized residual of the overdamped transport equation on smoothed
    histogram densities: 81 bins over the 0.5-99.5 percentile range of x,
    each time's histogram smoothed by a Gaussian of standard deviation two
    bins.

    Requires a single-particle overdamped ensemble with at least 1e5
    trajectories; the residual dP/dt + d_x(f P) - D d2_x P is evaluated on
    the interior of the grid and normalized by the magnitude of the flux
    terms.
    """
    from scipy.ndimage import gaussian_filter1d

    if ensemble.config.n_particles != 1:
        raise ValidationError("residual check is implemented for one particle")
    if ensemble.x.shape[0] < 10**5:
        raise ValidationError(
            f"insufficient samples: {ensemble.x.shape[0]} trajectories, need 1e5"
        )
    x = ensemble.x[:, :, 0]
    lo, hi = _percentiles(x, [0.5, 99.5], x.min(), x.max())
    n_bins = 81
    edges = np.linspace(lo, hi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dx = centers[1] - centers[0]
    density = np.empty((ensemble.n_times, n_bins))
    for t in range(ensemble.n_times):
        hist, _ = np.histogram(x[:, t], bins=edges, density=True)
        density[t] = gaussian_filter1d(hist, 2.0)
    dpdt = np.gradient(density, ensemble.dt_store, axis=0)
    drift = ensemble.config.potential.force(centers[:, None])[:, 0] / ensemble.config.gamma
    flux = drift[None, :] * density
    dflux = np.gradient(flux, dx, axis=1)
    diff_coeff = float(ensemble.config.diffusion_coefficients()[0])
    d2p = np.gradient(np.gradient(density, dx, axis=1), dx, axis=1)
    residual = dpdt + dflux - diff_coeff * d2p
    interior = (slice(1, -1), slice(4, -4))
    num = np.sqrt(np.mean(residual[interior] ** 2))
    den = np.sqrt(np.mean((np.abs(dflux) + np.abs(diff_coeff * d2p))[interior] ** 2))
    return float(num / max(den, 1e-300))
