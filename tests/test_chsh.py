import tracemalloc

import numpy as np
import pytest

from bildsim import chsh, cli, linalg
from bildsim.errors import DimensionMismatchError, ValidationError

TSIRELSON = 2.0 * np.sqrt(2.0)


class TestObservableFromAngle:
    def test_zero_is_sigma_z(self):
        np.testing.assert_allclose(chsh.observable_from_angle(0.0), linalg.SIGMA_Z)

    def test_half_pi_is_sigma_x(self):
        np.testing.assert_allclose(
            chsh.observable_from_angle(np.pi / 2), linalg.SIGMA_X, atol=1e-15
        )

    @pytest.mark.parametrize("theta", [np.pi / 4, 0.3, -1.2, 2.9])
    def test_eigenvalues_unit(self, theta):
        w = np.linalg.eigvalsh(chsh.observable_from_angle(theta))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)


class TestSingletState:
    def test_trace_one(self):
        assert np.trace(chsh.singlet_state()).real == pytest.approx(1.0)

    def test_purity_one(self):
        rho = chsh.singlet_state()
        assert np.trace(rho @ rho).real == pytest.approx(1.0)

    def test_correlation_is_minus_cosine(self):
        rho = chsh.singlet_state()
        rng = np.random.default_rng(0)
        for _ in range(10):
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            # independent oracle: direct 4x4 expectation in the singlet vector
            psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
            ab = np.kron(
                chsh.observable_from_angle(ta), chsh.observable_from_angle(tb)
            )
            oracle = (psi.conj() @ ab @ psi).real
            val = chsh.quantum_correlation(rho, ta, tb)
            assert val == pytest.approx(oracle)
            assert val == pytest.approx(-np.cos(ta - tb))


class TestQuantumCorrelation:
    def test_aligned_settings(self):
        assert chsh.quantum_correlation(chsh.singlet_state(), 0.7, 0.7) == pytest.approx(-1.0)

    def test_orthogonal_settings(self):
        assert chsh.quantum_correlation(
            chsh.singlet_state(), 0.0, np.pi / 2
        ) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert chsh.quantum_correlation(np.eye(4) / 4, 0.3, 1.1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_arrays_broadcast_against_singlet_vector(self):
        rng = np.random.default_rng(13)
        ta = rng.uniform(-np.pi, np.pi, size=(5, 1))
        tb = rng.uniform(-np.pi, np.pi, size=(1, 7))
        vals = chsh.quantum_correlation(chsh.singlet_state(), ta, tb)
        assert vals.shape == (5, 7)
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        for i in range(5):
            for j in range(7):
                ab = np.kron(
                    chsh.observable_from_angle(ta[i, 0]), chsh.observable_from_angle(tb[0, j])
                )
                assert vals[i, j] == pytest.approx((psi.conj() @ ab @ psi).real, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["theta_a", "theta_b"])
    def test_non_finite_angle_rejected(self, name, bad):
        # under the suite's RuntimeWarning error filter: rejected before np.cos sees it
        angles = {"theta_a": 0.3, "theta_b": 1.1, name: np.array([0.0, bad])}
        with pytest.raises(ValidationError, match=f"angle {name} is not finite"):
            chsh.quantum_correlation(chsh.singlet_state(), **angles)

    def test_sweep_validates_rho_a_fixed_number_of_times(self, tmp_path, monkeypatch):
        calls = []
        check_density = linalg.check_density
        monkeypatch.setattr(linalg, "check_density", lambda m: calls.append(1) or check_density(m))
        counts = []
        for points in (11, 2001):
            calls.clear()
            params = {"angles": list(chsh.OPTIMAL_ANGLES), "sweep_points": points}
            config = {"command": "chsh-quantum", "params": params}
            cli.run_experiment(config, str(tmp_path / str(points)))
            counts.append(len(calls))
        assert counts[0] == counts[1]


def random_density(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestChshValue:
    def test_optimal_angles(self):
        s = chsh.chsh_value(chsh.singlet_state(), chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))
        assert abs(s) == pytest.approx(TSIRELSON, abs=1e-10)

    def test_product_state_classical(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rng = np.random.default_rng(1)
        for _ in range(20):
            angles = chsh.ChshAngles(*rng.uniform(-np.pi, np.pi, size=4))
            assert abs(chsh.chsh_value(rho, angles)) <= 2.0 + 1e-9

    def test_maximally_mixed_vanishes(self):
        angles = chsh.ChshAngles(*chsh.OPTIMAL_ANGLES)
        assert chsh.chsh_value(np.eye(4) / 4, angles) == pytest.approx(0.0, abs=1e-12)

    def test_grid_maximum_tsirelson(self):
        grid_max, best = chsh.chsh_grid_max(chsh.singlet_state())
        assert 2.82 <= grid_max <= TSIRELSON + 1e-9
        # the attaining settings are optimal up to symmetry: locally both
        # setting pairs are orthogonal and offset by pi/4 from the other lab
        audit = chsh.compatibility_audit(best)
        assert not audit["degenerate"]

    def test_grid_maximum_within_horodecki_bound(self):
        # Horodecki, Phys. Lett. A 200, 340 (1995): over settings in the z-x
        # plane max |S| = 2 ||sv(T)||_2 with T_ij = Tr(rho s_i (x) s_j); the
        # grid misses each optimal angle by at most pi/60
        rng = np.random.default_rng(14)
        paulis = (linalg.SIGMA_Z, linalg.SIGMA_X)
        for rho in [chsh.singlet_state()] + [random_density(rng) for _ in range(20)]:
            t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in paulis] for si in paulis])
            bound = 2.0 * np.linalg.norm(np.linalg.svd(t, compute_uv=False))
            grid_max, _ = chsh.chsh_grid_max(rho)
            assert np.cos(np.pi / 60) ** 2 * bound <= grid_max <= bound + 1e-12

    def test_grid_maximum_matches_one_broadcast(self):
        # the separable maximum against S over the whole 61^4 grid at once: equal maximum
        # and, among equal values, the same first settings in grid order; for I/4 every
        # S is 0, so every setting ties; at the third random state's first maximum,
        # the largest -S is one ulp above the largest S
        rng = np.random.default_rng(15)
        t = np.linspace(-np.pi, np.pi, 61)
        states = [chsh.singlet_state(), np.eye(4, dtype=complex) / 4]
        for rho in states + [random_density(rng) for _ in range(3)]:
            grid = chsh.ChshAngles(t[:, None, None, None], t[:, None, None], t[:, None], t)
            s = np.abs(chsh.chsh_value(rho, grid))
            i1, i2, j1, j2 = np.unravel_index(np.argmax(s), s.shape)
            grid_max, best = chsh.chsh_grid_max(rho)
            assert grid_max == s[i1, i2, j1, j2]
            assert best.as_tuple() == (t[i1], t[i2], t[j1], t[j2])

    def test_grid_maximum_peak_is_two_tables(self):
        # the 61^3 tables p and q over (a1, a2, b) live together: 3.6 MB,
        # where S over the whole grid is 110 MB
        chsh.chsh_grid_max(chsh.singlet_state())
        tracemalloc.start()
        try:
            chsh.chsh_grid_max(chsh.singlet_state())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_sweep_peak_is_within_its_estimate(self):
        # the chsh-quantum sweep checks 9 float64 arrays of its length against memory
        n = 2 * 10**5
        tracemalloc.start()
        try:
            thetas = np.linspace(0.0, np.pi, n)
            chsh.chsh_value(chsh.singlet_state(), chsh.ChshAngles(0.0, np.pi / 2, thetas, -thetas))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 8 * n

    def test_state_validated_once(self, monkeypatch):
        calls = []
        check_density = linalg.check_density
        monkeypatch.setattr(linalg, "check_density", lambda rho: calls.append(1) or check_density(rho))
        chsh.chsh_value(chsh.singlet_state(), chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))
        assert len(calls) == 1
        chsh.chsh_grid_max(chsh.singlet_state())
        assert len(calls) == 2

    def test_one_qubit_state_fails_the_dimension_check(self):
        with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 4"):
            chsh.chsh_value(np.eye(2) / 2, chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))

    def test_twice_the_singlet_fails_the_trace_check(self):
        # each |E| would be up to 2; the trace check alone stands in the way
        with pytest.raises(ValidationError, match="trace is"):
            chsh.chsh_value(2 * chsh.singlet_state(), chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))

    def test_state_at_the_eigenvalue_floor_gives_clipped_correlations(self):
        # the singlet raised by 3 delta and its complement lowered by delta,
        # just above the floor: trace 1, and E(a, a) = -1 - 4 delta before the clip
        delta = -0.9 * linalg.EIGENVALUE_FLOOR
        singlet = chsh.singlet_state()
        rho = (1 + 3 * delta) * singlet - delta * (np.eye(4) - singlet)
        linalg.check_density(rho)
        t = np.linspace(-np.pi, np.pi, 61)
        e = chsh.quantum_correlation(rho, t[:, None], t)
        assert np.all(np.abs(e) <= 1.0)
        assert np.all(np.diag(e) == -1.0)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValidationError, match="angle b1 is not finite"):
            chsh.ChshAngles(0.0, 1.0, np.nan, 2.0)

    def test_degeneracy_guard(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b1, b2 = rng.uniform(-np.pi, np.pi, size=3)
            shift = rng.choice([0.0, np.pi])
            angles = chsh.ChshAngles(a, a + shift, b1, b2)
            assert abs(chsh.chsh_value(chsh.singlet_state(), angles)) <= 2.0 + 1e-9


class TestCompatibilityAudit:
    def test_optimal_angles(self):
        audit = chsh.compatibility_audit(chsh.ChshAngles(*chsh.OPTIMAL_ANGLES))
        assert max(audit["cross"].values()) <= 1e-12
        assert min(audit["local"].values()) > 0.1
        assert not audit["degenerate"]

    def test_equal_local_settings_flagged(self):
        audit = chsh.compatibility_audit(chsh.ChshAngles(0.3, 0.3, 0.0, np.pi / 2))
        assert audit["local"]["A1A2"] <= 1e-12
        assert audit["degenerate"]

    def test_antiparallel_settings_commute(self):
        audit = chsh.compatibility_audit(
            chsh.ChshAngles(0.0, np.pi / 2, 0.4, 0.4 + np.pi)
        )
        assert audit["local"]["B1B2"] <= 1e-12

    def test_cross_commutators_vanish_for_any_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            angles = chsh.ChshAngles(*rng.uniform(-np.pi, np.pi, size=4))
            assert max(chsh.compatibility_audit(angles)["cross"].values()) <= 1e-12


def marginal_means(stream):
    """The mean outcome of each column A1, A2, B1, B2 from the stream's counts."""
    plus = [sum(int(c) for code, c in enumerate(stream.counts) if code >> j & 1) for j in range(4)]
    return np.array([(2 * p - stream.n) / stream.n for p in plus])


class TestHvSample:
    def test_constant_strategy(self):
        stream = chsh.hv_sample(chsh.HvStrategy(kind="constant"), 100, 1)
        # every record +1 in all four columns: code 0b1111
        np.testing.assert_array_equal(stream.counts, [0] * 15 + [100])
        stream = chsh.hv_sample(chsh.HvStrategy(kind="constant", constants=(1, -1, -1, 1)), 100, 1)
        np.testing.assert_array_equal(marginal_means(stream), [1, -1, -1, 1])

    def test_outcomes_are_signs(self):
        # each record falls in exactly one of the 16 sign patterns
        stream = chsh.hv_sample(chsh.HvStrategy(), 10**4, 2)
        assert stream.counts.shape == (16,) and stream.counts.dtype == np.int64
        assert np.all(stream.counts >= 0) and stream.n == 10**4

    def test_marginals_near_zero(self):
        n = 10**5
        stream = chsh.hv_sample(chsh.HvStrategy(), n, 3)
        assert np.max(np.abs(marginal_means(stream))) < 5.0 / np.sqrt(n)

    def test_aligned_settings_correlate_fully(self):
        n = 10**4
        angles = chsh.ChshAngles(0.7, 1.9, 0.7, -0.4)
        stream = chsh.hv_sample(chsh.HvStrategy(angles=angles), n, 4)
        assert chsh.empirical_correlation(stream, "A1B1") == pytest.approx(1.0)

    def test_reproducible(self):
        a = chsh.hv_sample(chsh.HvStrategy(), 5000, 5)
        b = chsh.hv_sample(chsh.HvStrategy(), 5000, 5)
        np.testing.assert_array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n", [1000, chsh._BLOCK, 3 * chsh._BLOCK + 17])
    def test_blocks_match_one_shot_draw(self, n):
        angles = chsh.ChshAngles(0.3, -1.2, 2.0, np.pi / 2)
        lam = np.random.Generator(np.random.Philox(np.uint64(12))).standard_normal((n, 3))
        directions = np.array([[np.sin(t), 0.0, np.cos(t)] for t in angles.as_tuple()]).T
        codes = ((lam @ directions >= 0.0) * np.array([1, 2, 4, 8])).sum(axis=1)
        got = chsh.hv_sample(chsh.HvStrategy(angles=angles), n, 12).counts
        assert got.tobytes() == np.bincount(codes, minlength=16).astype(np.int64).tobytes()

    def test_peak_within_memory_estimate(self, monkeypatch):
        estimates = []
        monkeypatch.setattr(chsh, "check_memory", lambda nbytes, what: estimates.append(nbytes))
        peaks = []
        for n in (chsh._BLOCK + 17, 16 * chsh._BLOCK + 17):
            tracemalloc.start()
            try:
                chsh.hv_sample(chsh.HvStrategy(), n, 13)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block of lambda and its projections, and nothing of n records
        assert 56 * chsh._BLOCK < peaks[0] <= estimates[0]
        assert abs(peaks[1] - peaks[0]) <= 4096

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValidationError):
            chsh.HvStrategy(kind="telepathic")
        with pytest.raises(ValidationError):
            chsh.HvStrategy(kind="constant", constants=(1, 0, 1, 1))


class TestEmpiricalCorrelation:
    def test_constant_strategy_all_pairs_one(self):
        stream = chsh.hv_sample(chsh.HvStrategy(kind="constant"), 50, 6)
        for pair in chsh.PAIR_NAMES:
            assert chsh.empirical_correlation(stream, pair) == 1.0

    def test_unknown_pair_rejected(self):
        stream = chsh.hv_sample(chsh.HvStrategy(kind="constant"), 50, 6)
        with pytest.raises(ValidationError, match="unknown pair 'A1A1'"):
            chsh.empirical_correlation(stream, "A1A1")

    def test_identical_local_settings(self):
        angles = chsh.ChshAngles(0.3, 0.3, 1.0, 2.0)
        stream = chsh.hv_sample(chsh.HvStrategy(angles=angles), 10**4, 7)
        assert chsh.empirical_correlation(stream, "A1A2") == 1.0

    def test_orthogonal_local_settings_analytic(self):
        n = 10**6
        angles = chsh.ChshAngles(0.0, np.pi / 2, 1.0, 2.0)
        stream = chsh.hv_sample(chsh.HvStrategy(angles=angles), n, 8)
        assert chsh.empirical_correlation(stream, "A1A2") == pytest.approx(
            0.0, abs=5.0 / np.sqrt(n)
        )

    @pytest.mark.parametrize(
        "pair", ["A1B1", "A1B2", "A2B1", "A2B2", "A1A2", "B1B2"]
    )
    def test_all_pairs_from_one_stream(self, pair):
        n = 10**5
        stream = chsh.hv_sample(chsh.HvStrategy(), n, 9)
        val = chsh.empirical_correlation(stream, pair)
        assert np.isfinite(val) and -1.0 <= val <= 1.0
        i, j = pair[:2], pair[2:]
        thetas = dict(zip(("A1", "A2", "B1", "B2"), chsh.OPTIMAL_ANGLES))
        expected = chsh.sphere_sign_correlation(thetas[i], thetas[j])
        assert val == pytest.approx(expected, abs=5.0 / np.sqrt(n))


class TestChshFromStream:
    def test_constant_strategy_saturates_bound(self):
        stream = chsh.hv_sample(chsh.HvStrategy(kind="constant"), 100, 10)
        assert chsh.chsh_from_stream(stream) == 2.0

    def test_optimal_angles_respect_classical_bound(self):
        n = 10**6
        stream = chsh.hv_sample(chsh.HvStrategy(), n, 11)
        assert abs(chsh.chsh_from_stream(stream)) <= 2.01

    def test_random_strategies_bounded(self):
        rng = np.random.default_rng(12)
        n = 10**4
        for i in range(30):
            angles = chsh.ChshAngles(*rng.uniform(-np.pi, np.pi, size=4))
            stream = chsh.hv_sample(chsh.HvStrategy(angles=angles), n, 100 + i)
            assert abs(chsh.chsh_from_stream(stream)) <= 2.0 + 5.0 * 4.0 / np.sqrt(n)


class TestDeterministicBound:
    def test_all_plus_assignment(self):
        assert 1 * 1 + 1 * 1 + 1 * 1 - 1 * 1 == 2

    def test_mixed_assignment(self):
        a1, a2, b1, b2 = 1, 1, 1, -1
        assert a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2 == 2

    def test_exhaustive_maximum(self):
        assert chsh.deterministic_bound_enumeration() == 2.0
