"""Acceptance gate: every release-blocking criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same battery backs the CLI ``acceptance`` command.
"""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from bildsim import acceptance, brownian


@pytest.mark.parametrize("number", range(1, 13))
def test_criterion(acceptance_results, number):
    res = acceptance_results[number]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number}: {res.name} "
          f"({res.seconds:.1f}s) - {res.detail}")
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


@pytest.mark.parametrize("numbers,builds", [([9, 10], 1), ([10], 1), ([1, 11], 0), (None, 1)])
def test_shared_ensemble_lives_only_through_criteria_9_and_10(monkeypatch, numbers, builds):
    # the seed-7878 bench shared by criteria 9 and 10 is streamed, never
    # integrated into a stored ensemble, once before the first of them; what
    # it leaves is dropped after the last. The spy streams a shorter run of it.
    streams, samples = [], []

    def stream(config, underdamped):
        assert config.seed == 7878 and not underdamped
        streams.append(config)
        return brownian.stored_states(dataclasses.replace(config, t_end=8e-3), underdamped)

    def integrate(config):
        raise AssertionError("the bench is integrated into a stored ensemble")

    def stub(number):
        def criterion(*bench):
            if number < 9:
                assert not streams
            elif number in (9, 10):
                (_, sample, _), = bench
                samples.append(weakref.ref(sample))
            else:
                assert all(ref() is None for ref in samples)
            return acceptance._result(number, "stub", True, "")

        return criterion

    monkeypatch.setattr(acceptance, "stored_states", stream)
    monkeypatch.setattr(acceptance, "integrate_overdamped", integrate)
    monkeypatch.setattr(acceptance, "_CRITERIA", [stub(n) for n in range(1, 13)])
    results = acceptance.run_all(numbers)
    assert [r.number for r in results] == sorted(numbers or range(1, 13))
    assert len(streams) == builds
    assert all(ref() is None for ref in samples)


def test_criterion_9_sample_is_every_other_lattice_position(monkeypatch):
    # the spy streams distinct positions: the bench's 61 stored states of
    # 120k trajectories, numbered in time-major order
    stored = []

    def stream(config, underdamped):
        for j in range(61):
            stored.append(np.arange(j * 120_000, (j + 1) * 120_000, dtype=float)[:, None])
            yield j * 2e-3, stored[-1], None

    monkeypatch.setattr(acceptance, "stored_states", stream)
    _, sample, _ = acceptance._stream_bench()
    # criterion 9's (trajectory i, lattice time j) positions at epsilon = 2 stored steps
    lattice = np.stack([x[:, 0] for x in stored[::2]], axis=1)
    assert sample.shape == (31, 60_000) and sample.flags.c_contiguous
    np.testing.assert_array_equal(np.sort(sample, axis=None), np.sort(lattice.flat[::2]))


def test_criterion_9_reads_the_bench_sample_itself(monkeypatch):
    # the density estimate gets the array the bench filled, not a copy, a
    # view or a tuple of its rows; the spy stops criterion 9 there
    seen = []

    class Seen(Exception):
        pass

    def stream(config, underdamped):
        return brownian.stored_states(dataclasses.replace(config, t_end=8e-3), underdamped)

    def log_density_gradient(samples, points, bandwidth=None):
        seen.append(samples)
        raise Seen

    monkeypatch.setattr(acceptance, "stored_states", stream)
    monkeypatch.setattr(acceptance, "log_density_gradient", log_density_gradient)
    bench = acceptance._stream_bench()
    sample = bench[1]
    with pytest.raises(Seen):
        acceptance.criterion_9(bench)
    assert len(seen) == 1 and seen[0] is sample
    assert isinstance(sample, np.ndarray) and sample.flags.owndata and sample.shape == (31, 60_000)


def test_criterion_11_gathers_one_block_at_a_time(monkeypatch):
    # all 50k trajectories at once took about 28 MiB of temporaries
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            result = brownian.momentum_resolution_check(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(acceptance, "momentum_resolution_check", traced)
    assert acceptance.criterion_11().passed
    assert len(peaks) == 1 and peaks[0] < 2 * 2**20, peaks


def test_criterion_4_holds_one_block_of_samples():
    # all 10^5 samples of each measure at once, and vec.T[idx], took about 20 MB
    tracemalloc.start()
    try:
        res = acceptance.criterion_4()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 8 * 2**20, peak
