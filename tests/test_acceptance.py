"""Acceptance gate: every release-blocking criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same battery backs the CLI ``acceptance`` command.
"""

import dataclasses
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from bildsim import acceptance, brownian, cli, fields
from bildsim.errors import NumericalError


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


def _pair_cases(rng):
    """Criterion 3's kind of case, (v, w, m, seed), two at d = 2 and two at d = 3."""
    cases = []
    for d, seed in ((2, 1), (2, 2), (3, 3), (3, 4)):
        v, w = (fields.QuadraticVariable(acceptance._random_hermitian(rng, d)) for _ in range(2))
        cases.append((v, w, fields.FieldMeasure(acceptance._random_psd(rng, d)), seed))
    return cases


@pytest.mark.parametrize("cores", [1, 2])
def test_each_is_bit_for_bit_the_serial_loop(monkeypatch, cores):
    # every case is made afresh, so no cached property is shared with the serial run
    def estimate(case):
        threads.add(threading.get_ident())
        return fields.mc_pair_correlation(*case[:3], n=2 * 10**5, seed=case[3])

    threads = set()
    serial = [estimate(case) for case in _pair_cases(np.random.default_rng(303))]
    threads.clear()
    monkeypatch.setattr(acceptance, "_cores", lambda: cores)
    got = acceptance._each(estimate, _pair_cases(np.random.default_rng(303)))
    assert got == serial and [e.seed for e in got] == [1, 2, 3, 4]
    assert len(threads) == cores


def test_each_keeps_item_order_when_a_later_item_finishes_first(monkeypatch):
    later_done = threading.Event()

    def task(i):
        if i == 0:
            assert later_done.wait(timeout=30)
        else:
            later_done.set()
        return i

    monkeypatch.setattr(acceptance, "_cores", lambda: 2)
    assert acceptance._each(task, range(2)) == [0, 1]


def test_each_starts_no_thread_on_one_core(monkeypatch):
    seen = []
    monkeypatch.setattr(acceptance, "_cores", lambda: 1)
    baseline = threading.active_count()
    acceptance._each(lambda i: seen.append((threading.current_thread(), threading.active_count())), range(3))
    assert seen == [(threading.current_thread(), baseline)] * 3


def test_each_raises_the_lowest_index_failure_after_every_thread_joins(monkeypatch, capsys):
    # item 1 fails first; item 0, in the other thread, fails after it. No
    # item is handed out after a failure, and no thread prints a traceback.
    first_failed = threading.Event()
    ran = []

    def task(i):
        ran.append(i)
        if i == 1:
            first_failed.set()
        else:
            assert first_failed.wait(timeout=30)
        raise NumericalError(f"item {i}")

    monkeypatch.setattr(acceptance, "_cores", lambda: 2)
    baseline = threading.active_count()
    with pytest.raises(NumericalError, match="item 0"):
        acceptance._each(task, range(6))
    assert sorted(ran) == [0, 1]
    assert threading.active_count() == baseline
    assert capsys.readouterr() == ("", "")


def test_each_runs_every_item_once_with_more_workers_than_cores(monkeypatch):
    # more threads than cores and a switch interval of 1 us, so that a
    # shared task handed out twice, or a result stored twice, would show
    ran = []
    monkeypatch.setattr(acceptance, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = acceptance._each(lambda i: ran.append(i) or i * i, range(5000))
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(5000)]
    assert sorted(ran) == list(range(5000))


def test_failed_estimate_exits_3_with_one_json_line(tmp_path, monkeypatch, capsys):
    # criterion 2's estimate of seed 7003 fails in whichever thread draws it
    def mc_average(variable, measure, n, seed):
        if seed == 7003:
            raise NumericalError("estimate 3 failed")
        return real(variable, measure, n, seed)

    real = fields.mc_average
    monkeypatch.setattr(fields, "mc_average", mc_average)
    monkeypatch.setattr(acceptance, "_cores", lambda: 2)
    config = tmp_path / "acceptance.json"
    config.write_text(json.dumps({"command": "acceptance", "params": {"criteria": [2]}}))
    baseline = threading.active_count()
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "gate")]) == 3
    assert threading.active_count() == baseline
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0]) == {"error": "estimate 3 failed", "exit_code": 3}
