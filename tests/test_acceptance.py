"""Acceptance gate: every release-blocking criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same battery backs the CLI ``acceptance`` command.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from bildsim import acceptance


@pytest.mark.parametrize("number", range(1, 13))
def test_criterion(acceptance_results, number):
    res = acceptance_results[number]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number}: {res.name} "
          f"({res.seconds:.1f}s) - {res.detail}")
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


class _Ensemble:
    """Stands in for the shared ensemble; a weak reference tells whether it lives."""


@pytest.mark.parametrize("numbers,builds", [([9, 10], 1), ([10], 1), ([1, 11], 0), (None, 1)])
def test_shared_ensemble_lives_only_through_criteria_9_and_10(monkeypatch, numbers, builds):
    built = []

    def integrate(config):
        assert config.seed == 7878
        ens = _Ensemble()
        built.append(weakref.ref(ens))
        return ens

    def stub(number):
        def criterion(*ens):
            if number < 9:
                assert not built
            elif number in (9, 10):
                assert ens == (built[-1](),)
            else:
                assert all(ref() is None for ref in built)
            return acceptance._result(number, "stub", True, "")

        return criterion

    monkeypatch.setattr(acceptance, "integrate_overdamped", integrate)
    monkeypatch.setattr(acceptance, "_CRITERIA", [stub(n) for n in range(1, 13)])
    results = acceptance.run_all(numbers)
    assert [r.number for r in results] == sorted(numbers or range(1, 13))
    assert len(built) == builds
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize("rows,times", [(120_000, 31), (7, 5), (8, 1)])
def test_checkerboard_is_every_other_lattice_position_in_place(rows, times):
    # criterion 9's lattice, (trajectory, lattice time) of time-major memory;
    # every position distinct, so the multiset is the set of values
    memory = np.arange(rows * times, dtype=np.int32).reshape(times, rows)
    lattice = memory.T
    parts = acceptance._checkerboard(lattice)
    assert all(np.shares_memory(part, memory) for part in parts)
    got = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(got, np.sort(lattice.flat[::2]))
    if rows % 2 == 0:
        assert np.size(parts) == got.size


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
