"""Acceptance gate: every release-blocking criterion, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same battery backs the CLI ``acceptance`` command.
"""

import pytest


@pytest.mark.parametrize("number", range(1, 13))
def test_criterion(acceptance_results, number):
    res = acceptance_results[number]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number}: {res.name} "
          f"({res.seconds:.1f}s) - {res.detail}")
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"
