"""Acceptance suite: every shipped criterion at its stated tolerance.

The checks are computed once per session (they share solved grids and large
Monte Carlo runs); each test prints its pass/fail line and asserts it.
Run `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import pytest

from splitgame.acceptance import (
    GOLDEN_NAMES,
    GOLDEN_RES,
    check_closed_form_family,
    check_envelope_golden_value,
    run_all,
)
from splitgame.hamiltonian import SimplexGrid, analytic_field
from splitgame.hj import solve

SEED = 0


@pytest.fixture(scope="module")
def results():
    out = {r.name: r for r in run_all(seed=SEED, threads=2)}
    print()
    for r in out.values():
        print(r.line())
    return out


def _assert(results, name):
    r = results[name]
    assert r.passed, r.line()


def test_01_envelope_golden_value(results):
    _assert(results, "envelope-golden-value")


def test_02_closed_form_family(results):
    _assert(results, "closed-form-family")


def test_03_martingale_simplex_invariance(results):
    _assert(results, "martingale-simplex-invariance")


def test_04_lipschitz_p_coupling(results):
    _assert(results, "lipschitz-p-coupling")


def test_05_time_lipschitz_8C(results):
    _assert(results, "time-lipschitz-8C")


def test_06_value_convexity_concavity(results):
    _assert(results, "value-convexity-concavity")


def test_07_splitting_lemma_realization(results):
    _assert(results, "splitting-lemma-realization")


def test_08_naive_hji_failure(results):
    _assert(results, "naive-hji-failure")


def test_09_stochastic_representation(results):
    _assert(results, "stochastic-representation")


def test_10_determinism(results):
    _assert(results, "determinism")


def test_detail_holds_no_wall_clock_time():
    # report.json stores each check's detail, so timings there would make two
    # verify runs of one config differ
    pg, qg = SimplexGrid.build(2, GOLDEN_RES), SimplexGrid.build(1, 1)
    solved = {name: (analytic_field(name), solve(analytic_field(name), pg, qg, 1.0, 16))
              for name in GOLDEN_NAMES}
    details = set()
    for seconds in (0.25, 1.5):
        golden = {name: (h, v, seconds) for name, (h, v) in solved.items()}
        details.add((check_envelope_golden_value(golden).detail,
                     check_closed_form_family(golden).detail))
    assert len(details) == 1
