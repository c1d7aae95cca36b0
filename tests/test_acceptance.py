"""Acceptance suite: every benchmark criterion at its pinned tolerance.

Each test evaluates one criterion through the shared reproduction context
(heavy simulations run once per session) and prints its pass/fail line.
Run `pytest tests/test_acceptance.py -v -s` for the full table; the
simulation-backed rows take a few minutes at the default resolution.
"""

import numpy as np
import pytest

import colonykit.reproduce as rp
from colonykit import (BranchCurve, BranchPoint, ColonyKitError, Event, Field,
                       NewtonConvergenceError, Termination, Trajectory)


@pytest.fixture(scope="session")
def ctx():
    return rp.ReproductionContext(n=512, progress=lambda msg: print(msg, flush=True))


def _run(fn, ctx):
    result = fn(ctx)
    print(f"[{result.status.upper():4s}] criterion {result.cid:2d} ({result.name}): {result.detail}")
    return result


def test_criterion_01_critical_values(ctx):
    result = _run(rp._crit_critical_values, ctx)
    assert result.passed, result.detail


def test_criterion_02_bifurcation_table(ctx):
    result = _run(rp._crit_bifurcation_table, ctx)
    assert result.passed, result.detail
    assert result.detail == ("sigma0_6=0.496694 sigma0_7=0.490111 sigma0_8=0.434978 "
                             "sigma0_9=0.333723 sigma0_10=0.189499 sigma0_11=0.00541021")


def test_criterion_03_ordering_interleaving(ctx):
    """The substantive ordering content: the measured ascending order is the
    interleaved chain peaking at mode 6, with the first pair corrected."""
    result = _run(rp._crit_ordering, ctx)
    assert result.data["corrected_ordering_holds"], result.detail
    assert result.data["uncontested_pairs_hold"], result.detail
    assert result.passed, result.detail


@pytest.mark.xfail(
    strict=True,
    reason="the published chain misprints its first pair: the same closed form "
    "that reproduces every other published value gives sigma0_1 = 0.035823 > "
    "sigma0_11 = 0.005411, so 'sigma0_1 < sigma0_11' cannot hold",
)
def test_criterion_03_ordering_chain_as_published(ctx):
    result = rp._crit_ordering(ctx)
    assert result.data["stated_chain_holds"]


def test_criterion_04_second_order_corrections(ctx):
    result = _run(rp._crit_sigma2_table, ctx)
    assert result.passed, result.detail
    assert result.detail == ("sigma2_6=-5.45694 sigma2_7=-8.55233 sigma2_8=-13.4555 "
                             "sigma2_9=-21.4103 sigma2_10=-34.1442 sigma2_11=-54.0143")


def test_criterion_05_eta_with_quadrature_oracle(ctx):
    result = _run(rp._crit_eta, ctx)
    assert result.passed, result.detail


def test_criterion_06_pattern_coefficients(ctx):
    result = _run(rp._crit_pattern_coefficients, ctx)
    assert result.passed, result.detail
    assert result.detail == ("a=1.88826 wavenumber=0.942478 d1=-1.78277 d3=-1.78277 "
                             "d2=8.17364 d4=1.7952")


def test_criterion_07_all_branches_backward(ctx):
    result = _run(rp._crit_backward_branches, ctx)
    assert result.passed, result.detail


def test_criterion_08_asymptotic_residual_order(ctx):
    result = _run(rp._crit_residual_order, ctx)
    assert result.passed, result.detail


def test_criterion_09_stable_regime(ctx):
    result = _run(rp._crit_stable_regime, ctx)
    assert result.passed, result.detail


def test_criterion_10_mode_selection_and_transitions(ctx):
    result = _run(rp._crit_mode_selection, ctx)
    assert result.passed, result.detail


def mode6_trajectory(events):
    """Four snapshots of one mode-6 state (|c6| = 0.1, 3 peaks) at n = 64."""
    x = np.linspace(0.0, 20.0, 65)
    u = np.tile(1.0 + 0.1 * np.cos(6 * np.pi * x / 20.0), (4, 1))
    return Trajectory(times=np.arange(4.0), u_history=u, v_history=u.copy(), l=20.0,
                      steady=True, events=events)


@pytest.mark.parametrize("events, c6", [
    ((), "n/a"),
    ((Event("dominant_mode", 2.0, 4, 8),), "0.1"),
], ids=["no_4_to_8_event", "failed_newton"])
def test_criterion_10_detail_without_a_prediction(monkeypatch, events, c6):
    # without a 4->8 event there is nothing to predict from; with one, the
    # Newton solve from its snapshot fails, so only |c6| is known
    calls = []

    def failing(*args):
        calls.append(args)
        raise NewtonConvergenceError("no convergence")

    ctx = rp.ReproductionContext(n=64)
    monkeypatch.setattr(ctx, "trajectory", lambda name: mode6_trajectory(events))
    monkeypatch.setattr(rp, "newton_steady", failing)
    result = rp._crit_mode_selection(ctx)
    assert len(calls) == len(events)
    assert (result.cid, result.status) == (10, "fail")
    assert result.detail.endswith(f"8->6 from rounding noise: |c6|={c6} at 4->8, "
                                  "mode-8 rate n/a, predicted at n/a")


def test_criterion_11_linear_growth_fidelity(ctx):
    result = _run(rp._crit_growth_fidelity, ctx)
    assert result.passed, result.detail


def test_criterion_12_continuation_consistency(ctx):
    result = _run(rp._crit_continuation, ctx)
    assert result.passed, result.detail


@pytest.mark.parametrize("termination, sigmas, count", [
    (Termination.REACHED_SIGMA_MIN, [], "0 points (reached_sigma_min)"),
    (Termination.NEWTON_FAILURE, [0.3, 0.2], "2 points (newton_failure)"),
], ids=["empty", "far_from_onset"])
def test_criterion_12_fails_cleanly_on_a_degenerate_trace(monkeypatch, termination, sigmas, count):
    # no point lies within 5e-3 below sigma0, so there is no slope to fit
    uniform = Field(u=np.ones(65), v=np.ones(65), l=20.0)
    points = tuple(BranchPoint(s, uniform, 0.0, 0, 0.0) for s in sigmas)
    ctx = rp.ReproductionContext(n=64)
    monkeypatch.setattr(ctx, "branch", lambda j, sigma_min: BranchCurve(j, points, termination))
    result = rp._crit_continuation(ctx)
    assert (result.cid, result.status) == (12, "fail")
    assert result.detail == f"{count}, none within 5e-3 below sigma0"


def test_criterion_13_stability_verdicts(ctx):
    result = _run(rp._crit_stability_verdicts, ctx)
    assert result.passed, result.detail


def test_rows_of_a_criterion_share_its_id_and_name(monkeypatch):
    """The evaluated row and the row of a check that raises carry the
    (cid, name) of their criterion."""
    expected = [(fn.cid, fn.name) for fn in rp.CRITERIA]
    assert [cid for cid, _ in expected] == list(range(1, 14))

    monkeypatch.setattr(rp, "CRITERIA", rp.CRITERIA[:8])
    evaluated = rp.run_reproduction()
    assert [(r.cid, r.name) for r in evaluated] == expected[:8]
    assert all(r.status in ("pass", "fail") for r in evaluated)

    def broken(*args):
        raise ColonyKitError("quadrature failed")

    monkeypatch.setattr(rp, "eta_by_quadrature", broken)
    monkeypatch.setattr(rp, "CRITERIA", [rp.CRITERIA[4]])
    [raised] = rp.run_reproduction()
    assert (raised.cid, raised.name) == expected[4] == (5, "stability constant eta")
    assert (raised.status, raised.detail) == ("fail", "raised quadrature failed")
