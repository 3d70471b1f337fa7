import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rulefuse import backends
from rulefuse.errors import DivergenceError
from rulefuse.fitting import (
    LinearRule,
    StackingRule,
    fit_linear,
    fit_stacking,
    fit_stacking_batch,
    predict_decisions,
    t_statistics,
)
from rulefuse.rules import Zone, canonical_condition_matrix, decision_from_number, pirads_decisions

R = canonical_condition_matrix()
X = R.design_matrix()
ALL_D = np.array([decision_from_number(n).as_float() for n in range(256)])


# Published zone fits: alpha, residual, T-statistics (PZ row from the
# normal-equations derivation; see tests/test_acceptance.py for context).
ZONE_LINEAR = {
    Zone.WG: ([5 / 11, 5 / 11, 1 / 11], 0.078125, [2.2048, 2.2048, 0.4410]),
    Zone.TZ: ([0.6, 0.2, 0.2], 0.0625, [2.3664, 0.7888, 0.7888]),
    Zone.PZ: ([1 / 11, 5 / 11, 5 / 11], 0.078125, [0.4410, 2.2048, 2.2048]),
}


@pytest.mark.parametrize("zone", list(ZONE_LINEAR))
def test_linear_fits_match_published_values(zone):
    alpha, residual, tstats = ZONE_LINEAR[zone]
    report = fit_linear(R, pirads_decisions(zone))
    assert report.model == "linear"
    np.testing.assert_allclose(report.coefficients, alpha, atol=5e-4)
    assert report.residual == pytest.approx(residual, abs=5e-4)
    np.testing.assert_allclose(report.t_stats, tstats, atol=1e-3)
    assert not report.degenerate


def test_linear_solution_solves_normal_equations():
    # (R Rᵀ) x = R d, with R Rᵀ = 2I + 2J for the canonical matrix
    d = decision_from_number(63)
    report = fit_linear(R, d)
    gram = R.as_float() @ R.as_float().T
    np.testing.assert_allclose(gram, 2.0 * np.eye(3) + 2.0 * np.ones((3, 3)))
    x = np.asarray(report.unnormalized_coefficients)
    np.testing.assert_allclose(gram @ x, R.as_float() @ d.as_float(), atol=1e-12)


def test_linear_residual_uses_unnormalized_solution():
    d = decision_from_number(63)
    report = fit_linear(R, d)
    x = np.asarray(report.unnormalized_coefficients)
    expected = np.sum((R.as_float().T @ x - d.as_float()) ** 2) / 8.0
    assert report.residual == pytest.approx(expected, rel=1e-12)


def test_linear_coefficients_are_l1_normalized():
    for n in (63, 31, 119, 1, 254):
        report = fit_linear(R, decision_from_number(n))
        assert np.sum(np.abs(report.coefficients)) == pytest.approx(1.0)


def test_t_statistics_sample_variance_convention():
    # T_tau = x_tau / sqrt(sigma_d^2 * [(R Rᵀ)^-1]_tau,tau), sigma_d^2 with ddof=1
    d = pirads_decisions(Zone.WG)
    report = fit_linear(R, d)
    var_d = np.var(d.as_float(), ddof=1)
    inv = np.linalg.inv(2.0 * np.eye(3) + 2.0 * np.ones((3, 3)))
    expected = np.asarray(report.unnormalized_coefficients) / np.sqrt(var_d * np.diag(inv))
    np.testing.assert_allclose(report.t_stats, expected, rtol=1e-12)
    np.testing.assert_allclose(t_statistics(report, d), expected, rtol=1e-12)


def test_t_statistics_undefined_for_constant_decisions():
    report = fit_linear(R, decision_from_number(255))
    assert report.t_stats is None
    assert report.degenerate


def test_linear_fit_constant_zero_rule_degenerates_to_uniform():
    report = fit_linear(R, decision_from_number(0))
    np.testing.assert_allclose(report.coefficients, [1 / 3, 1 / 3, 1 / 3])
    assert report.degenerate


ZONE_STACKING_SIGNS = {
    # sign of (b1, b2, b3, b0); entries with |beta| < 1 are sign-free (None)
    Zone.WG: (1, 1, None, -1),
    Zone.TZ: (1, 1, 1, -1),
    Zone.PZ: (None, 1, 1, -1),
}


@pytest.mark.parametrize("zone", list(ZONE_STACKING_SIGNS))
def test_stacking_fits_reproduce_decisions(zone):
    d = pirads_decisions(zone)
    report = fit_stacking(R, d)
    assert report.model == "stacking"
    assert report.residual <= 1e-5
    np.testing.assert_array_equal(predict_decisions(R, report.stacking_rule()), d.bits)
    for beta, sign in zip(report.coefficients, ZONE_STACKING_SIGNS[zone]):
        if abs(beta) >= 1.0:
            assert np.sign(beta) == sign


def test_stacking_odds_ratios_are_exp_beta():
    report = fit_stacking(R, pirads_decisions(Zone.TZ))
    np.testing.assert_allclose(report.odds_ratios, np.exp(report.coefficients), rtol=1e-12)


def test_stacking_iteration_budget_recorded():
    report = fit_stacking(R, pirads_decisions(Zone.WG), max_iters=50)
    assert report.iterations_used == 50
    assert report.options["max_iters"] == 50


def test_stacking_divergence_raises():
    # an enormous step saturates the sigmoid and the summed BCE leaves float range
    with pytest.raises(DivergenceError):
        fit_stacking(R, decision_from_number(63), learning_rate=1e6, max_iters=2000)


def test_stacking_batch_raises_for_first_diverged_decision():
    # at this step size rule 1 diverges after 1 iteration and rule 7 after 2;
    # the error names the first decision in the given order, not the earliest
    decisions = [decision_from_number(n) for n in (0, 7, 1)]
    with pytest.raises(DivergenceError, match=r"diverged after 2 iterations \(learning_rate=1000000.0\)"):
        fit_stacking_batch(R, decisions, learning_rate=1e6, max_iters=50)


@pytest.fixture(scope="module")
def reference_fits():
    """The scalar reference descent for every rule, 2 000 steps at lr 1."""
    return [oracles.logistic_descent_ref(X, d, 1.0, 2000) for d in ALL_D]


def test_batched_descent_matches_reference_for_every_rule(reference_fits):
    B, used, finite = backends.fit_logistic(X, ALL_D, 1.0, 2000)
    for n, (beta, ref_used, ref_finite) in enumerate(reference_fits):
        assert (used[n], finite[n]) == (ref_used, ref_finite), n
        np.testing.assert_allclose(B[n], beta, rtol=0, atol=1e-12, err_msg=f"rule {n}")


def test_batch_of_one_is_bit_identical_to_reference(reference_fits):
    for n, (beta, ref_used, ref_finite) in enumerate(reference_fits):
        B, used, finite = backends.fit_logistic(X, ALL_D[n], 1.0, 2000)
        assert B.shape == (1, 4)
        assert (used[0], finite[0]) == (ref_used, ref_finite), n
        np.testing.assert_array_equal(B[0], beta, err_msg=f"rule {n}")


def test_mixed_batch_rows_diverge_independently():
    # at lr 3 rule 126 diverges after 29 steps; the others run the full budget
    numbers = [31, 63, 126, 150, 254]
    B, used, finite = backends.fit_logistic(X, ALL_D[numbers], 3.0, 40)
    assert finite.tolist() == [True, True, False, True, True]
    assert used.tolist() == [40, 40, 29, 40, 40]
    for row, n in enumerate(numbers):
        beta, ref_used, ref_finite = oracles.logistic_descent_ref(X, ALL_D[n], 3.0, 40)
        assert (used[row], finite[row]) == (ref_used, ref_finite), n
        np.testing.assert_allclose(B[row], beta, rtol=0, atol=1e-12, err_msg=f"rule {n}")


def test_stacking_rejects_bad_options():
    d = decision_from_number(63)
    with pytest.raises(ValueError):
        fit_stacking(R, d, learning_rate=0.0)
    with pytest.raises(ValueError):
        fit_stacking(R, d, max_iters=0)


def test_parity_rule_is_not_linearly_representable():
    # rule 105 flips with every single-input change; no threshold fit can be exact
    report = fit_stacking(R, decision_from_number(105))
    predicted = predict_decisions(R, report.stacking_rule())
    assert not np.array_equal(predicted, decision_from_number(105).bits)


def test_predict_decisions_accepts_raw_vectors():
    d = pirads_decisions(Zone.WG)
    rep = fit_stacking(R, d)
    np.testing.assert_array_equal(predict_decisions(R, rep.coefficients), d.bits)
    alpha = np.array([0.6, 0.2, 0.2])
    expected = (R.as_float().T @ alpha) > 0.5
    np.testing.assert_array_equal(predict_decisions(R, alpha, threshold=0.5), expected)


def test_linear_rule_validation():
    with pytest.raises(ValueError):
        LinearRule(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        LinearRule(np.array([-0.2, 0.6, 0.6]))
    rule = LinearRule(np.array([0.5, 0.5, -1e-12]))  # tolerance clamp at zero
    assert rule.alpha[2] == 0.0


def test_stacking_rule_validation():
    with pytest.raises(ValueError):
        StackingRule(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        StackingRule(np.array([np.inf, 0, 0, 0]))


def test_fit_report_round_trips_to_dict():
    report = fit_linear(R, pirads_decisions(Zone.WG))
    doc = report.to_dict()
    assert doc["model"] == "linear"
    assert doc["rule_number"] == 63
    np.testing.assert_allclose(doc["coefficients"], report.coefficients)
    assert doc["t_stats"] is not None


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=255))
def test_linear_fit_invariants(n):
    report = fit_linear(R, decision_from_number(n))
    assert np.all(np.isfinite(report.coefficients))
    assert report.residual >= -1e-15
    # complement rule mirrors the unnormalized solution around the centroid
    comp = fit_linear(R, decision_from_number(255 - n))
    x = np.asarray(report.unnormalized_coefficients)
    xc = np.asarray(comp.unnormalized_coefficients)
    np.testing.assert_allclose(x + xc, np.linalg.solve(
        2.0 * np.eye(3) + 2.0 * np.ones((3, 3)), R.as_float() @ np.ones(8)
    ), atol=1e-12)
