import warnings

import numpy as np
import pytest

from rulefuse import sampling
from rulefuse.errors import DataError
from rulefuse.fitting import fit_stacking, predict_decisions
from rulefuse.rules import canonical_condition_matrix, decision_from_number
from rulefuse.sampling import (
    SampledRuleSet,
    rejection_sample_stacking,
    sample_dirichlet,
    simplex_grid,
)
from rulefuse.volio import write_report


def test_dirichlet_sample_is_on_simplex():
    rule = sample_dirichlet(123)
    assert rule.alpha.shape == (3,)
    assert np.all(rule.alpha >= 0)
    assert np.sum(rule.alpha) == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_sample_deterministic():
    a = sample_dirichlet(9, concentration=(2.0, 1.0, 0.5))
    b = sample_dirichlet(9, concentration=(2.0, 1.0, 0.5))
    np.testing.assert_array_equal(a.alpha, b.alpha)


def test_dirichlet_rejects_bad_concentration():
    with pytest.raises(ValueError):
        sample_dirichlet(0, concentration=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        sample_dirichlet(0, concentration=(1.0, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dirichlet_names_a_non_finite_concentration(bad):
    with pytest.raises(ValueError, match="concentration must be 3 positive finite reals"):
        sample_dirichlet(0, concentration=(bad, 1.0, 1.0))


def test_dirichlet_names_a_concentration_too_large_to_draw_from():
    # numpy draws all zeros at such a concentration: no 0/0 warning, one error naming it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"concentration \[1e\+308, 1e\+308, 1e\+308\] is too "
                                             r"large to draw from: its Dirichlet draw sums to 0.0"):
            sample_dirichlet(0, concentration=(1e308, 1e308, 1e308))
    assert caught == []


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), 1e200])
def test_sweep_rejects_an_eta_without_a_finite_square_before_fitting(eta, monkeypatch):
    monkeypatch.setattr(sampling.fitting, "fit_stacking_batch", None)  # never reached
    with pytest.raises(ValueError, match="eta must be positive with a finite square"):
        rejection_sample_stacking(n_rules=2, eta=eta)


def test_simplex_grid_counts():
    # m = 1/step; the 3-simplex lattice has (m+1)(m+2)/2 points
    assert len(simplex_grid(0.1)) == 66
    assert len(simplex_grid(0.5)) == 6
    assert len(simplex_grid(1.0)) == 3
    assert len(simplex_grid(0.2)) == 21


def test_simplex_grid_points_are_valid_and_unique():
    rules = simplex_grid(0.1)
    seen = set()
    for rule in rules:
        assert np.sum(rule.alpha) == pytest.approx(1.0, abs=1e-12)
        assert np.all(rule.alpha >= 0)
        seen.add(tuple(np.round(rule.alpha, 9)))
    assert len(seen) == 66


def test_simplex_grid_contains_corners_and_planted_point():
    pts = {tuple(np.round(r.alpha, 9)) for r in simplex_grid(0.1)}
    assert (1.0, 0.0, 0.0) in pts
    assert (0.0, 0.0, 1.0) in pts
    assert (0.5, 0.5, 0.0) in pts


def test_simplex_grid_rejects_bad_step():
    with pytest.raises(ValueError):
        simplex_grid(0.3)  # 1/0.3 is not an integer
    with pytest.raises(ValueError):
        simplex_grid(0.0)
    with pytest.raises(ValueError):
        simplex_grid(1.5)


def test_rejection_sampling_small_prefix():
    result = rejection_sample_stacking(n_rules=16, eta=0.5)
    assert result.eta == 0.5
    numbers = result.rule_numbers()
    assert numbers == sorted(numbers)
    # every accepted fit reproduces its decisions exactly at the default threshold
    R = canonical_condition_matrix()
    for entry in result.entries:
        predicted = predict_decisions(R, entry.rule)
        np.testing.assert_array_equal(predicted, entry.decision.bits)
        assert entry.residual * 8.0 <= 0.5**2 / 8.0 + 1e-12
    # rejected rules are reported with their residuals
    for number, residual in result.rejected:
        assert 0 <= number < 16
        assert residual * 8.0 > 0.5**2 / 8.0


def test_rejection_sampling_matches_per_rule_fits():
    # the batched sweep accepts, rejects and fits each rule as fit_stacking does
    result = rejection_sample_stacking(n_rules=24)
    swept = {e.rule_number: (e.rule.beta, e.residual) for e in result.entries}
    rejected = dict(result.rejected)
    R = canonical_condition_matrix()
    for n in range(24):
        report = fit_stacking(R, decision_from_number(n))
        if report.residual * 8.0 <= 0.5**2 / 8.0:
            beta, residual = swept.pop(n)
            np.testing.assert_allclose(beta, report.coefficients, rtol=0, atol=1e-12)
        else:
            residual = rejected.pop(n)
        assert residual == pytest.approx(report.residual, rel=0, abs=1e-12)
    assert not swept and not rejected


def test_rule_set_round_trips_through_json(tmp_path):
    result = rejection_sample_stacking(n_rules=8)
    path = tmp_path / "rules.json"
    text = write_report(result, "json", path)
    loaded = SampledRuleSet.load(path)
    assert loaded.eta == result.eta
    assert loaded.rule_numbers() == result.rule_numbers()
    for a, b in zip(loaded.entries, result.entries):
        # reports round floats to 6 significant digits
        assert list(a.rule.beta) == [float(f"{x:.6g}") for x in b.rule.beta]
        assert a.decision.as_ints() == b.decision.as_ints()
    assert write_report(loaded, "json", tmp_path / "again.json") == text
    assert (tmp_path / "again.json").read_text() == text


def _rule_set(entry: str, rejected: str = "") -> str:
    return f'{{"entries": [{entry}], "eta": 0.5, "rejected": [{rejected}]}}'


@pytest.mark.parametrize("text", [
    "{broken", b'{"eta": "\xff"}', "[1]", "{}",
    '{"entries": {}, "eta": 0.5, "rejected": []}',
    '{"entries": [], "eta": "0.5", "rejected": []}',
    '{"entries": [], "eta": null, "rejected": []}',
    '{"entries": [], "eta": 0.5}',
    _rule_set("1"),
    _rule_set('{"rule_number": 3, "residual": 0.0}'),
    _rule_set('{"rule_number": 3, "residual": 0.0, "beta": [1, 2, 3]}'),
    _rule_set('{"rule_number": 3, "residual": 0.0, "beta": [1, 2, 3, "4"]}'),
    _rule_set('{"rule_number": 3, "residual": 0.0, "beta": [1, 2, 3, NaN]}'),
    _rule_set('{"rule_number": 3.0, "residual": 0.0, "beta": [1, 2, 3, 4]}'),
    _rule_set('{"rule_number": 256, "residual": 0.0, "beta": [1, 2, 3, 4]}'),
    _rule_set('{"rule_number": true, "residual": 0.0, "beta": [1, 2, 3, 4]}'),
    _rule_set('{"rule_number": 3, "beta": [1, 2, 3, 4]}'),
    _rule_set("", '{"rule_number": 6}'),
    _rule_set("", '"6"'),
])
def test_malformed_rule_set_is_data_error(tmp_path, text):
    path = tmp_path / "rules.json"
    path.write_text(_rule_set('{"rule_number": 3, "residual": 0.0, "beta": [1, 2, 3, 4]}'))
    assert SampledRuleSet.load(path).rule_numbers() == [3]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(DataError, match=f"rule set {path}"):
        SampledRuleSet.load(path)


def test_rejection_sampling_validates_arguments():
    with pytest.raises(ValueError):
        rejection_sample_stacking(n_rules=0)
    with pytest.raises(ValueError):
        rejection_sample_stacking(eta=0.0)
