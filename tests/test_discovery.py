from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rulefuse import discovery
from rulefuse.combine import binarize, combine_linear
from rulefuse.discovery import (
    CaseRecord,
    EvalConfig,
    RuleSampler,
    assign_splits,
    availability_analysis,
    evaluate_rule,
    grid_search_linear,
    grid_search_stacking,
    monte_carlo_uncertainty,
    split_dataset,
)
from rulefuse.errors import DataError
from rulefuse.fitting import LinearRule
from rulefuse.metrics import MetricsConfig
from rulefuse.sampling import rejection_sample_stacking
from rulefuse.volumes import LabelVolume, Modality, ProbabilityVolume


def prob(values, modality=Modality.COMBINED):
    return ProbabilityVolume(np.asarray(values, dtype=np.float64), modality=modality)


def make_case(case_id, truth_values, mod_values, zones=None):
    mods = tuple(prob(v, m) for v, m in zip(mod_values, (Modality.T2W, Modality.DWI_HB, Modality.ADC)))
    return CaseRecord(
        case_id=case_id,
        modalities=mods,
        truth=LabelVolume(truth_values.astype(bool)),
        zones=zones,
    )


def truth_cases(n_cases=3, dims=(10, 10, 10), seed=0):
    """Cases whose three modalities all equal the truth indicator exactly."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        truth = np.zeros(dims, dtype=bool)
        x, y, z = rng.integers(1, 5, size=3)
        truth[x : x + 4, y : y + 4, z : z + 4] = True
        values = truth.astype(np.float64)
        cases.append(make_case(f"c{i:02d}", truth, [values, values, values]))
    return cases


# --- splits --------------------------------------------------------------------


def test_splits_disjoint_exhaustive_and_balanced():
    ids = [f"case_{i:03d}" for i in range(50)]
    assignment = assign_splits(ids, seed=11)
    assert set(assignment) == set(ids)
    counts = {name: 0 for name in ("train", "validation", "test")}
    for split in assignment.values():
        counts[split] += 1
    assert counts["train"] in (32, 33, 34)  # 0.66 * 50 = 33, within one
    assert counts["validation"] in (8, 9)
    assert counts["test"] in (8, 9)
    assert sum(counts.values()) == 50


def test_splits_deterministic_and_seed_sensitive():
    ids = [f"case_{i:03d}" for i in range(30)]
    a = assign_splits(ids, seed=1)
    b = assign_splits(ids, seed=1)
    c = assign_splits(ids, seed=2)
    assert a == b
    assert a != c


def test_splits_order_independent():
    ids = [f"case_{i:03d}" for i in range(20)]
    a = assign_splits(ids, seed=3)
    b = assign_splits(list(reversed(ids)), seed=3)
    assert a == b


def test_splits_validate_inputs():
    with pytest.raises(ValueError):
        assign_splits(["a", "a"], seed=0)
    with pytest.raises(ValueError):
        assign_splits(["a", "b"], seed=0, ratios=(0.5, 0.5, 0.5))


def test_split_dataset_requires_full_assignment():
    cases = truth_cases(2)
    with pytest.raises(DataError):
        split_dataset(cases, {"c00": "train"})


# --- evaluate_rule ---------------------------------------------------------------


def test_perfect_modalities_score_one_for_any_rule():
    cases = truth_cases(3)
    for alpha in ([1, 0, 0], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]):
        row = evaluate_rule(cases, LinearRule(np.array(alpha, dtype=np.float64)))
        assert row.mean_dsc == 1.0
        assert row.mean_hd95 == 0.0
        assert row.mean_recall == 1.0
        assert row.mean_precision == 1.0


def test_one_hot_rule_ignores_noise_modalities():
    rng = np.random.default_rng(8)
    dims = (10, 10, 10)
    truth = np.zeros(dims, dtype=bool)
    truth[2:7, 2:7, 2:7] = True
    case = make_case(
        "c0",
        truth,
        [truth.astype(np.float64), rng.random(dims), rng.random(dims)],
    )
    row = evaluate_rule([case], LinearRule(np.array([1.0, 0.0, 0.0])))
    assert row.mean_dsc == 1.0


def test_evaluate_rule_case_failure_names_case():
    cases = truth_cases(2)
    config = EvalConfig(zone="TZ")  # cases carry no zone masks
    with pytest.raises(DataError, match="c00"):
        evaluate_rule(cases, LinearRule(np.array([1.0, 0.0, 0.0])), config=config)


def test_evaluate_rule_order_and_thread_invariance():
    cases = truth_cases(4, seed=9)
    rule = LinearRule(np.array([0.5, 0.25, 0.25]))
    a = evaluate_rule(cases, rule)
    b = evaluate_rule(list(reversed(cases)), rule)
    c = evaluate_rule(cases, rule, threads=4)
    for other in (b, c):
        assert a.mean_dsc == other.mean_dsc
        assert a.sd_dsc == other.sd_dsc
        assert a.mean_hd95 == other.mean_hd95
        assert [cid for cid, _ in a.per_case] == [cid for cid, _ in other.per_case]
    # a whole stacking search, per-case reports included, on the same inputs
    ruleset = rejection_sample_stacking(n_rules=16)
    searches = [
        grid_search_stacking(dataset, ruleset, threads=threads).to_dict(include_cases=True)
        for dataset, threads in ((cases, 1), (cases, 4), (list(reversed(cases)), 1))
    ]
    assert searches[1] == searches[0]
    assert searches[2] == searches[0]


class CountingPool(ThreadPoolExecutor):
    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda cases: grid_search_linear(cases, step=0.5, threads=2),  # 6 rules
        lambda cases: availability_analysis(cases, threads=2),  # base + 7 subsets
    ],
    ids=["grid_search_linear", "availability_analysis"],
)
def test_dataset_sweep_uses_one_pool(sweep, monkeypatch):
    monkeypatch.setattr(CountingPool, "created", 0)
    monkeypatch.setattr(discovery, "ThreadPoolExecutor", CountingPool)
    sweep(truth_cases(3))
    assert CountingPool.created == 1


def test_threaded_sweep_failure_names_case(monkeypatch):
    cases = truth_cases(4)
    real = discovery._evaluate_case

    def failing(case, *args, **kwargs):
        if case.case_id == "c02":
            raise ValueError("boom")
        return real(case, *args, **kwargs)

    monkeypatch.setattr(discovery, "_evaluate_case", failing)
    with pytest.raises(DataError, match="case c02: boom"):
        grid_search_linear(cases, step=0.5, threads=2)


def test_evaluate_rule_aggregates_sd():
    dims = (10, 10, 10)
    truth = np.zeros(dims, dtype=bool)
    truth[2:6, 2:6, 2:6] = True
    good = make_case("good", truth, [truth.astype(float)] * 3)
    half = truth.copy()
    half[4:6] = False  # predictions will miss part of the lesion
    bad = make_case("bad", truth, [half.astype(float)] * 3)
    row = evaluate_rule([good, bad], LinearRule(np.array([1.0, 0.0, 0.0])))
    dscs = [rep.dsc for _, rep in row.per_case]
    assert row.mean_dsc == pytest.approx(np.mean(dscs))
    assert row.sd_dsc == pytest.approx(np.std(dscs, ddof=1))


# --- grid search -----------------------------------------------------------------


def test_grid_search_linear_row_count_and_ranking():
    cases = truth_cases(2)
    result = grid_search_linear(cases, step=0.5)
    assert len(result.rows) == 6
    assert result.rows[0].mean_dsc == 1.0
    assert result.options == {"step": 0.5, "n_rules": 6}
    # perfect modalities: every rule ties at 1.0, order falls back to rule lex
    alphas = [row.rule.as_tuple() for row in result.rows]
    assert alphas == sorted(alphas)


def test_grid_search_rank_of_linear_lookup():
    cases = truth_cases(2)
    result = grid_search_linear(cases, step=0.5)
    assert result.rank_of_linear([0.0, 0.0, 1.0]) == 1
    assert result.rank_of_linear([0.123, 0.377, 0.5]) is None


def test_grid_search_heatmap_rows():
    cases = truth_cases(2)
    result = grid_search_linear(cases, step=0.5)
    rows = result.heatmap_rows("dsc")
    assert len(rows) == 6
    assert all(len(r) == 3 for r in rows)
    assert rows == sorted(rows)


def test_grid_search_invalid_rank_key():
    cases = truth_cases(1)
    with pytest.raises(ValueError):
        grid_search_linear(cases, step=0.5, rank_by="f1")


def test_grid_search_stacking_single_rule():
    cases = truth_cases(2)
    ruleset = rejection_sample_stacking(n_rules=2)  # rules 0 and 1; 1 row each survives
    result = grid_search_stacking(cases, ruleset)
    assert len(result.rows) == ruleset.accepted_count
    assert all(row.model == "stacking" for row in result.rows)
    assert all(row.rule_number is not None for row in result.rows)


def test_grid_search_stacking_recovers_planted_decision_rule():
    # truth = rule 63 decisions (positive iff T2W or DWI_hb) on near-binary maps
    rng = np.random.default_rng(10)
    dims = (8, 8, 8)
    cases = []
    for i in range(2):
        bits = [rng.random(dims) < 0.5 for _ in range(3)]
        mods = [np.where(b, 0.9, 0.1) for b in bits]
        truth = bits[0] | bits[1]
        # lesion-size filtering off: evaluate raw voxel agreement
        cases.append(make_case(f"c{i}", truth, mods))
    ruleset = rejection_sample_stacking(n_rules=256)
    config = EvalConfig(min_region_voxels=1)
    result = grid_search_stacking(cases, ruleset, config=config)
    assert result.rows[0].rule_number == 63
    assert result.rows[0].mean_dsc == 1.0


# --- availability ----------------------------------------------------------------


def test_availability_has_seven_subsets_and_exact_equal_thirds():
    cases = truth_cases(3)
    table = availability_analysis(cases)
    assert [row.subset for row in table.rows] == [
        "T2W", "DWI_hb", "ADC", "T2W+DWI_hb", "T2W+ADC", "DWI_hb+ADC", "T2W+DWI_hb+ADC",
    ]
    direct = evaluate_rule(cases, LinearRule(np.full(3, 1.0 / 3.0)))
    row = table.row("T2W+DWI_hb+ADC")
    assert row.evaluation.mean_dsc == direct.mean_dsc
    assert row.evaluation.mean_hd95 == direct.mean_hd95
    assert row.delta_dsc == 0.0


def test_availability_redundant_modality_changes_nothing():
    # modality 3 duplicates modality 2, so dropping it leaves metrics unchanged
    rng = np.random.default_rng(11)
    dims = (10, 10, 10)
    truth = np.zeros(dims, dtype=bool)
    truth[2:7, 2:7, 2:7] = True
    signal = np.clip(truth + rng.normal(0, 0.08, dims), 0, 1)
    case = make_case("c0", truth, [signal, signal, signal])
    table = availability_analysis([case], base_rule=LinearRule(np.full(3, 1 / 3)))
    assert table.row("T2W+DWI_hb").delta_dsc == pytest.approx(0.0, abs=1e-12)


def test_availability_dropping_informative_modality_hurts():
    rng = np.random.default_rng(12)
    dims = (12, 12, 12)
    truth = np.zeros(dims, dtype=bool)
    truth[3:9, 3:9, 3:9] = True
    noise1 = rng.random(dims)
    noise2 = rng.random(dims)
    case = make_case("c0", truth, [truth.astype(float), noise1, noise2])
    table = availability_analysis([case])
    only_informative = table.row("T2W").evaluation.mean_dsc
    without_informative = table.row("DWI_hb+ADC").evaluation.mean_dsc
    assert only_informative == 1.0
    assert without_informative < 0.6


# --- Monte-Carlo uncertainty -------------------------------------------------------


def test_mc_point_mass_produces_exact_zero_variance():
    cases = truth_cases(2)
    sampler = {"kind": "fixed", "model": "linear", "rules": [[0.2, 0.3, 0.5]]}
    result = monte_carlo_uncertainty(cases, sampler, n_draws=8, seed=1)
    for case in result.cases:
        assert case.variance.max() == 0.0
        assert case.dsc_variance == 0.0


def test_mc_two_rule_variance_closed_form():
    dims = (6, 6, 6)
    rng = np.random.default_rng(13)
    a = rng.random(dims)
    b = rng.random(dims)
    truth = np.zeros(dims, dtype=bool)
    truth[1:4, 1:4, 1:4] = True
    case = make_case("c0", truth, [a, b, rng.random(dims)])
    sampler = {"kind": "fixed", "model": "linear", "rules": [[1, 0, 0], [0, 1, 0]]}
    result = monte_carlo_uncertainty([case], sampler, n_draws=10, seed=2)
    expected = ((a - b) / 2.0) ** 2
    np.testing.assert_allclose(result.cases[0].variance, expected, atol=1e-12)
    np.testing.assert_allclose(result.cases[0].mean, (a + b) / 2.0, atol=1e-12)


def test_mc_dirichlet_concentration_shrinks_variance():
    cases = truth_cases(1, seed=14)
    loose = monte_carlo_uncertainty(
        cases, {"kind": "dirichlet", "concentration": [1, 1, 1]}, n_draws=64, seed=3
    )
    tight = monte_carlo_uncertainty(
        cases, {"kind": "dirichlet", "concentration": [400, 400, 400]}, n_draws=64, seed=3
    )
    assert tight.cases[0].variance.mean() <= loose.cases[0].variance.mean()


def test_mc_stacking_set_sampler():
    cases = truth_cases(1)
    ruleset = rejection_sample_stacking(n_rules=8)
    result = monte_carlo_uncertainty(
        cases, {"kind": "stacking_set"}, n_draws=4, seed=4, rule_set=ruleset
    )
    assert result.kind == "stacking_set"
    assert result.n_draws == 4


def test_mc_deterministic_for_fixed_seed():
    cases = truth_cases(2, seed=15)
    sampler = {"kind": "dirichlet", "concentration": [2, 1, 1]}
    a = monte_carlo_uncertainty(cases, sampler, n_draws=6, seed=5)
    b = monte_carlo_uncertainty(cases, sampler, n_draws=6, seed=5)
    for ca, cb in zip(a.cases, b.cases):
        np.testing.assert_array_equal(ca.variance, cb.variance)


def test_mc_dsc_is_restricted_to_the_zone():
    dims = (12, 12, 12)
    truth = np.zeros(dims, dtype=bool)
    truth[1:5, 1:5, 1:5] = True
    pred = truth.copy()
    pred[7:11, 7:11, 7:11] = True  # a false positive outside the transition zone
    tz = np.zeros(dims, dtype=bool)
    tz[:6] = True
    zones = {"TZ": LabelVolume(tz), "PZ": LabelVolume(~tz)}
    case = make_case("c0", truth, [pred.astype(np.float64)] * 3, zones=zones)
    sampler = {"kind": "fixed", "model": "linear", "rules": [[1, 0, 0]]}
    whole = monte_carlo_uncertainty([case], sampler, n_draws=2)
    in_tz = monte_carlo_uncertainty([case], sampler, n_draws=2, config=EvalConfig(zone="TZ"))
    assert whole.cases[0].dsc_mean == pytest.approx(2 * 64 / (64 + 128))
    assert in_tz.cases[0].dsc_mean == 1.0
    assert in_tz.cases[0].dsc_mean == evaluate_rule(
        [case], LinearRule(np.array([1.0, 0.0, 0.0])), config=EvalConfig(zone="TZ")
    ).mean_dsc
    # the variance and mean volumes still cover the whole grid
    np.testing.assert_array_equal(in_tz.cases[0].mean, pred.astype(np.float64))
    with pytest.raises(DataError, match="zone mask 'NOPE' not present"):
        monte_carlo_uncertainty([case], sampler, n_draws=2, config=EvalConfig(zone="NOPE"))


def test_mc_validates_inputs():
    cases = truth_cases(1)
    with pytest.raises(ValueError):
        monte_carlo_uncertainty(cases, {"kind": "fixed", "model": "linear", "rules": [[1, 0, 0]]}, n_draws=1)
    with pytest.raises(ValueError):
        RuleSampler({"kind": "unknown"})
    with pytest.raises(ValueError):
        RuleSampler({"kind": "stacking_set"})  # no rule set given
    with pytest.raises(ValueError):
        RuleSampler({"kind": "fixed", "model": "linear", "rules": []})


# --- planted-rule recovery (desk-size smoke; the scaled run is acceptance #6) -----


def test_small_planted_rule_recovery():
    from rulefuse.phantoms import PhantomSpec, generate_cases

    spec = PhantomSpec(
        dims=(20, 20, 20),
        n_lesions=1,
        radius_range=(4.0, 6.0),
        fidelity=(0.5, 0.5, 0.5),
        noise_sd=0.25,
        planted_rule=LinearRule(np.array([0.5, 0.5, 0.0])),
    )
    cases = generate_cases(99, 6, spec)
    result = grid_search_linear(cases, step=0.5)
    assert result.rank_of_linear([0.5, 0.5, 0.0]) == 1
