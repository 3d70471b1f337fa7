import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from rulefuse import backends, discovery, metrics
from rulefuse.combine import binarize, combine_linear, combine_stacking, linear_map
from rulefuse.discovery import (
    CaseRecord,
    EvalConfig,
    GridSearchResult,
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
from rulefuse.fitting import LinearRule, StackingRule
from rulefuse.metrics import MetricsConfig, dice, evaluate, hd95
from rulefuse.phantoms import PhantomSpec, generate_case
from rulefuse.sampling import rejection_sample_stacking, simplex_grid
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


class LoggedSource:
    """A case source whose `load()` appends "<case_id> <pid>" to the file `log`,
    opened with O_APPEND, so that loads in forked workers are recorded too."""

    def __init__(self, case, log):
        self.case_id, self.case, self.log = case.case_id, case, log

    def load(self):
        fd = os.open(self.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{self.case_id} {os.getpid()}\n".encode())
        finally:
            os.close(fd)
        return self.case


def logged_loads(log):
    """[(case_id, pid)] for each load a `LoggedSource` recorded in `log`."""
    return [tuple(line.split()) for line in log.read_text().splitlines()] if log.exists() else []


def test_evaluate_rule_refuses_raw_weights_before_reading_a_case(tmp_path):
    log = tmp_path / "loads"
    with pytest.raises(TypeError, match="rule must be a LinearRule or StackingRule, got list"):
        evaluate_rule([LoggedSource(case, log) for case in truth_cases(2)], [1 / 3] * 3)
    assert logged_loads(log) == []


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


def u_shape_cases(n_cases=3, dims=(16, 16, 12), seed=4):
    """Blobby random modalities, each holding a U whose base lies below z = 3;
    the zone "box" (z >= 3) cuts the U into its two arms."""
    rng = np.random.default_rng(seed)
    u = np.zeros(dims, dtype=bool)
    u[2:5, 2:5, 1:11] = u[2:5, 9:12, 1:11] = True
    u[2:5, 2:12, 1:3] = True
    box = np.zeros(dims, dtype=bool)
    box[:, :, 3:] = True
    cases = []
    for i in range(n_cases):
        mods = []
        for _ in range(3):
            blobs = ndimage.gaussian_filter(rng.random(dims), 1.5)
            blobs = (blobs - blobs.min()) / (blobs.max() - blobs.min())
            mods.append(np.where(u, 0.95, blobs))
        truth = (ndimage.gaussian_filter(rng.random(dims), 1.5) > 0.52) | u
        zones = {"box": LabelVolume(box)}
        cases.append(make_case(f"u{i}", truth, mods, zones=zones))
    return cases, u, box


@pytest.mark.parametrize("zone", [None, "box"])
@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("min_region", [0, 1, 27])
def test_sweep_reports_equal_binarize_then_evaluate(min_region, connectivity, zone):
    cases, u, box = u_shape_cases()
    assert np.count_nonzero(backends.components(u, connectivity)[2]) == 1
    assert np.count_nonzero(backends.components(u & box, connectivity)[2]) == 2
    config = EvalConfig(min_region_voxels=min_region, zone=zone,
                        metrics=MetricsConfig(connectivity=connectivity))
    rules = [LinearRule(np.array(a)) for a in
             ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3))]
    lesions = set()
    for rule, row in zip(rules, discovery._sweep(cases, rules, config, threads=1)):
        for case, (case_id, report) in zip(cases, row.per_case):
            assert case_id == case.case_id
            pred = binarize(combine_linear(case.modalities, rule), config.threshold,
                            min_region, connectivity)
            zone_mask = case.zones[zone] if zone else None
            expected = evaluate(pred, case.truth, config.metrics, zone=zone_mask)
            assert report.to_dict() == expected.to_dict()
            lesions.add(report.n_pred_lesions)
    assert max(lesions) > 1


def test_sweep_prediction_keeps_the_modality_grid():
    # alignment accepts a 1e-9 relative spacing difference; the prediction
    # lies on the modalities' grid, as combine_linear puts it, not the truth's
    cases, _, _ = u_shape_cases(n_cases=2)
    spacing = (0.7, 0.55, 3.3)
    cases = [
        CaseRecord(
            case_id=case.case_id,
            modalities=tuple(ProbabilityVolume(m.values, spacing, m.modality)
                             for m in case.modalities),
            truth=LabelVolume(case.truth.values, (0.7 * (1 + 1e-12), 0.55, 3.3)),
        )
        for case in cases
    ]
    rule = LinearRule(np.array((0.2, 0.3, 0.5)))
    row = discovery.evaluate_rule(cases, rule)
    for case, (_, report) in zip(cases, row.per_case):
        pred = binarize(combine_linear(case.modalities, rule))
        assert report.to_dict() == evaluate(pred, case.truth).to_dict()


def mixed_grid_cases(seed=9):
    """Four cases on different grids, each with noisy blobby modalities (so
    thresholding leaves fragments to suppress) and a zone slab."""
    rng = np.random.default_rng(seed)
    cases = []
    for i, dims in enumerate([(12, 10, 9), (9, 11, 8), (14, 8, 10), (10, 10, 10)]):
        mods = []
        for _ in range(3):
            blobs = ndimage.gaussian_filter(rng.random(dims), 1.0)
            blobs = (blobs - blobs.min()) / (blobs.max() - blobs.min())
            mods.append(np.clip(blobs + rng.normal(0.0, 0.08, dims), 0.0, 1.0))
        truth = ndimage.gaussian_filter(rng.random(dims), 1.2) > 0.53
        zone = np.zeros(dims, dtype=bool)
        zone[:, 1 + i % 3 :, :] = True
        cases.append(make_case(f"m{i}", truth, mods, zones={"slab": LabelVolume(zone)}))
    return cases


@pytest.mark.parametrize("zone", [None, "slab"])
@pytest.mark.parametrize("threads", [1, 2, 5, 9])
def test_case_major_sweep_equals_per_pair_evaluation(threads, zone):
    # 9 threads exceed both the 4 cases and the 6 rules
    cases = mixed_grid_cases()
    config = EvalConfig(min_region_voxels=4, zone=zone)
    result = grid_search_linear(cases, step=0.5, config=config, threads=threads)
    assert len(result.rows) == 6
    by_id = {case.case_id: case for case in cases}
    lesions = set()
    for row in result.rows:
        assert [case_id for case_id, _ in row.per_case] == sorted(by_id)
        for case_id, report in row.per_case:
            case = by_id[case_id]
            pred = binarize(combine_linear(case.modalities, row.rule), 0.5, 4)
            zone_mask = case.zones[zone] if zone else None
            assert report == evaluate(pred, case.truth, config.metrics, zone=zone_mask)
            lesions.add(report.n_pred_lesions)
    assert max(lesions) > 1


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_zone_without_truth_has_no_hd95(threads):
    # one case's truth lies wholly outside its zone
    cases = mixed_grid_cases(seed=11)
    truth = cases[0].truth.values.copy()
    truth[:, 1:, :] = False
    truth[:, 0, 2:6] = True
    cases[0] = make_case("m0", truth, [m.values for m in cases[0].modalities],
                         zones=cases[0].zones)
    config = EvalConfig(min_region_voxels=4, zone="slab")
    result = grid_search_linear(cases, step=0.5, config=config, threads=threads)
    for row in result.rows:
        case_id, report = row.per_case[0]
        assert case_id == "m0" and report.hd95_mm is None and report.n_gt_lesions == 0
        pred = binarize(combine_linear(cases[0].modalities, row.rule), 0.5, 4)
        assert report == evaluate(pred, cases[0].truth, config.metrics,
                                  zone=cases[0].zones["slab"])


@pytest.mark.parametrize("zone", [None, "slab"])
def test_sweeps_scan_each_prediction_once_and_share_the_case_setup(zone, monkeypatch,
                                                                  grid_scans):
    # the grid is scanned for positives once per case, for its truth. A
    # linear sweep finds each rule's positives among its case's candidate
    # voxels, with no scan; a lone rule, and each MC draw, thresholds its
    # whole map and scans it once. Restricting to a zone reads the
    # prediction's own positives. The rule sweep and MC set each case up
    # with the same helper.
    cases = mixed_grid_cases(seed=13)
    case_ids = sorted(case.case_id for case in cases)
    config = EvalConfig(min_region_voxels=4, zone=zone)
    scans, setups = grid_scans, []
    case_setup = discovery._case_setup

    def counted_case_setup(case, config):
        setups.append(case.case_id)
        return case_setup(case, config)

    monkeypatch.setattr(discovery, "_case_setup", counted_case_setup)
    grid_search_linear(cases, step=0.5, config=config)  # 6 rules
    assert (len(scans), setups) == (len(cases), case_ids)
    scans.clear()
    setups.clear()
    evaluate_rule(cases, LinearRule(np.array([0.5, 0.25, 0.25])), config=config)
    assert (len(scans), setups) == (len(cases) * (1 + 1), case_ids)
    scans.clear()
    setups.clear()
    monte_carlo_uncertainty(cases, {"kind": "dirichlet"}, n_draws=3, config=config)
    assert (len(scans), setups) == (len(cases) * (3 + 1), case_ids)


def test_a_box_is_worked_out_once_per_labelling_and_never_without_one(monkeypatch):
    # a mask's positives carry no box: only a labelling needs one, so every
    # sweep and every public metric works out exactly one box per labelling
    cases = mixed_grid_cases(seed=13)
    config = EvalConfig(min_region_voxels=4, zone="slab")
    boxes, labellings = [], []
    bounding_box, components = backends.bounding_box, backends.components

    def counted_bounding_box(flat, shape):
        boxes.append(shape)
        return bounding_box(flat, shape)

    def counted_components(mask, *args, **kwargs):
        labellings.append(mask.shape)
        return components(mask, *args, **kwargs)

    monkeypatch.setattr(backends, "bounding_box", counted_bounding_box)
    monkeypatch.setattr(backends, "components", counted_components)
    rule = LinearRule(np.array([0.5, 0.25, 0.25]))
    runs = {
        "zoned grid search": lambda: grid_search_linear(cases, step=0.5, config=config),
        "lone rule": lambda: evaluate_rule(cases, rule, config=config),
        "zoned MC": lambda: monte_carlo_uncertainty(cases, {"kind": "dirichlet"}, n_draws=3,
                                                    config=config),
    }
    for case in cases:
        pred = LabelVolume(combine_linear(case.modalities, rule).values > 0.5)
        zone = case.zones["slab"]
        runs[f"dice {case.case_id}"] = lambda p=pred, c=case: dice(p, c.truth)
        runs[f"hd95 {case.case_id}"] = lambda p=pred, c=case: hd95(p, c.truth)
        runs[f"evaluate {case.case_id}"] = lambda p=pred, c=case: evaluate(p, c.truth)
        runs[f"zoned evaluate {case.case_id}"] = (
            lambda p=pred, c=case, z=zone: evaluate(p, c.truth, zone=z)
        )
    for name, run in runs.items():
        boxes.clear()
        labellings.clear()
        run()
        assert len(boxes) == len(labellings), name
        if name.startswith(("dice", "hd95")):  # read from the positives alone
            assert not labellings, name
        else:
            assert labellings, name


# --- linear positives from candidate voxels ---------------------------------------

GRID_RULES = simplex_grid(0.1)
HALF_VOXEL = [np.full((1, 1, 1), 0.5)] * 3


def rounds_past_half(rule) -> bool:
    """Whether the rule's computed sum over an all-0.5 voxel exceeds 0.5."""
    return bool(linear_map([prob(v) for v in HALF_VOXEL], rule.alpha)[0, 0, 0] > 0.5)


ROUND_UP_RULES = [rule for rule in GRID_RULES if rounds_past_half(rule)]


def nudged(rule, axis: int, sign: int) -> LinearRule:
    """`rule` with one weight moved by just under the simplex tolerance, so
    its weights sum to 1 ± 1e-9, or a zero weight goes to -1e-9 and is clamped."""
    alpha = np.array(rule.alpha)
    alpha[axis] += sign * 0.999e-9
    return LinearRule(alpha)


def clamped(axis: int) -> LinearRule:
    """The heaviest rule LinearRule accepts: two weights at -1e-9, clamped to 0,
    and the third at 1 + 3e-9 less a hair, so the weights sum to that."""
    alpha = np.full(3, -1e-9)
    alpha[axis] = 1 + 2.99e-9
    return LinearRule(alpha)


LINEAR_RULES = st.one_of(
    st.sampled_from(GRID_RULES),
    st.builds(nudged, st.sampled_from(GRID_RULES), st.integers(0, 2), st.sampled_from([-1, 1])),
    st.builds(clamped, st.integers(0, 2)),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0).map(
        lambda w: LinearRule(np.array(w) / sum(w))),
)
THRESHOLDS = st.one_of(
    st.sampled_from([0.5, 1e-12, 3e-9, 0.99, 1 - 1e-9, 1 - 1e-12]),
    st.floats(1e-12, 1 - 1e-12),
)


def candidate_case(seed: int, t: float, dims=(7, 6, 5)) -> CaseRecord:
    """Random modalities, half their voxels from values at and around `t`,
    with pinned voxels: all three at 0.5, all three at `t`, and each modality
    alone just over 2·1e-9 below `t`, where a clamped rule still exceeds it."""
    rng = np.random.default_rng(seed)
    below = max(t - 2.5e-9, 0.0)
    palette = np.array([0.0, 1.0, 0.5, t, np.nextafter(t, 0), np.nextafter(t, 1), below,
                        max(t - 4e-9, 0.0)])
    mods = [np.where(rng.random(dims) < 0.5, rng.choice(palette, dims), rng.random(dims))
            for _ in range(3)]
    for m, values in enumerate(mods):
        values[0, 0, 0] = 0.5
        values[1, 0, 0] = t
        values[2, 0, :3] = 0.0
        values[2, 0, m] = below
    zone = np.zeros(dims, dtype=bool)
    zone[:, 2:, :] = True
    truth = rng.random(dims) < 0.3
    return make_case("h", truth, mods, zones={"half": LabelVolume(zone)})


def chunked_positives(candidates, rules):
    """Yield (positives, labels, (counts, keep), kept) of each rule in turn,
    from `candidates._chunk`: its positives' ascending flat indices, their
    labels, its components' counts and keep flags, and which positives are
    in a kept component, read from the chunk's runs. The chunk's plane must
    hold the kept positives."""
    n = candidates.flat.size
    for start in range(0, len(rules), discovery._RULE_CHUNK):
        plane, (starts, lengths, bounds, slots, counts, keep, components) = candidates._chunk(
            rules[start:start + discovery._RULE_CHUNK])
        for i, row in enumerate(plane):
            runs = slice(bounds[i], bounds[i + 1])
            index = np.concatenate([np.empty(0, np.intp)] + [
                np.arange(s, s + length) - i * n for s, length in zip(starts[runs], lengths[runs])])
            kept = np.repeat(keep[slots[runs]], lengths[runs])
            assert np.flatnonzero(row).tobytes() == index[kept].tobytes()
            c, d = components[i], components[i + 1]
            yield (candidates.flat.take(index), np.repeat(slots[runs] - c, lengths[runs]),
                   (counts[c:d], keep[c:d]), kept)


def dense_report(case: CaseRecord, rule, config: EvalConfig, buffers) -> metrics.MetricsReport:
    """The report of `rule` on `case` from its dense prediction: `evaluate`
    of `_predict`'s prediction, both masks restricted to the configured zone.
    `buffers.mask` then holds the prediction, unrestricted."""
    _, pred = discovery._predict(case, rule, config, buffers)
    zone = None if config.zone is None else case.zones[config.zone]
    return evaluate(pred, case.truth, config.metrics, zone=zone)


def candidates_match_dense(case: CaseRecord, t: float, rules) -> bool:
    """Whether each rule's candidate positives are the dense map's, with the
    rules run in order on one candidate set."""
    config = EvalConfig(threshold=t, min_region_voxels=0)  # nothing is dropped
    chunks = chunked_positives(discovery._Candidates(case, config, rules), rules)
    for rule, (positives, *_) in zip(rules, chunks, strict=True):
        dense = linear_map(case.modalities, rule.alpha) > t
        if positives.tobytes() != np.flatnonzero(dense).tobytes():
            return False
    return True


@example(seed=0, t=0.5, rules=ROUND_UP_RULES, min_region=0, zone=False)
@example(seed=1, t=0.99, rules=[clamped(0), clamped(2)], min_region=1, zone=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=THRESHOLDS,
    rules=st.lists(LINEAR_RULES, min_size=1, max_size=2 * discovery._RULE_CHUNK + 1),
    min_region=st.integers(0, 4),
    zone=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_candidate_positives_and_reports_equal_the_dense_path(seed, t, rules, min_region, zone):
    case = candidate_case(seed, t)
    assert candidates_match_dense(case, t, rules)
    config = EvalConfig(threshold=t, min_region_voxels=min_region, zone="half" if zone else None)
    zone_mask, truth, buffers = discovery._case_setup(case, config)
    reports = discovery._Candidates(case, config, rules).reports(zone_mask, truth,
                                                                 buffers.labels)
    for rule, got in zip(rules, reports, strict=True):
        assert repr(got) == repr(dense_report(case, rule, config, buffers))


def test_candidate_margin_is_needed_and_enough(monkeypatch):
    # four grid rules sum an all-0.5 voxel past 0.5; a clamped rule's weights
    # sum to 1 + 3e-9, so it lifts a voxel 2.5e-9 below t = 0.99 past t
    assert [tuple(round(w, 9) for w in rule.as_tuple()) for rule in ROUND_UP_RULES] == [
        (0.2, 0.7, 0.1), (0.3, 0.6, 0.1), (0.6, 0.3, 0.1), (0.7, 0.2, 0.1)]
    half = make_case("half", np.zeros((3, 3, 3)), [np.full((3, 3, 3), 0.5)] * 3)
    lifted = candidate_case(2, 0.99)
    assert (linear_map(lifted.modalities, clamped(0).alpha) > 0.99)[2, 0, 0]
    assert candidates_match_dense(half, 0.5, ROUND_UP_RULES)
    assert candidates_match_dense(lifted, 0.99, [clamped(0)])
    monkeypatch.setattr(discovery, "_CANDIDATE_MARGIN", 0.0)
    assert not candidates_match_dense(half, 0.5, ROUND_UP_RULES)
    monkeypatch.setattr(discovery, "_CANDIDATE_MARGIN", 2e-9)
    assert not candidates_match_dense(lifted, 0.99, [clamped(0)])


def anisotropic(cases, spacing=(0.7, 0.55, 3.3)):
    """The cases with every volume at `spacing`."""
    def at(volume):
        if isinstance(volume, LabelVolume):
            return LabelVolume(volume.values, spacing)
        return ProbabilityVolume(volume.values, spacing, volume.modality)

    return [CaseRecord(case.case_id, tuple(at(m) for m in case.modalities), at(case.truth),
                       {name: at(z) for name, z in case.zones.items()}) for case in cases]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("min_region", [0, 4])
@pytest.mark.parametrize("zone", [None, "slab"])
def test_batched_grid_search_equals_dense_evaluation(zone, min_region, threads, monkeypatch):
    # 21 rules: two whole chunks and a part one, labelled in batches, each
    # report as `evaluate` makes it from the whole map
    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    cases = anisotropic(mixed_grid_cases(seed=14))
    config = EvalConfig(min_region_voxels=min_region, zone=zone)
    result = grid_search_linear(cases, step=0.2, config=config, threads=threads)
    assert len(result.rows) % discovery._RULE_CHUNK
    lesions = set()
    for case in cases:
        buffers = discovery._Buffers(case.truth.dims)
        for row in result.rows:
            report = dict(row.per_case)[case.case_id]
            assert repr(report) == repr(dense_report(case, row.rule, config, buffers))
            lesions.add(report.n_pred_lesions)
    assert max(lesions) > 1


@pytest.mark.parametrize("model", ["linear", "stacking"])
@pytest.mark.parametrize("connectivity", [6, 26])
def test_batched_predictions_are_labelled_as_the_dense_path_labels_them(connectivity, model):
    # each rule's positives, their labels and its components' (counts, keep)
    # from a chunk are `_predict`'s, bytes and dtypes alike, and its positives
    # in kept components are `_predict`'s prediction: linear rules from their
    # margin candidates, stacking rules from every voxel
    case = mixed_grid_cases(seed=15)[0]
    if model == "linear":
        rules = simplex_grid(0.1)[::3]  # 22 rules
    else:
        rules = [entry.rule for entry in rejection_sample_stacking(n_rules=48).entries]
    config = EvalConfig(min_region_voxels=3, metrics=MetricsConfig(connectivity=connectivity))
    buffers = discovery._Buffers(case.truth.dims)
    candidates = discovery._Candidates(case, config, rules)
    assert (candidates.flat.size < case.truth.values.size) == (model == "linear")
    chunks = chunked_positives(candidates, rules)
    dropped = 0
    for rule, (positives, labels, components, kept) in zip(rules, chunks, strict=True):
        combined, want = discovery._predict(case, rule, config, buffers)
        assert want.connectivity == connectivity
        mask = np.zeros(case.truth.dims, dtype=bool)
        mask.reshape(-1)[positives] = True
        assert mask.tobytes() == (combined > 0.5).tobytes()
        survivors = positives[kept]
        assert survivors.dtype == want.positives.dtype
        assert survivors.tobytes() == want.positives.tobytes()
        volume = np.zeros(case.truth.dims, dtype=np.int32)
        volume.reshape(-1)[positives] = labels
        for got, expected in zip((volume, *components), want.components, strict=True):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        dropped += positives.size - survivors.size
    assert dropped


# --- a linear sweep scored a chunk at a time ----------------------------------------

LIST_DIMS = (14, 10, 9)


def chunk_cases(seed: int):
    """Two cases whose grid-rule predictions lie on, near and far from the
    truth. In `wide` one modality is high on a block in the far corner,
    whose predictions no truth point's list reaches, one around the truth
    and one at a few scattered voxels, and a drawn few of the grid's faces
    (x = 0, x = nx - 1, y = 0, y = ny - 1, z = 0, z = nz - 1) are high in
    some modality. `few` has fewer candidate voxels than a list is long: one
    voxel high in its first modality, none in its second and up to four in
    its third. Both have a zone, `y3`, of the voxels at y >= 3."""
    rng = np.random.default_rng(seed)
    truth = np.zeros(LIST_DIMS, dtype=bool)
    lo = rng.integers(0, 3, 3)
    hi = lo + rng.integers(2, 5, 3)
    truth[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    low = [rng.uniform(0.0, 0.3, LIST_DIMS) for _ in range(6)]
    far, near, dots, one, _, some = low
    far[10:, 6:, 5:] = np.where(rng.random((4, 4, 4)) < 0.8, 0.9, 0.1)
    near[ndimage.binary_dilation(truth, iterations=2) & (rng.random(LIST_DIMS) < 0.7)] = 0.9
    dots.flat[rng.choice(truth.size, 3, replace=False)] = 0.9
    for axis, end in {(int(a), int(e)) for a, e in rng.integers(0, [3, 2], (3, 2))}:
        face = [slice(None)] * 3
        face[axis] = -end
        face = tuple(face)
        low[int(rng.integers(0, 3))][face] = np.where(rng.random(truth[face].shape) < 0.6, 0.9, 0.1)
    one[int(rng.integers(0, 14)), int(rng.integers(4, 10)), int(rng.integers(0, 9))] = 0.95
    some.flat[rng.choice(truth.size, int(rng.integers(0, 5)), replace=False)] = 0.95
    zone = np.zeros(LIST_DIMS, dtype=bool)
    zone[:, 3:, :] = True  # holds the one voxel and the far block, and cuts the truth
    return [make_case(case_id, truth, mods, zones={"y3": LabelVolume(zone)})
            for case_id, mods in (("few", low[3:]), ("wide", low[:3]))]


def scored_by_chunks(cases, rules, config, patch):
    """The rows of a sweep of `rules` and, for each (rule, case) whose truth
    has points no list reaches, whether the brute force ran for them (True)
    or the bound spared it (False). The sweep must score every case by
    `_Candidates.reports`, with no `evaluate`."""
    outcomes, fell_back = [], []
    hd95_of, nearest_bf = metrics.CandidateHD95._hd95, metrics._nearest_bf

    def recorded_hd95(self, from_p, from_g, *args):
        unlisted, before = bool(np.isinf(from_g).any()), len(fell_back)
        hd = hd95_of(self, from_p, from_g, *args)
        assert len(fell_back) - before <= unlisted
        if unlisted:
            outcomes.append(len(fell_back) > before)
        return hd

    def no_evaluate(*args, **kwargs):
        raise AssertionError("a chunk-scored sweep called evaluate")

    patch.setattr(metrics.CandidateHD95, "_hd95", recorded_hd95)
    patch.setattr(metrics, "_nearest_bf",
                  lambda points, surface: fell_back.append(len(points)) or
                  nearest_bf(points, surface))
    patch.setattr(discovery, "evaluate", no_evaluate)
    return discovery._sweep(cases, rules, config, threads=1), outcomes


def assert_equal_reports(got, want):
    """`repr`-equal reports, each field of the same type."""
    assert repr(got) == repr(want)
    for name in ("dsc", "dsc_both_empty", "hd95_mm", "recall_gt", "precision_pred",
                 "n_gt_lesions", "n_pred_lesions"):
        assert type(getattr(got, name)) is type(getattr(want, name)), name


ANISOTROPIC = (0.7, 0.55, 3.3)


def modalities_apart(cases):
    """The cases with their modalities' grid 1e-12 apart from the truth's
    along x, which alignment accepts: no voxel is then one point on both."""
    def apart(m):
        return ProbabilityVolume(m.values, (m.spacing[0] * (1 + 1e-12), *m.spacing[1:]),
                                 m.modality)

    return [CaseRecord(case.case_id, tuple(map(apart, case.modalities)), case.truth, case.zones)
            for case in cases]


# 14 rules, every voxel a candidate: too many rules for trees on margin
# candidates, but each prediction's truth side is queried on a tree
STACKING_RULES = [entry.rule for entry in rejection_sample_stacking(n_rules=16).entries]


@example(seed=0, connectivity=26, min_region=0, spacing=(1.0, 1.0, 1.0), zone=False, apart=False)
@example(seed=1, connectivity=6, min_region=4, spacing=ANISOTROPIC, zone=False, apart=False)
@example(seed=2, connectivity=18, min_region=1, spacing=ANISOTROPIC, zone=True, apart=False)
@example(seed=3, connectivity=26, min_region=2, spacing=ANISOTROPIC, zone=True, apart=True)
@example(seed=4, connectivity=6, min_region=0, spacing=(1.0, 1.0, 1.0), zone=False, apart=True)
# a far prediction's HD95 is a brute-force distance at anisotropic spacing,
# which summing the squared differences z first changes in the last place
@example(seed=144, connectivity=6, min_region=2, spacing=ANISOTROPIC, zone=False, apart=False)
# the zone cuts a kept component of rule (0.2, 0.4, 0.4) on `wide` to one voxel
@example(seed=34990, connectivity=6, min_region=2, spacing=(1.0, 1.0, 1.0), zone=True,
         apart=False)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    connectivity=st.sampled_from([6, 18, 26]),
    min_region=st.integers(0, 4),
    spacing=st.sampled_from([(1.0, 1.0, 1.0), ANISOTROPIC]),
    zone=st.booleans(),
    apart=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_chunk_scored_reports_equal_dense_evaluation_and_the_oracle(seed, connectivity,
                                                                    min_region, spacing, zone,
                                                                    apart):
    # every report of a 21-rule linear sweep (two chunks and a part one), a
    # 10-rule one (two chunks, too few rules for lists) and a 14-rule
    # stacking sweep, scored from the candidates, is `evaluate`'s on the
    # dense path, and its HD95 the oracle's: empty and one-voxel
    # predictions, predictions on the grid's faces, far ones no list
    # reaches, a case with fewer candidates than a list holds, every volume
    # at unit or anisotropic spacing, the modalities' grid 1e-12 apart from
    # the truth's, and predictions cut by a zone.
    # The sizes covered are counted before the zone cut, which can leave one
    # voxel of a kept component whatever `min_region` is.
    import oracles

    cases = anisotropic(chunk_cases(seed), spacing)
    if apart:
        cases = modalities_apart(cases)
    config = EvalConfig(min_region_voxels=min_region, zone="y3" if zone else None,
                        metrics=MetricsConfig(connectivity=connectivity))
    sweeps = []
    for rules in (simplex_grid(0.2), simplex_grid(1 / 3), STACKING_RULES):
        with pytest.MonkeyPatch.context() as patch:
            sweeps.append(scored_by_chunks(cases, rules, config, patch)[0])
    assert [len(rows) for rows in sweeps] == [21, 10, 14]
    assert 10 < metrics._LISTED_PREDICTIONS <= 14
    rows = [row for rows in sweeps for row in rows]
    sizes = set()
    for case in cases:
        zone_mask, truth, buffers = discovery._case_setup(case, config)
        if case.case_id == "few":
            assert discovery._Candidates(case, config, GRID_RULES).flat.size < metrics._NEAREST
        for row in rows:
            got = dict(row.per_case)[case.case_id]
            assert_equal_reports(got, dense_report(case, row.rule, config, buffers))
            pred = buffers.mask if zone_mask is None else buffers.mask & zone_mask.values
            oracle = None
            if pred.any() and truth.volume.values.any():
                pooled = oracles.surface_distances_kd_bf(pred, truth.volume.values,
                                                         case.modalities[0].spacing,
                                                         truth.volume.spacing)
                oracle = float(np.percentile(pooled, metrics.HD_PERCENTILE))
            assert repr(got.hd95_mm) == repr(oracle), (case.case_id, row.rule)
            sizes.add(min(int(np.count_nonzero(buffers.mask)), 2))
    assert sizes == ({0, 1, 2} if min_region <= 1 else {0, 2})


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), ANISOTROPIC])
def test_the_list_bound_both_spares_and_runs_the_brute_force(spacing):
    # a truth point whose list holds none of a rule's surface is at least its
    # last listed distance away: where the least of those reaches the upper
    # order statistic taken with such points at +inf, no brute force runs,
    # and where it does not, one runs; the reports are the dense path's
    spec = PhantomSpec.from_dict({"dims": [32, 32, 32], "spacing": list(spacing),
                                  "n_lesions": 3, "radius_range": [4.5, 9.0],
                                  "fidelity": [0.5, 0.5, 0.5], "noise_sd": 0.25,
                                  "planted_rule": [0.5, 0.5, 0.0]})
    cases = [generate_case([3, i], spec, case_id=f"p{i}") for i in range(3)]
    config = EvalConfig()
    with pytest.MonkeyPatch.context() as patch:
        rows, outcomes = scored_by_chunks(cases, GRID_RULES, config, patch)
    assert True in outcomes and False in outcomes
    for case in cases:
        buffers = discovery._Buffers(case.truth.dims)
        for row in rows:
            assert_equal_reports(dict(row.per_case)[case.case_id],
                                 dense_report(case, row.rule, config, buffers))


@pytest.mark.parametrize("zone", [None, "slab"])
def test_chunk_scored_sweep_builds_one_truth_tree_and_one_candidate_tree_per_case(zone,
                                                                                  monkeypatch):
    # on the truth's grid and spacing, a task builds its truth's tree and, once
    # some rule needs a list, one tree over its candidates. Each truth
    # surface point's list is filled once, by one k-nearest query per chunk
    # at most, and no voxel is queried twice on the truth's tree.
    class RecordingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(("candidates" if kwargs == metrics._PRED_TREE else "truth", self))

        def query(self, x, *args, **kwargs):
            self.__dict__.setdefault("queried", []).append(np.array(x))
            return super().query(x, *args, **kwargs)

    built = []
    monkeypatch.setattr(metrics, "cKDTree", RecordingTree)
    cases = mixed_grid_cases(seed=13)
    config = EvalConfig(min_region_voxels=4, zone=zone)
    rows, _ = scored_by_chunks(cases, GRID_RULES, config, monkeypatch)
    assert len(rows) == 66
    assert sum(rep.hd95_mm is not None for row in rows for _, rep in row.per_case) > 60 * len(cases)
    assert [kind for kind, _ in built] == ["truth", "candidates"] * len(cases)
    chunks = -(-66 // discovery._RULE_CHUNK)
    for (_, truth_tree), (_, candidate_tree) in zip(built[::2], built[1::2]):
        assert candidate_tree.n > truth_tree.n
        queried = np.concatenate(truth_tree.__dict__["queried"])
        assert len(queried) == len(np.unique(queried, axis=0))
        listed = candidate_tree.__dict__["queried"]
        assert 1 <= len(listed) <= chunks
        listed = np.concatenate(listed)
        assert len(listed) == len(np.unique(listed, axis=0)) <= truth_tree.n
        assert set(map(tuple, listed)) <= set(map(tuple, truth_tree.data))


def test_sweeps_of_two_rules_or_more_are_scored_by_chunks_and_a_lone_rule_by_evaluate(
        monkeypatch):
    # availability's 8 rules, a 2-rule sweep, the 66-rule grid, zoned or not,
    # a stacking sweep and the grid on modalities 1e-12 off the truth's grid
    # are scored by `_Candidates.reports`; a lone linear or stacking rule is
    # scored by `evaluate`. Every report is `evaluate`'s on the dense path.
    evaluated, chunked = [], []
    reports = discovery._Candidates.reports

    def counted_evaluate(*args, **kwargs):
        evaluated.append(1)
        return evaluate(*args, **kwargs)

    def counted_reports(self, *args):
        chunked.append(len(self.rules))
        return reports(self, *args)

    monkeypatch.setattr(discovery, "evaluate", counted_evaluate)
    monkeypatch.setattr(discovery._Candidates, "reports", counted_reports)
    cases = mixed_grid_cases(seed=13)
    apart = modalities_apart(cases)
    few = EvalConfig(min_region_voxels=4)
    two = [LinearRule(np.array(a)) for a in ((0.5, 0.5, 0.0), (0.2, 0.3, 0.5))]
    stacking = rejection_sample_stacking(n_rules=8)

    def availability_rows():
        table = availability_analysis(cases, config=few)
        return [table.base] + [row.evaluation for row in table.rows]

    runs = [  # (its rows, its cases, its config, its rules scored by chunks)
        (availability_rows, cases, few, 8),
        (lambda: discovery._sweep(cases, two, few, threads=1), cases, few, 2),
        (lambda: grid_search_linear(cases, step=0.1).rows, cases, EvalConfig(), 66),
        (lambda: grid_search_linear(cases, step=0.1, config=EvalConfig(zone="slab")).rows, cases,
         EvalConfig(zone="slab"), 66),
        (lambda: grid_search_stacking(cases, stacking, config=few).rows, cases, few,
         len(stacking.entries)),
        (lambda: grid_search_linear(apart, step=0.1).rows, apart, EvalConfig(), 66),
        (lambda: [evaluate_rule(cases, two[1], config=few)], cases, few, 0),
        (lambda: [evaluate_rule(cases, stacking.entries[0].rule, config=few)], cases, few, 0),
    ]
    for rows, dataset, config, n_chunked in runs:
        evaluated.clear()
        chunked.clear()
        rows = rows()
        if n_chunked:
            assert chunked == [n_chunked] * len(dataset) and len(rows) == n_chunked > 1
            assert not evaluated
        else:
            assert len(evaluated) == len(rows) * len(dataset) and not chunked
        for case in dataset:
            buffers = discovery._Buffers(case.truth.dims)
            for row in rows:
                assert_equal_reports(dict(row.per_case)[case.case_id],
                                     dense_report(case, row.rule, config, buffers))


@pytest.mark.parametrize("threads", [1, 3])
def test_case_major_stacking_sweep_equals_per_pair_evaluation(threads):
    cases = mixed_grid_cases(seed=10)[:3]
    rules = rejection_sample_stacking(n_rules=12)
    config = EvalConfig(min_region_voxels=2)
    result = grid_search_stacking(cases, rules, config=config, threads=threads)
    for row in result.rows:
        for case, (_, report) in zip(cases, row.per_case):
            pred = binarize(combine_stacking(case.modalities, row.rule), 0.5, 2)
            assert report == evaluate(pred, case.truth, config.metrics)


@pytest.mark.parametrize("zone", [None, "slab"])
def test_mc_identical_across_thread_counts(zone):
    cases = mixed_grid_cases(seed=12)
    sampler = {"kind": "dirichlet", "concentration": [2, 1, 1]}
    config = EvalConfig(min_region_voxels=3, zone=zone)
    runs = [monte_carlo_uncertainty(cases, sampler, n_draws=5, seed=7, config=config,
                                    threads=threads) for threads in (1, 2, 4)]
    for other in runs[1:]:
        assert other.to_dict() == runs[0].to_dict()
        for a, b in zip(runs[0].cases, other.cases):
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.variance.tobytes() == b.variance.tobytes()
    # the first draw's map is copied, not left in a buffer later draws overwrite
    rule = LinearRule(np.array([0.6, 0.3, 0.1]))
    other = LinearRule(np.array([0.1, 0.1, 0.8]))
    fixed = {"kind": "fixed", "model": "linear", "rules": [rule, other]}
    case = cases[0]
    result = monte_carlo_uncertainty([case], fixed, n_draws=2, config=config, threads=2)
    maps = [combine_linear(case.modalities, r).values for r in (rule, other)]
    np.testing.assert_array_equal(result.cases[0].mean, maps[0] + (maps[1] - maps[0]) / 2)
    zone_mask = case.zones[zone] if zone else None
    dscs = [evaluate(binarize(combine_linear(case.modalities, r), 0.5, 3), case.truth,
                     zone=zone_mask).dsc for r in (rule, other)]
    assert result.cases[0].dsc_mean == dscs[0] + (dscs[1] - dscs[0]) / 2


@pytest.mark.parametrize("threads", [2, 64])
@pytest.mark.parametrize(
    "sweep",
    [
        lambda cases, threads: grid_search_linear(cases, step=0.5, threads=threads),  # 6 rules
        lambda cases, threads: availability_analysis(cases, threads=threads),  # base + 7 subsets
    ],
    ids=["grid_search_linear", "availability_analysis"],
)
def test_dataset_sweep_forks_one_child(sweep, threads, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    sweep(truth_cases(3), threads)
    assert len(forks) == 1  # the calling process is the other worker


def mc_outputs(result):
    """An MC result's report and the bytes of every case's mean and variance."""
    return result.to_dict(), [(c.mean.tobytes(), c.variance.tobytes()) for c in result.cases]


@pytest.fixture(scope="module")
def sweeps():
    """Every dataset sweep, as name -> f(dataset, threads) giving comparable output."""
    stacking = rejection_sample_stacking(n_rules=2)
    rule = LinearRule(np.array([0.5, 0.25, 0.25]))
    return {
        "evaluate_rule": lambda dataset, threads: evaluate_rule(
            dataset, rule, threads=threads).to_dict(include_cases=True),
        "grid_search_linear": lambda dataset, threads: grid_search_linear(
            dataset, step=0.5, threads=threads).to_dict(include_cases=True),
        "grid_search_stacking": lambda dataset, threads: grid_search_stacking(
            dataset, stacking, threads=threads).to_dict(include_cases=True),
        "availability_analysis": lambda dataset, threads: availability_analysis(
            dataset, threads=threads).to_dict(),
        "monte_carlo_uncertainty": lambda dataset, threads: mc_outputs(monte_carlo_uncertainty(
            dataset, {"kind": "dirichlet"}, n_draws=3, seed=5, threads=threads)),
    }


SWEEP_NAMES = ["evaluate_rule", "grid_search_linear", "grid_search_stacking",
               "availability_analysis", "monte_carlo_uncertainty"]


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_each_case_is_read_once_per_sweep(name, sweeps, tmp_path, monkeypatch):
    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    cases = truth_cases(4)
    results = []
    for threads in (1, 2):
        log = tmp_path / f"loads{threads}"
        results.append(sweeps[name]([LoggedSource(case, log) for case in cases], threads))
        loads = logged_loads(log)
        assert sorted(case_id for case_id, _ in loads) == [case.case_id for case in cases]
        assert len({pid for _, pid in loads}) == threads  # both workers read cases
    assert results[1] == results[0]


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_sweeps_refuse_an_empty_dataset_and_take_a_generator(name, sweeps, monkeypatch):
    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="non-empty dataset"):
            sweeps[name](empty, 1)
    cases = truth_cases(3)
    expected = sweeps[name](cases, 1)
    for threads in (1, 2):
        assert sweeps[name]((case for case in reversed(cases)), threads) == expected


def test_workers_capped_by_threads_cpus_and_tasks(monkeypatch):
    for cpus in (1, 2, 3, 64):
        monkeypatch.setattr(discovery, "_usable_cpus", lambda: cpus)
        for threads in (1, 2, 3, 64, 10_000):
            for n_tasks in (0, 1, 2, 9, 594, 10_000):
                expected = max(1, min(threads, cpus, n_tasks))
                assert discovery._workers(threads, n_tasks) == expected
    monkeypatch.undo()
    assert discovery._workers(10_000, 10_000) == len(os.sched_getaffinity(0))
    monkeypatch.setattr(threading, "active_count", lambda: 2)  # fork would be unsafe
    assert discovery._workers(10_000, 10_000) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert discovery._workers(10_000, 10_000) == 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_predict(monkeypatch, act):
    """Patch `_predict` so that `act(case_id, where)` runs first, with
    `where` "parent" or "child"."""
    parent = os.getpid()
    real = discovery._predict

    def patched(case, *args, **kwargs):
        act(case.case_id, "parent" if os.getpid() == parent else "child")
        return real(case, *args, **kwargs)

    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(discovery, "_predict", patched)


RULE = LinearRule(np.array([0.5, 0.25, 0.25]))


@pytest.mark.parametrize(
    "failing, expected",
    [
        ({"c01"}, "case c01: boom in child"),
        ({"c02"}, "case c02: boom in parent"),
        ({"c02", "c03"}, "case c02: boom in parent"),  # the earliest in task order
        ({"c01", "c02"}, "case c01: boom in child"),
    ],
    ids=["child", "parent", "parent-before-child", "child-before-parent"],
)
def test_forked_sweep_raises_first_failure_and_reaps(failing, expected, monkeypatch):
    # one rule: four one-case tasks, c00 and c02 in the parent, c01 and c03 in the child
    def act(case_id, where):
        if case_id in failing:
            raise ValueError(f"boom in {where}")

    failing_predict(monkeypatch, act)
    with pytest.raises(DataError) as info:
        evaluate_rule(truth_cases(4), RULE, threads=2)
    assert str(info.value) == expected
    assert_no_child_left()


def test_child_dying_mid_stripe_names_its_case(monkeypatch):
    def act(case_id, where):
        if case_id == "c03":
            assert where == "child"
            os._exit(3)

    failing_predict(monkeypatch, act)
    with pytest.raises(DataError) as info:
        evaluate_rule(truth_cases(4), RULE, threads=2)
    assert str(info.value) == (
        "case c03: worker process exited with code 3 before returning its results"
    )
    assert_no_child_left()


def test_interrupted_parent_kills_and_reaps_children(monkeypatch):
    def act(case_id, where):
        if where == "child":
            time.sleep(60)
        elif case_id == "c02":
            raise KeyboardInterrupt

    failing_predict(monkeypatch, act)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        evaluate_rule(truth_cases(4), RULE, threads=2)
    assert time.monotonic() - start < 30  # the sleeping child was killed, not awaited
    assert_no_child_left()


class TwoArgumentError(Exception):
    """Pickles with its message as the only argument, so it will not unpickle."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@pytest.mark.parametrize(
    "error, expected",
    [(ValueError("bad draw"), ValueError), (TwoArgumentError("bad", "draw"), DataError)],
)
def test_mc_child_failure_keeps_its_type_and_message(error, expected, monkeypatch):
    real = discovery._predict
    parent = os.getpid()

    def failing(case, *args, **kwargs):
        if case.case_id == "c01":
            assert os.getpid() != parent
            raise error
        return real(case, *args, **kwargs)

    monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(discovery, "_predict", failing)
    with pytest.raises(expected) as info:
        monte_carlo_uncertainty(truth_cases(3), {"kind": "dirichlet"}, n_draws=2, threads=2)
    assert type(info.value) is expected
    assert str(info.value) == str(error)
    assert_no_child_left()


def test_threaded_sweep_failure_names_case(monkeypatch):
    # a lone rule fails in `_predict`, a stacking or linear sweep in
    # `_Candidates`; each failure names its case
    cases = truth_cases(4)
    stacking = rejection_sample_stacking(n_rules=8)
    real = discovery._predict

    def failing(case, *args, **kwargs):
        if case.case_id == "c02":
            raise ValueError("boom")
        return real(case, *args, **kwargs)

    monkeypatch.setattr(discovery, "_predict", failing)
    with pytest.raises(DataError, match="case c02: boom"):
        evaluate_rule(cases, stacking.entries[0].rule, threads=2)
    real_candidates = discovery._Candidates

    def failing_candidates(case, *args):
        if case.case_id == "c02":
            raise ValueError("boom")
        return real_candidates(case, *args)

    monkeypatch.setattr(discovery, "_Candidates", failing_candidates)
    with pytest.raises(DataError, match="case c02: boom"):
        grid_search_stacking(cases, stacking, threads=2)
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


def test_rank_of_linear_matches_within_its_absolute_tolerance_only():
    # with numpy's default rtol of 1e-5 on top, 4e-6 off at α = 0.5 would match
    alpha = [0.500004, 0.499996, 0.0]
    row = evaluate_rule(truth_cases(1), LinearRule(np.array(alpha)))
    result = GridSearchResult(rows=(row,), rank_by="dsc", split="validation", options={})
    assert result.rank_of_linear([0.5, 0.5, 0.0]) is None
    assert result.rank_of_linear(alpha) == 1


def test_grid_search_heatmap_rows():
    cases = truth_cases(2)
    result = grid_search_linear(cases, step=0.5)
    rows = result.heatmap_rows()
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


@pytest.mark.parametrize("n", [2, 3, 16])
def test_shifted_moments_are_bitwise_the_out_of_place_formulas(n):
    # the in-place mean and variance repeat first + s1/n and s2/n - (s1/n)**2
    rng = np.random.default_rng(n)
    draws = [rng.random((5, 4, 3)) for _ in range(n)]
    draws[1][0] = draws[0][0]  # a point mass where every draw agrees would give 0
    first = draws[0]
    s1 = sum((d - first for d in draws[1:]), np.zeros_like(first))
    s2 = sum(((d - first) ** 2 for d in draws[1:]), np.zeros_like(first))
    want_var = np.maximum(s2 / n - (s1 / n) ** 2, 0.0)
    mean, variance = discovery._shifted_moments((d.copy() for d in draws), n)
    assert mean.tobytes() == (first + s1 / n).tobytes()
    assert variance.tobytes() == want_var.tobytes()


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dirichlet_sampler_names_a_non_finite_concentration(bad):
    with pytest.raises(ValueError, match="concentration must be 3 positive finite reals"):
        RuleSampler({"kind": "dirichlet", "concentration": [bad, 1, 1]})


def test_dirichlet_sampler_names_a_concentration_too_large_to_draw_from():
    sampler = RuleSampler({"kind": "dirichlet", "concentration": [1e308, 1e308, 1e308]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"concentration \[1e\+308, 1e\+308, 1e\+308\] is too "
                                             r"large to draw from"):
            sampler.draw(np.random.default_rng(0), 0)
    assert caught == []


def test_dirichlet_sampler_draws_as_before():
    # the draw is the generator's Dirichlet draw divided by its sum
    sampler = RuleSampler({"kind": "dirichlet", "concentration": [2, 1, 0.5]})
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    for index in range(5):
        alpha = ref.dirichlet((2.0, 1.0, 0.5))
        assert sampler.draw(rng, index).alpha.tobytes() == (alpha / alpha.sum()).tobytes()


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
