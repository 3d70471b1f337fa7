import numpy as np
import pytest

from rulefuse.metrics import (
    MetricsConfig,
    connected_components,
    dice,
    evaluate,
    hd95,
    lesion_precision_pred,
    lesion_recall_gt,
)
from rulefuse.volumes import LabelVolume

import oracles


def mask(values, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(np.asarray(values, dtype=bool), spacing=spacing)


def empty(dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0)):
    return mask(np.zeros(dims), spacing)


def cube(dims, lo, hi, spacing=(1.0, 1.0, 1.0)):
    values = np.zeros(dims, dtype=bool)
    values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return mask(values, spacing)


# --- dice ----------------------------------------------------------------------


def test_dice_identical_masks():
    m = cube((6, 6, 6), (1, 1, 1), (4, 4, 4))
    assert dice(m, m) == 1.0


def test_dice_disjoint_masks():
    a = cube((8, 8, 8), (0, 0, 0), (2, 2, 2))
    b = cube((8, 8, 8), (5, 5, 5), (7, 7, 7))
    assert dice(a, b) == 0.0


def test_dice_shifted_cube_half():
    a = cube((8, 8, 8), (2, 2, 2), (4, 4, 4))
    b = cube((8, 8, 8), (3, 2, 2), (5, 4, 4))  # shifted 1 voxel in x, overlap 4
    assert dice(a, b) == pytest.approx(0.5)


def test_dice_both_empty_defined_as_one():
    assert dice(empty(), empty()) == 1.0


def test_dice_symmetry_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(10, 10, 10))
        a, b = mask(a_values), mask(b_values)
        assert dice(a, b) == dice(b, a)


# --- hd95 ----------------------------------------------------------------------


def test_hd95_identical_masks_zero():
    m = cube((8, 8, 8), (2, 2, 2), (6, 6, 6))
    assert hd95(m, m) == 0.0


def test_hd95_two_points_distance():
    a = np.zeros((16, 4, 4), dtype=bool)
    b = np.zeros((16, 4, 4), dtype=bool)
    a[2, 1, 1] = True
    b[12, 1, 1] = True
    assert hd95(mask(a), mask(b)) == pytest.approx(10.0)
    # spacing scales distances linearly
    assert hd95(mask(a, (2.0, 1.0, 1.0)), mask(b, (2.0, 1.0, 1.0))) == pytest.approx(20.0)


def test_hd95_empty_is_undefined():
    m = cube((6, 6, 6), (1, 1, 1), (3, 3, 3))
    assert hd95(m, empty()) is None
    assert hd95(empty(), m) is None
    assert hd95(empty(), empty()) is None


def test_hd95_symmetric():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(10, 10, 10))
        if not a_values.any() or not b_values.any():
            continue
        a, b = mask(a_values), mask(b_values)
        assert hd95(a, b) == pytest.approx(hd95(b, a), abs=1e-12)


# --- connected components --------------------------------------------------------


def test_components_empty_mask():
    assert len(connected_components(empty())) == 0


def test_components_full_mask_is_one_component():
    lesions = connected_components(mask(np.ones((4, 4, 4))))
    assert len(lesions) == 1
    assert lesions.components[0].voxel_count == 64


@pytest.mark.parametrize("connectivity", [0, 7, 27])
def test_components_reject_unknown_connectivity(connectivity):
    with pytest.raises(ValueError, match=f"got {connectivity}"):
        connected_components(mask(np.ones((4, 4, 4))), connectivity=connectivity)


def test_components_corner_touch_connectivity():
    values = np.zeros((8, 8, 8), dtype=bool)
    values[0:2, 0:2, 0:2] = True
    values[2:4, 2:4, 2:4] = True  # touches at one corner
    assert len(connected_components(mask(values), connectivity=26)) == 1
    assert len(connected_components(mask(values), connectivity=6)) == 2


def test_components_volume_and_counts():
    values = np.zeros((8, 8, 8), dtype=bool)
    values[0:2, 0:2, 0:2] = True
    lesions = connected_components(mask(values, spacing=(1.0, 2.0, 3.0)))
    assert len(lesions) == 1
    comp = lesions.components[0]
    assert comp.voxel_count == 8
    assert comp.volume_mm3 == pytest.approx(8 * 6.0)
    # indices enumerate exactly the positive voxels
    got = {tuple(ix) for ix in comp.indices}
    assert got == {(x, y, z) for x in range(2) for y in range(2) for z in range(2)}


# --- lesion recall / precision ---------------------------------------------------


def test_recall_full_coverage():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert lesion_recall_gt(truth, truth, s_gt=0.1) == 1.0


def test_recall_empty_pred():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert lesion_recall_gt(empty((10, 10, 10)), truth, s_gt=0.1) == 0.0


def test_recall_zero_gt_lesions_undefined():
    pred = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert lesion_recall_gt(pred, empty((10, 10, 10)), s_gt=0.1) is None


def test_recall_partial_coverage_two_lesions():
    dims = (14, 8, 8)
    truth = np.zeros(dims, dtype=bool)
    truth[1:6, 1:5, 1:6] = True  # lesion A: 100 voxels
    truth[9:13, 1:6, 1:6] = True  # lesion B: 100 voxels
    pred = np.zeros(dims, dtype=bool)
    pred[1:4, 1:5, 1:6] = True  # 60% of A
    pred[9, 1, 1:6] = True  # 5% of B
    r = lesion_recall_gt(mask(pred), mask(truth), s_gt=0.1)
    assert r == pytest.approx(0.5)


def test_precision_pred_inside_truth():
    truth = cube((10, 10, 10), (1, 1, 1), (6, 6, 6))
    pred = cube((10, 10, 10), (2, 2, 2), (4, 4, 4))
    assert lesion_precision_pred(pred, truth, s_pred=0.1) == 1.0


def test_precision_pred_outside_truth():
    truth = cube((10, 10, 10), (1, 1, 1), (3, 3, 3))
    pred = cube((10, 10, 10), (6, 6, 6), (9, 9, 9))
    assert lesion_precision_pred(pred, truth, s_pred=0.1) == 0.0


def test_precision_threshold_strictness():
    dims = (12, 8, 8)
    truth = np.zeros(dims, dtype=bool)
    truth[0:3, 0:8, 0:8] = True
    pred = np.zeros(dims, dtype=bool)
    pred[0:10, 0, 0] = True  # 10 voxels, 3 inside truth -> 30% coverage
    assert lesion_precision_pred(mask(pred), mask(truth), s_pred=0.5) == 0.0
    assert lesion_precision_pred(mask(pred), mask(truth), s_pred=0.25) == 1.0


def test_precision_no_pred_lesions_undefined():
    truth = cube((10, 10, 10), (1, 1, 1), (4, 4, 4))
    assert lesion_precision_pred(empty((10, 10, 10)), truth, s_pred=0.1) is None


def test_overlap_threshold_validation():
    m = cube((6, 6, 6), (1, 1, 1), (3, 3, 3))
    for bad in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            lesion_recall_gt(m, m, s_gt=bad)
        with pytest.raises(ValueError):
            lesion_precision_pred(m, m, s_pred=bad)


# --- evaluate -------------------------------------------------------------------


def test_evaluate_perfect_prediction():
    truth = cube((10, 10, 10), (2, 2, 2), (6, 6, 6))
    report = evaluate(truth, truth)
    assert report.dsc == 1.0
    assert not report.dsc_both_empty
    assert report.hd95_mm == 0.0
    assert report.recall_gt == 1.0
    assert report.precision_pred == 1.0
    assert report.n_gt_lesions == report.n_pred_lesions == 1
    assert report.thresholds == (0.1, 0.1)


def test_evaluate_both_empty_flags():
    report = evaluate(empty(), empty())
    assert report.dsc == 1.0
    assert report.dsc_both_empty
    assert report.hd95_mm is None
    assert report.recall_gt is None
    assert report.precision_pred is None
    assert report.n_gt_lesions == report.n_pred_lesions == 0


def test_evaluate_zone_restriction():
    dims = (12, 6, 6)
    truth = np.zeros(dims, dtype=bool)
    truth[1:3, 1:4, 1:4] = True  # inside zone
    truth[8:10, 1:4, 1:4] = True  # outside zone
    pred = truth.copy()
    pred[8:10, 1:4, 1:4] = False  # prediction misses the outside lesion
    zone = np.zeros(dims, dtype=bool)
    zone[0:6] = True
    full = evaluate(mask(pred), mask(truth))
    zonal = evaluate(mask(pred), mask(truth), zone=mask(zone))
    assert full.dsc < 1.0
    assert zonal.dsc == 1.0
    assert zonal.n_gt_lesions == 1


def test_evaluate_config_echoed():
    m = cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    report = evaluate(m, m, MetricsConfig(s_gt=0.3, s_pred=0.4, connectivity=6))
    assert report.thresholds == (0.3, 0.4)
    assert report.connectivity == 6
    doc = report.to_dict()
    assert doc["s_gt"] == 0.3 and doc["s_pred"] == 0.4


# --- oracle spot-checks (full 200-pair sweep lives in the acceptance suite) ------


def test_metrics_match_bruteforce_oracle_spot():
    rng = np.random.default_rng(7)
    spacing = (1.0, 1.5, 2.0)
    checked = 0
    for _ in range(12):
        a_values, b_values = oracles.random_mask_pair(rng, dims=(9, 9, 9))
        a, b = mask(a_values, spacing), mask(b_values, spacing)
        assert dice(a, b) == pytest.approx(oracles.dice_bf(a_values, b_values), abs=1e-12)
        got = hd95(a, b)
        want = oracles.hd95_bf(a_values, b_values, spacing)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-6)
            checked += 1
        ours = connected_components(a)
        theirs = oracles.flood_fill_components(a_values)
        assert len(ours) == len(theirs)
        assert sorted(c.voxel_count for c in ours.components) == sorted(
            len(c) for c in theirs
        )
        assert lesion_recall_gt(a, b, 0.1) == oracles.lesion_recall_bf(a_values, b_values, 0.1)
        assert lesion_precision_pred(a, b, 0.1) == oracles.lesion_precision_bf(
            a_values, b_values, 0.1
        )
    assert checked >= 3  # the generator must exercise non-empty pairs
