import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rulefuse import backends
from rulefuse.combine import (
    binarize,
    combine_linear,
    combine_stacking,
    combine_vote,
    label_positives,
    linear_map,
)
from rulefuse.errors import AlignmentError
from rulefuse.fitting import LinearRule, StackingRule
from rulefuse.metrics import evaluate
from rulefuse.volumes import LabelVolume, Modality, ProbabilityVolume

import oracles


def vol(values, spacing=(1.0, 1.0, 1.0)):
    return ProbabilityVolume(np.asarray(values, dtype=np.float64), spacing=spacing)


def const_vols(a, b, c, dims=(2, 2, 2)):
    return [vol(np.full(dims, v)) for v in (a, b, c)]


def test_one_hot_projection_is_bit_exact():
    rng = np.random.default_rng(0)
    vols = [vol(rng.random((4, 4, 4))) for _ in range(3)]
    out = combine_linear(vols, LinearRule(np.array([1.0, 0.0, 0.0])))
    np.testing.assert_array_equal(out.values, vols[0].values)
    assert out.modality is Modality.COMBINED


def test_equal_weights_mean():
    out = combine_linear(const_vols(0.9, 0.6, 0.3), LinearRule(np.full(3, 1 / 3)))
    np.testing.assert_allclose(out.values, 0.6)


def test_weighted_combination_hand_value():
    out = combine_linear(const_vols(1.0, 0.5, 0.0), LinearRule(np.array([0.6, 0.2, 0.2])))
    np.testing.assert_allclose(out.values, 0.7)


def test_combine_linear_requires_alignment():
    vols = const_vols(0.1, 0.2, 0.3)
    vols[2] = vol(np.zeros((3, 2, 2)))
    with pytest.raises(AlignmentError):
        combine_linear(vols, LinearRule(np.full(3, 1 / 3)))


def test_combine_linear_rejects_non_simplex():
    with pytest.raises(ValueError):
        combine_linear(const_vols(0.1, 0.2, 0.3), LinearRule(np.array([0.5, 0.5, 0.5])))


def test_zero_weight_ignores_modality_bit_exactly():
    rng = np.random.default_rng(1)
    vols = [vol(rng.random((4, 4, 4))) for _ in range(3)]
    rule = LinearRule(np.array([0.7, 0.3, 0.0]))
    base = combine_linear(vols, rule)
    vols[2] = vol(rng.random((4, 4, 4)))  # perturb the zero-weight modality
    again = combine_linear(vols, rule)
    np.testing.assert_array_equal(base.values, again.values)


@settings(deadline=None, max_examples=30)
@given(
    hnp.arrays(np.float64, (3, 3, 3, 3), elements=st.floats(0, 1)),
    st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    st.lists(st.floats(-1, 1), min_size=3, max_size=3),
)
def test_linear_map_additive_in_weights(stack, w1, w2):
    vols = [vol(stack[i]) for i in range(3)]
    w1, w2 = np.array(w1), np.array(w2)
    lhs = linear_map(vols, w1) + linear_map(vols, w2)
    rhs = linear_map(vols, w1 + w2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _maps_with_exact_ends(rng, dims=(6, 5, 4)):
    """Random maps whose first slab is 1.0 and last slab 0.0 in every modality."""
    vols = []
    for _ in range(3):
        values = rng.random(dims)
        values[0], values[-1] = 1.0, 0.0
        vols.append(vol(values))
    return vols


def test_linear_map_bitwise_equals_accumulation_reference():
    rng = np.random.default_rng(4)
    vols = _maps_with_exact_ends(rng)
    rules = [rng.dirichlet((1.0, 1.0, 1.0)) for _ in range(30)]
    rules += [np.eye(3)[i] for i in range(3)]  # one-hot
    rules += [np.array(a) for a in ((0.5, 0.5, 0.0), (0.0, 0.25, 0.75), (0.6, 0.0, 0.4))]
    for alpha in rules:
        got = linear_map(vols, alpha)
        assert got.tobytes() == oracles.linear_map_ref(vols, alpha).tobytes(), alpha


def test_unclipped_linear_map_thresholds_like_combine_linear():
    # the sweep thresholds linear_map directly; a convex sum of 1.0s can round
    # past 1, which combine_linear clips, and no threshold in (0, 1) may tell
    rng = np.random.default_rng(5)
    vols = _maps_with_exact_ends(rng)
    above_one = 0
    for _ in range(40):
        alpha = rng.dirichlet((1.0, 1.0, 1.0))
        raw = linear_map(vols, alpha)
        clipped = combine_linear(vols, LinearRule(alpha)).values
        above_one += bool((raw > 1.0).any())
        inner = clipped[(clipped > 0.0) & (clipped < 1.0)]
        for t in np.concatenate([np.linspace(0.01, 0.99, 99), inner, np.nextafter(inner, 1.0)]):
            np.testing.assert_array_equal(raw > t, clipped > t)
    assert above_one  # the grid must exercise the rounding the clip absorbs


def test_stacking_map_bitwise_equals_sigmoid_of_summed_logits():
    # stacking_map works in place; every voxel must still get the same bits
    rng = np.random.default_rng(6)
    vols = _maps_with_exact_ends(rng)
    betas = list(rng.normal(0.0, 8.0, size=(20, 4))) + [np.array([0.0, -3.0, 2.0, 0.0])]
    for beta in betas:
        logits = oracles.linear_map_ref(vols, beta[:3]) + beta[3]
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-logits))
        got = combine_stacking(vols, StackingRule(beta)).values
        assert got.tobytes() == want.tobytes(), beta


def test_stacking_zero_beta_gives_half():
    out = combine_stacking(const_vols(0.1, 0.9, 0.4), StackingRule(np.zeros(4)))
    np.testing.assert_allclose(out.values, 0.5)


def test_stacking_balanced_logit_gives_half():
    beta = StackingRule(np.array([4.0, 0.0, 0.0, -2.0]))
    out = combine_stacking(const_vols(0.5, 0.123, 0.987), beta)
    np.testing.assert_allclose(out.values, 0.5)


def test_stacking_saturates_for_wg_style_weights():
    # strong positive evidence from both T2W and DWI_hb drives sigma to ~1
    beta = StackingRule(np.array([18.17, 18.17, -0.20, -8.53]))
    out = combine_stacking(const_vols(1.0, 1.0, 1.0), beta)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-8)


def test_threshold_equivalence_with_logits():
    rng = np.random.default_rng(2)
    vols = [vol(rng.random((5, 5, 5))) for _ in range(3)]
    beta = StackingRule(np.array([3.0, -2.0, 1.0, -1.0]))
    via_prob = binarize(combine_stacking(vols, beta), 0.5, min_region_voxels=1)
    direct = linear_map(vols, beta.weights) + beta.bias > 0.0
    np.testing.assert_array_equal(via_prob.values, direct)


def test_vote_majority_cases():
    def mask(bits):
        return LabelVolume(np.array(bits, dtype=bool).reshape(1, 1, 3))

    a = mask([1, 1, 0])
    b = mask([1, 0, 0])
    c = mask([0, 1, 1])
    out = combine_vote([a, b, c])
    np.testing.assert_array_equal(out.values.ravel(), [True, True, False])


def test_vote_unanimity_identity():
    m = LabelVolume(np.random.default_rng(3).random((4, 4, 4)) > 0.5)
    out = combine_vote([m, m, m])
    np.testing.assert_array_equal(out.values, m.values)


def test_vote_equals_mean_threshold():
    rng = np.random.default_rng(4)
    masks = [LabelVolume(rng.random((6, 6, 6)) > 0.5) for _ in range(3)]
    voted = combine_vote(masks)
    as_probs = [ProbabilityVolume(m.values.astype(np.float64)) for m in masks]
    mean = combine_linear(as_probs, LinearRule(np.full(3, 1 / 3)))
    thresholded = binarize(mean, 0.5, min_region_voxels=1)
    np.testing.assert_array_equal(voted.values, thresholded.values)


def test_binarize_uniform_below_threshold_empty():
    out = binarize(vol(np.full((4, 4, 4), 0.4)))
    assert out.count() == 0


def test_binarize_threshold_is_strict():
    out = binarize(vol(np.full((4, 4, 4), 0.5)), threshold=0.5, min_region_voxels=1)
    assert out.count() == 0


def test_binarize_small_region_removal_boundary():
    values = np.zeros((10, 10, 10))
    values[1:4, 1:4, 1:4] = 0.9  # 27 voxels: kept
    values[6:8, 6:8, 6:8] = 0.9  # 8 voxels: removed
    out = binarize(vol(values), min_region_voxels=27)
    assert out.values[2, 2, 2]
    assert not out.values[6, 6, 6]
    assert out.count() == 27


def test_binarize_connectivity_matters():
    values = np.zeros((8, 8, 8))
    values[0:2, 0:2, 0:2] = 0.9
    values[2:5, 2:5, 2:5] = 0.9  # corner-touches the first block
    joined = binarize(vol(values), min_region_voxels=30, connectivity=26)
    assert joined.count() == 8 + 27  # one 35-voxel component survives
    split = binarize(vol(values), min_region_voxels=30, connectivity=6)
    assert split.count() == 0  # 8 and 27 both fall below 30


def _suppression_map():
    """A map whose thresholding gives blocks of 27 and 40 voxels and three
    small fragments, on a grid with no symmetric axes."""
    values = np.zeros((11, 9, 8))
    values[1:4, 1:4, 1:4] = 0.9
    values[5:9, 4:9, 5:7] = 0.8
    values[9, 0, 0] = values[0, 8, 7] = 0.7
    values[6:8, 1, 1] = 0.6
    return values


@pytest.mark.parametrize("connectivity", [6, 26])
def test_fortran_ordered_suppression_matches_c_order(connectivity):
    # volumes read from disk are Fortran-ordered; dropped components must be
    # cleared in the mask itself, not in a flattened copy
    values = _suppression_map()
    c_mask = binarize(vol(values), min_region_voxels=27, connectivity=connectivity)
    f_mask = binarize(vol(np.asfortranarray(values)), min_region_voxels=27,
                      connectivity=connectivity)
    assert c_mask.count() == 27 + 40
    np.testing.assert_array_equal(f_mask.values, c_mask.values)
    thresholded = np.asfortranarray(values) > 0.5
    assert thresholded.flags.f_contiguous and not thresholded.flags.c_contiguous
    got = label_positives(thresholded, backends.support_of(thresholded), (1.0, 1.0, 1.0), 27,
                          connectivity)
    labels, counts, keep = got.components
    np.testing.assert_array_equal(got.volume.values, c_mask.values)
    np.testing.assert_array_equal(got.positives, np.flatnonzero(c_mask.values))
    assert keep.sum() == 2 and counts.sum() == values.size
    assert got.connectivity == connectivity


def test_label_positives_into_buffers_matches_fresh_arrays():
    values = _suppression_map()

    def labelled(mask, labels_out=None):
        return label_positives(mask, backends.support_of(mask), (1.0, 1.0, 1.0), 27, 26,
                               labels_out)

    mask_buf = np.ones(values.shape, dtype=bool)
    labels_buf = backends.LabelBuffer(values.shape)  # a reused buffer, dirty everywhere
    labels_buf.array.fill(5)
    labels_buf.box = (slice(None),) * 3
    fresh = labelled(values > 0.5)
    for rerun in range(2):  # the second run starts from the first run's buffers
        got = labelled(np.greater(values, 0.5, out=mask_buf), labels_buf)
        assert np.shares_memory(got.volume.values, mask_buf)
        assert got.components[0] is labels_buf.array
        assert not got.volume.values.flags.writeable and mask_buf.flags.writeable
        np.testing.assert_array_equal(got.volume.values, fresh.volume.values)
        for a, b in zip(got.components, fresh.components):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got.positives, fresh.positives)


def test_public_results_are_read_only_and_not_aliased():
    rng = np.random.default_rng(3)
    vols = [vol(rng.random((8, 7, 6))) for _ in range(3)]
    truth = LabelVolume(rng.random((8, 7, 6)) > 0.6)
    rule = LinearRule(np.array([0.2, 0.3, 0.5]))
    a, b = combine_linear(vols, rule), combine_linear(vols, rule)
    assert not a.values.flags.writeable and not np.shares_memory(a.values, b.values)
    ma, mb = binarize(a, min_region_voxels=2), binarize(a, min_region_voxels=2)
    assert not ma.values.flags.writeable and not np.shares_memory(ma.values, mb.values)
    assert not np.shares_memory(ma.values, a.values)
    ra = evaluate(ma, truth)
    rb = evaluate(mb, truth)
    assert ra == rb and ra.to_dict() == evaluate(ma, truth).to_dict()
    with pytest.raises(AttributeError):
        ra.dsc = 0.0
    raw, raw2 = linear_map(vols, rule.alpha), linear_map(vols, rule.alpha)
    assert raw.flags.writeable and not np.shares_memory(raw, raw2)


def test_binarize_validates_threshold():
    with pytest.raises(ValueError):
        binarize(vol(np.zeros((2, 2, 2))), threshold=0.0)
    with pytest.raises(ValueError):
        binarize(vol(np.zeros((2, 2, 2))), threshold=1.0)
