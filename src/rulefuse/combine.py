"""Apply fitted rules to aligned probability volumes.

All maps are voxel-wise, so outputs are independent of any internal
chunking; determinism is checked by the CLI round-trip tests.
"""

from __future__ import annotations

import numpy as np

from . import backends
from .fitting import LinearRule, StackingRule
from .metrics import LabelledMask
from .volumes import LabelVolume, Modality, ProbabilityVolume, validate_aligned

EVAL_LOSS_EPS = 1e-7


def _as_linear(rule) -> LinearRule:
    if isinstance(rule, LinearRule):
        return rule
    return LinearRule(np.asarray(rule, dtype=np.float64))


def _as_stacking(rule) -> StackingRule:
    if isinstance(rule, StackingRule):
        return rule
    return StackingRule(np.asarray(rule, dtype=np.float64))


def linear_map(volumes, weights, out=None, product=None) -> np.ndarray:
    """Raw voxel-wise weighted sum, without simplex validation or clamping.

    Exists so additivity in the weights can be exercised outside the simplex;
    prefer combine_linear for producing valid probability volumes. For
    convex weights, thresholding this map at t in (0, 1) gives the mask that
    thresholding combine_linear's clipped map gives.

    The first weighted modality is written straight into the output, which
    is exact for weights >= 0 since 0.0 + w·y == w·y; a negative first
    weight can leave -0.0 where the sum would hold 0.0.

    `out` and `product`, float64 arrays of the volumes' shape, receive the
    map and the scratch products instead of fresh arrays.
    """
    volumes = list(volumes)
    if len(volumes) != 3:
        raise ValueError(f"expected 3 volumes, got {len(volumes)}")
    validate_aligned(volumes)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (3,):
        raise ValueError(f"expected 3 weights, got shape {weights.shape}")
    written = False
    for w, vol in zip(weights, volumes):
        if w == 0.0:  # zero weight leaves the output bit-exactly unaffected
            continue
        if not written:
            out = np.multiply(vol.values, w, out=out)
            written = True
            continue
        if product is None:
            product = np.empty_like(out)
        out += np.multiply(vol.values, w, out=product)
    if written:
        return out
    if out is None:
        return np.zeros(volumes[0].dims, dtype=np.float64)
    out.fill(0.0)
    return out


def combine_linear(volumes, rule) -> ProbabilityVolume:
    """Convex combination Z = Σ_τ α_τ·Y^τ of the three modality maps."""
    rule = _as_linear(rule)
    out = linear_map(volumes, rule.alpha)
    # convexity keeps values in [0,1]; clip only absorbs float rounding
    np.clip(out, 0.0, 1.0, out=out)
    return ProbabilityVolume(out, spacing=list(volumes)[0].spacing, modality=Modality.COMBINED)


def stacking_map(volumes, rule, out=None, product=None) -> np.ndarray:
    """Logistic stack σ(Σ_τ β_τ·Y^τ + β₀) as a plain array, computed in place;
    `out` and `product` are as for `linear_map`."""
    rule = _as_stacking(rule)
    out = linear_map(volumes, rule.weights, out, product)
    out += rule.bias
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def combine_stacking(volumes, rule) -> ProbabilityVolume:
    """Logistic stack Z = σ(Σ_τ β_τ·Y^τ + β₀)."""
    return ProbabilityVolume(
        stacking_map(volumes, rule), spacing=list(volumes)[0].spacing, modality=Modality.COMBINED
    )


def combine_vote(masks) -> LabelVolume:
    """Majority vote over three binary masks: positive iff at least 2 of 3 agree."""
    masks = list(masks)
    if len(masks) != 3:
        raise ValueError(f"expected 3 masks, got {len(masks)}")
    validate_aligned(masks)
    total = sum(m.values.astype(np.uint8) for m in masks)
    return LabelVolume(total >= 2, spacing=masks[0].spacing)


def binarize_components(
    values: np.ndarray,
    spacing,
    threshold: float = 0.5,
    min_region_voxels: int = 27,
    connectivity: int = 26,
    mask_out: np.ndarray | None = None,
    labels_out: np.ndarray | None = None,
):
    """`binarize` of a probability map given as an array on a grid of `spacing`,
    as a `metrics.LabelledMask`: the mask with its support and the component
    labelling it was made from, which `metrics.evaluate` scores without
    scanning or labelling the mask again.

    In the (labels, counts, keep) triple, `labels` numbers the connected
    components of the thresholded map, `counts[i]` is the voxel count of
    label i and `keep[i]` marks the components that survive in the mask.
    Label 0 is background and is never kept.

    The map is scanned once: the positives are found once, only their
    bounding box is labelled, and dropped components are cleared at their
    voxels. `mask_out` (bool) and `labels_out` (C-contiguous int32), of the
    map's shape, receive the mask and labels instead of fresh arrays; the
    returned mask is then a read-only view of `mask_out`, valid until the
    buffer is written again.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if min_region_voxels < 0:
        raise ValueError(f"min_region_voxels must be >= 0, got {min_region_voxels}")
    mask = np.greater(values, threshold, out=mask_out)
    support = backends.support_of(mask)
    labels, counts, keep = backends.components(
        mask, connectivity, min_region_voxels, support, labels_out
    )
    if not keep[1:].all():
        flat = support.flat
        kept = keep.take(labels.ravel().take(flat))
        mask.flat[flat[~kept]] = False  # `flat` indexes in C order whatever the layout
        flat = flat[kept]
        support = backends.Support(flat, backends.bounding_box(flat, mask.shape))
    volume = LabelVolume(mask if mask_out is None else mask.view(), spacing=spacing)
    return LabelledMask(volume, support, (labels, counts, keep), connectivity)


def binarize(
    volume: ProbabilityVolume,
    threshold: float = 0.5,
    min_region_voxels: int = 27,
    connectivity: int = 26,
) -> LabelVolume:
    """Threshold strictly above `threshold`, then drop small components.

    Components with fewer than min_region_voxels voxels are removed; 27
    corresponds to a 3×3×3 block at 1mm isotropic spacing.
    """
    return binarize_components(
        volume.values, volume.spacing, threshold, min_region_voxels, connectivity
    ).volume


def eval_loss(pred: ProbabilityVolume, truth: LabelVolume) -> float:
    """Summed cross-entropy minus soft-Dice overlap, sign as in training use.

    Lower is better on the cross-entropy term only if its sign is flipped;
    this returns the raw printed form Σ[t·log y + (1−t)·log(1−y)] − Dice(y,t),
    which callers treat as an opaque comparable score.
    """
    validate_aligned([pred, truth], names=["pred", "truth"])
    y = np.clip(pred.values, EVAL_LOSS_EPS, 1.0 - EVAL_LOSS_EPS)
    t = truth.values.astype(np.float64)
    ce = float(np.sum(t * np.log(y) + (1.0 - t) * np.log1p(-y)))
    denom = float(y.sum() + t.sum())
    dice = 2.0 * float(np.sum(y * t)) / denom if denom > 0.0 else 0.0
    return ce - dice
