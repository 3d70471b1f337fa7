"""Apply fitted rules to aligned probability volumes.

All maps are voxel-wise, so outputs are independent of any internal
chunking; determinism is checked by the CLI round-trip tests.
"""

from __future__ import annotations

import numpy as np

from . import backends
from .fitting import LinearRule, StackingRule
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


def linear_map(volumes, weights) -> np.ndarray:
    """Raw voxel-wise weighted sum, without simplex validation or clamping.

    Exists so additivity in the weights can be exercised outside the simplex;
    prefer combine_linear for producing valid probability volumes. For
    convex weights, thresholding this map at t in (0, 1) gives the mask that
    thresholding combine_linear's clipped map gives.

    The first weighted modality is written straight into the output, which
    is exact for weights >= 0 since 0.0 + w·y == w·y; a negative first
    weight can leave -0.0 where the sum would hold 0.0.
    """
    volumes = list(volumes)
    if len(volumes) != 3:
        raise ValueError(f"expected 3 volumes, got {len(volumes)}")
    validate_aligned(volumes)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (3,):
        raise ValueError(f"expected 3 weights, got shape {weights.shape}")
    out = product = None
    for w, vol in zip(weights, volumes):
        if w == 0.0:  # zero weight leaves the output bit-exactly unaffected
            continue
        if out is None:
            out = np.multiply(vol.values, w)
            continue
        if product is None:
            product = np.empty_like(out)
        out += np.multiply(vol.values, w, out=product)
    return np.zeros(volumes[0].dims, dtype=np.float64) if out is None else out


def combine_linear(volumes, rule) -> ProbabilityVolume:
    """Convex combination Z = Σ_τ α_τ·Y^τ of the three modality maps."""
    rule = _as_linear(rule)
    out = linear_map(volumes, rule.alpha)
    # convexity keeps values in [0,1]; clip only absorbs float rounding
    np.clip(out, 0.0, 1.0, out=out)
    return ProbabilityVolume(out, spacing=list(volumes)[0].spacing, modality=Modality.COMBINED)


def stacking_map(volumes, rule) -> np.ndarray:
    """Logistic stack σ(Σ_τ β_τ·Y^τ + β₀) as a plain array, computed in place."""
    rule = _as_stacking(rule)
    out = linear_map(volumes, rule.weights)
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


def stacking_logits(volumes, rule) -> np.ndarray:
    """Pre-sigmoid values; thresholding these at 0 matches combine_stacking at 0.5."""
    rule = _as_stacking(rule)
    return linear_map(volumes, rule.weights) + rule.bias


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
):
    """`binarize` of a probability map given as an array on a grid of `spacing`,
    also returning the component labelling the mask was made from.

    Returns (mask, (labels, counts, keep)): `labels` numbers the connected
    components of the thresholded map, `counts[i]` is the voxel count of
    label i and `keep[i]` marks the components that survive in `mask`. Label
    0 is background and is never kept. `metrics.evaluate` takes the triple so
    that it need not label the mask again.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if min_region_voxels < 0:
        raise ValueError(f"min_region_voxels must be >= 0, got {min_region_voxels}")
    mask = values > threshold
    labels, counts, keep = backends.components(mask, connectivity, min_region_voxels)
    if not keep[1:].all():
        mask = keep.take(labels)
    return LabelVolume(mask, spacing=spacing), (labels, counts, keep)


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
    )[0]


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
