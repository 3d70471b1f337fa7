"""Apply fitted rules to aligned probability volumes.

All maps are voxel-wise, so outputs are independent of any internal
chunking; determinism is checked by the CLI round-trip tests.
"""

from __future__ import annotations

import numpy as np

from . import backends
from .metrics import LabelledMask
from .volumes import LabelVolume, Modality, ProbabilityVolume, validate_aligned


def weighted_sum(arrays, weights, out=None, product=None) -> np.ndarray:
    """Σ w·a over `arrays` and their `weights`, in order, skipping zero weights.

    The first weighted array is written straight into the output, which is
    exact for weights >= 0 since 0.0 + w·a == w·a; a negative first weight
    can leave -0.0 where the sum would hold 0.0. Each later one is multiplied
    into `product` and added. Every element is thus the same float64
    arithmetic whatever the arrays' shape, so a sum over gathered elements is
    bitwise the sum at those elements of the whole arrays. `out` and
    `product` receive the sum and the scratch products instead of fresh
    arrays; with every weight zero the sum is all zeros.
    """
    written = False
    for w, a in zip(weights, arrays):
        if w == 0.0:  # zero weight leaves the output bit-exactly unaffected
            continue
        if not written:
            out = np.multiply(a, w, out=out)
            written = True
            continue
        if product is None:
            product = np.empty_like(out)
        out += np.multiply(a, w, out=product)
    if written:
        return out
    if out is None:
        return np.zeros(np.shape(arrays[0]), dtype=np.float64)
    out.fill(0.0)
    return out


def linear_map(volumes, weights, out=None, product=None) -> np.ndarray:
    """Raw voxel-wise weighted sum, without simplex validation or clamping.

    Exists so additivity in the weights can be exercised outside the simplex;
    prefer combine_linear for producing valid probability volumes. For
    convex weights, thresholding this map at t in (0, 1) gives the mask that
    thresholding combine_linear's clipped map gives. The sum is
    `weighted_sum` of the volumes' values.

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
    return weighted_sum([vol.values for vol in volumes], weights, out, product)


def combine_linear(volumes, rule) -> ProbabilityVolume:
    """Convex combination Z = Σ_τ α_τ·Y^τ of the three modality maps, for a
    `LinearRule`."""
    out = linear_map(volumes, rule.alpha)
    # convexity keeps values in [0,1]; clip only absorbs float rounding
    np.clip(out, 0.0, 1.0, out=out)
    return ProbabilityVolume(out, spacing=list(volumes)[0].spacing, modality=Modality.COMBINED)


def stacking_map(volumes, rule, out=None, product=None) -> np.ndarray:
    """Logistic stack σ(Σ_τ β_τ·Y^τ + β₀) of a `StackingRule` as a plain
    array, computed in place; `out` and `product` are as for `linear_map`."""
    out = linear_map(volumes, rule.weights, out, product)
    out += rule.bias
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def combine_stacking(volumes, rule) -> ProbabilityVolume:
    """Logistic stack Z = σ(Σ_τ β_τ·Y^τ + β₀), for a `StackingRule`."""
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


def check_binarization(threshold: float, min_region_voxels: int) -> None:
    """Raise ValueError unless `threshold` lies in (0, 1) and `min_region_voxels` is >= 0."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if min_region_voxels < 0:
        raise ValueError(f"min_region_voxels must be >= 0, got {min_region_voxels}")


def label_positives(
    mask: np.ndarray,
    positives: np.ndarray,
    spacing,
    min_region_voxels: int,
    connectivity: int,
    labels_out=None,
):
    """A thresholded mask, with small components dropped, as a
    `metrics.LabelledMask`: the mask with its positives and the component
    labelling it was made from, which `metrics.evaluate` scores without
    scanning or labelling the mask again.

    `mask` is a bool array set exactly at `positives`, ascending C-order flat
    indices (see `backends.support_of`), however they were found. Dropped
    components are cleared in `mask` at their voxels, and the returned
    positives are the survivors. In the (labels, counts, keep) triple,
    `labels` numbers the connected components of the thresholded mask,
    `counts[i]` is the voxel count of label i and `keep[i]` marks the
    components that survive. Label 0 is background and is never kept.
    `labels_out` is as `out` for `backends.label_components`. The returned
    mask is a read-only view of `mask`.
    """
    labels, counts, keep = backends.components(
        mask, connectivity, min_region_voxels, positives, labels_out
    )
    if not keep[1:].all():
        kept = keep.take(labels.ravel().take(positives))
        mask.flat[positives[~kept]] = False  # C-order indices whatever the layout
        positives = positives[kept]
    volume = LabelVolume(mask.view(), spacing=spacing)
    return LabelledMask(volume, positives, (labels, counts, keep), connectivity)


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
    check_binarization(threshold, min_region_voxels)
    mask = volume.values > threshold
    return label_positives(
        mask, backends.support_of(mask), volume.spacing, min_region_voxels, connectivity
    ).volume
