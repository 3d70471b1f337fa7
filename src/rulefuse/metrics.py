"""Voxel- and lesion-level agreement between a predicted and a reference mask.

Lesion metrics treat connected components as lesions; a component counts as
hit only when its overlap fraction strictly exceeds the stated threshold.
Undefined values (empty masks, zero lesions) are reported as None, never as
sentinel numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import backends
from .volumes import LabelVolume, LesionComponent, LesionSet, validate_aligned

DEFAULT_OVERLAP_THRESHOLD = 0.1
DEFAULT_CONNECTIVITY = 26
HD_PERCENTILE = 95.0


def dice(pred: LabelVolume, truth: LabelVolume) -> float:
    """2|P∩G|/(|P|+|G|); defined as 1.0 when both masks are empty."""
    validate_aligned([pred, truth], names=["pred", "truth"])
    p = np.flatnonzero(pred.values)
    denom = p.size + int(np.count_nonzero(truth.values))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(truth.values.ravel().take(p))) / denom


def boundary_mask(values: np.ndarray) -> np.ndarray:
    """Positive voxels with at least one non-positive face neighbour.

    Voxels outside the volume count as background, so faces touching the
    array edge are boundary.
    """
    interior = np.ones_like(values)
    for axis in range(3):
        shifted = np.zeros_like(values)
        idx_lo = [slice(None)] * 3
        idx_hi = [slice(None)] * 3
        idx_lo[axis] = slice(None, -1)
        idx_hi[axis] = slice(1, None)
        shifted[tuple(idx_lo)] = values[tuple(idx_hi)]
        interior &= shifted
        shifted = np.zeros_like(values)
        shifted[tuple(idx_hi)] = values[tuple(idx_lo)]
        interior &= shifted
    return values & ~interior


@dataclass(frozen=True)
class BoundarySurface:
    """Boundary voxel centres in mm with a nearest-neighbour index over them.

    Precomputable per reference mask; hd95 against many predictions then
    only pays for the prediction side. `flat` holds the voxels' flat (C
    order) indices, ascending, in the order of `points`.
    """

    points: np.ndarray
    tree: cKDTree
    flat: np.ndarray


def boundary_surface(mask: LabelVolume) -> BoundarySurface | None:
    """Surface of a mask as queryable points; None when the mask is empty."""
    values = mask.values
    flat = np.flatnonzero(boundary_mask(values))
    if flat.size == 0:
        return None
    # the same integer coordinates as np.argwhere, without its volume pass
    coords = np.column_stack(np.unravel_index(flat, values.shape))
    points = coords * np.asarray(mask.spacing, dtype=np.float64)
    return BoundarySurface(points=points, tree=cKDTree(points), flat=flat)


def _shared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which entries of the ascending index array `a` also occur in the ascending `b`."""
    at = np.searchsorted(b, a)
    return b.take(at, mode="clip") == a


def hd95(pred: LabelVolume, truth: LabelVolume, truth_surface: BoundarySurface | None = None):
    """95th percentile of pooled symmetric boundary-to-boundary distances (mm).

    Returns None when either mask is empty. Distances are voxel-centre to
    voxel-centre, scaled by spacing; the percentile uses linear interpolation
    over the sorted pooled set.

    A voxel on both surfaces is the same point in mm when both masks have the
    same spacing, so its distance in each direction is exactly 0.0; only the
    other points are queried, and the pooled set keeps the same values.
    """
    validate_aligned([pred, truth], names=["pred", "truth"])
    if not pred.values.any() or not truth.values.any():
        return None
    surf_p = boundary_surface(pred)
    surf_g = truth_surface if truth_surface is not None else boundary_surface(truth)
    if pred.spacing == truth.spacing:
        own_p = ~_shared(surf_p.flat, surf_g.flat)
        own_g = ~_shared(surf_g.flat, surf_p.flat)
        n_shared = surf_p.flat.size - int(np.count_nonzero(own_p))
        from_p, from_g = surf_p.points[own_p], surf_g.points[own_g]
    else:  # points on a different grid are not shared, however close
        n_shared, from_p, from_g = 0, surf_p.points, surf_g.points
    pooled = np.concatenate(
        [surf_g.tree.query(from_p)[0], surf_p.tree.query(from_g)[0], np.zeros(2 * n_shared)]
    )
    return float(np.percentile(pooled, HD_PERCENTILE))


def connected_components(mask: LabelVolume, connectivity: int = DEFAULT_CONNECTIVITY) -> LesionSet:
    """Maximal connected regions of the mask, in first-voxel scan order."""
    labels, n = backends.label_components(mask.values, connectivity)
    if n == 0:
        return LesionSet(components=(), connectivity=connectivity)
    coords = np.argwhere(labels > 0)
    label_per_voxel = labels[labels > 0]
    order = np.argsort(label_per_voxel, kind="stable")
    coords = coords[order]
    counts = np.bincount(label_per_voxel, minlength=n + 1)[1:]
    voxel_mm3 = mask.voxel_volume_mm3()
    components = []
    start = 0
    for i, count in enumerate(counts, start=1):
        chunk = coords[start : start + count]
        chunk.flags.writeable = False
        components.append(
            LesionComponent(id=i, indices=chunk, volume_mm3=float(count) * voxel_mm3)
        )
        start += count
    return LesionSet(components=tuple(components), connectivity=connectivity)


def _share_covered(components, other: np.ndarray, threshold: float):
    """Share of the kept components whose fraction of voxels inside `other`
    strictly exceeds `threshold`; None when no component is kept.

    `components` is a (labels, counts, keep) triple as `backends.components`
    returns it.
    """
    labels, counts, keep = components
    n = int(np.count_nonzero(keep))
    if not n:
        return None
    covered = np.bincount(labels.ravel().take(np.flatnonzero(other)), minlength=counts.size)
    return float(np.count_nonzero(covered[keep] / counts[keep] > threshold)) / n


def lesion_recall_gt(
    pred: LabelVolume,
    truth: LabelVolume,
    s_gt: float = DEFAULT_OVERLAP_THRESHOLD,
    connectivity: int = DEFAULT_CONNECTIVITY,
):
    """Fraction of truth lesions whose covered fraction strictly exceeds s_gt.

    Coverage of one truth lesion sums overlaps from all predicted components.
    Returns None when the truth mask has no lesions.
    """
    if not 0.0 < s_gt <= 1.0:
        raise ValueError(f"s_gt must lie in (0, 1], got {s_gt}")
    validate_aligned([pred, truth], names=["pred", "truth"])
    return _share_covered(backends.components(truth.values, connectivity), pred.values, s_gt)


def lesion_precision_pred(
    pred: LabelVolume,
    truth: LabelVolume,
    s_pred: float = DEFAULT_OVERLAP_THRESHOLD,
    connectivity: int = DEFAULT_CONNECTIVITY,
):
    """Fraction of predicted lesions whose truth-covered fraction exceeds s_pred.

    Returns None when the prediction has no lesions.
    """
    if not 0.0 < s_pred <= 1.0:
        raise ValueError(f"s_pred must lie in (0, 1], got {s_pred}")
    validate_aligned([pred, truth], names=["pred", "truth"])
    return _share_covered(backends.components(pred.values, connectivity), truth.values, s_pred)


@dataclass(frozen=True)
class MetricsConfig:
    s_gt: float = DEFAULT_OVERLAP_THRESHOLD
    s_pred: float = DEFAULT_OVERLAP_THRESHOLD
    connectivity: int = DEFAULT_CONNECTIVITY

    def __post_init__(self) -> None:
        if not 0.0 < self.s_gt <= 1.0:
            raise ValueError(f"s_gt must lie in (0, 1], got {self.s_gt}")
        if not 0.0 < self.s_pred <= 1.0:
            raise ValueError(f"s_pred must lie in (0, 1], got {self.s_pred}")
        if self.connectivity not in (6, 18, 26):
            raise ValueError(f"connectivity must be 6, 18 or 26, got {self.connectivity}")


@dataclass(frozen=True)
class MetricsReport:
    dsc: float
    dsc_both_empty: bool
    hd95_mm: float | None
    recall_gt: float | None
    precision_pred: float | None
    n_gt_lesions: int
    n_pred_lesions: int
    thresholds: tuple[float, float]
    connectivity: int

    def to_dict(self) -> dict:
        return {
            "dsc": self.dsc,
            "dsc_both_empty": self.dsc_both_empty,
            "hd95_mm": self.hd95_mm,
            "recall_gt": self.recall_gt,
            "precision_pred": self.precision_pred,
            "n_gt_lesions": self.n_gt_lesions,
            "n_pred_lesions": self.n_pred_lesions,
            "s_gt": self.thresholds[0],
            "s_pred": self.thresholds[1],
            "connectivity": self.connectivity,
        }


@dataclass(frozen=True)
class TruthContext:
    """Rule-independent precomputation for scoring many predictions of one case."""

    components: tuple  # (labels, counts, keep) of the truth mask
    surface: BoundarySurface | None


def truth_context(truth: LabelVolume, connectivity: int = DEFAULT_CONNECTIVITY) -> TruthContext:
    return TruthContext(
        components=backends.components(truth.values, connectivity),
        surface=boundary_surface(truth),
    )


def in_zone(mask: LabelVolume, zone: LabelVolume | None) -> LabelVolume:
    """`mask` restricted to `zone`; the mask itself when there is no zone."""
    if zone is None:
        return mask
    return LabelVolume(mask.values & zone.values, spacing=mask.spacing)


def evaluate(
    pred: LabelVolume,
    truth: LabelVolume,
    config: MetricsConfig | None = None,
    zone: LabelVolume | None = None,
    truth_ctx: TruthContext | None = None,
    pred_components=None,
) -> MetricsReport:
    """All four metrics plus lesion counts; `zone` restricts both masks first.

    A `truth_ctx` passed alongside `zone` must describe the zone-restricted
    truth, since the restriction happens before any context is used.
    `pred_components` is the (labels, counts, keep) labelling that
    `combine.binarize_components` returned with `pred`, labelled at
    `config.connectivity`; without a zone it stands in for labelling `pred`
    again. With a zone it is not used, since the restriction can split a
    component.
    """
    config = config or MetricsConfig()
    volumes = [pred, truth] + ([zone] if zone is not None else [])
    names = ["pred", "truth"] + (["zone"] if zone is not None else [])
    validate_aligned(volumes, names=names)
    pred, truth = in_zone(pred, zone), in_zone(truth, zone)
    if truth_ctx is None:
        truth_ctx = truth_context(truth, config.connectivity)
    if pred_components is None or zone is not None:
        pred_components = backends.components(pred.values, config.connectivity)

    return MetricsReport(
        dsc=dice(pred, truth),
        dsc_both_empty=not pred.values.any() and not truth.values.any(),
        hd95_mm=hd95(pred, truth, truth_surface=truth_ctx.surface),
        recall_gt=_share_covered(truth_ctx.components, pred.values, config.s_gt),
        precision_pred=_share_covered(pred_components, truth.values, config.s_pred),
        n_gt_lesions=int(np.count_nonzero(truth_ctx.components[2])),
        n_pred_lesions=int(np.count_nonzero(pred_components[2])),
        thresholds=(config.s_gt, config.s_pred),
        connectivity=config.connectivity,
    )
