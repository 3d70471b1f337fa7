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
    p, g = pred.values, truth.values
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


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
    only pays for the prediction side.
    """

    points: np.ndarray
    tree: cKDTree


def boundary_surface(mask: LabelVolume) -> BoundarySurface | None:
    """Surface of a mask as queryable points; None when the mask is empty."""
    coords = np.argwhere(boundary_mask(mask.values))
    if coords.shape[0] == 0:
        return None
    points = coords * np.asarray(mask.spacing, dtype=np.float64)
    return BoundarySurface(points=points, tree=cKDTree(points))


def hd95(pred: LabelVolume, truth: LabelVolume, truth_surface: BoundarySurface | None = None):
    """95th percentile of pooled symmetric boundary-to-boundary distances (mm).

    Returns None when either mask is empty. Distances are voxel-centre to
    voxel-centre, scaled by spacing; the percentile uses linear interpolation
    over the sorted pooled set.
    """
    validate_aligned([pred, truth], names=["pred", "truth"])
    if not pred.values.any() or not truth.values.any():
        return None
    surf_p = boundary_surface(pred)
    surf_g = truth_surface if truth_surface is not None else boundary_surface(truth)
    pooled = np.concatenate(
        [surf_g.tree.query(surf_p.points)[0], surf_p.tree.query(surf_g.points)[0]]
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


def _component_overlaps(reference: LabelVolume, other: LabelVolume, connectivity: int):
    """Per component of `reference`, the fraction of its voxels covered by `other`."""
    labels, n = backends.label_components(reference.values, connectivity)
    if n == 0:
        return np.zeros(0)
    counts = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    hits = np.bincount(labels[other.values].ravel(), minlength=n + 1)[1:]
    return hits / counts


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
    overlaps = _component_overlaps(truth, pred, connectivity)
    if overlaps.size == 0:
        return None
    return float(np.count_nonzero(overlaps > s_gt)) / overlaps.size


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
    overlaps = _component_overlaps(pred, truth, connectivity)
    if overlaps.size == 0:
        return None
    return float(np.count_nonzero(overlaps > s_pred)) / overlaps.size


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

    labels: np.ndarray
    counts: np.ndarray
    surface: BoundarySurface | None


def truth_context(truth: LabelVolume, connectivity: int = DEFAULT_CONNECTIVITY) -> TruthContext:
    labels, n = backends.label_components(truth.values, connectivity)
    counts = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    return TruthContext(labels=labels, counts=counts, surface=boundary_surface(truth))


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
) -> MetricsReport:
    """All four metrics plus lesion counts; `zone` restricts both masks first.

    A `truth_ctx` passed alongside `zone` must describe the zone-restricted
    truth, since the restriction happens before any context is used.
    """
    config = config or MetricsConfig()
    volumes = [pred, truth] + ([zone] if zone is not None else [])
    names = ["pred", "truth"] + (["zone"] if zone is not None else [])
    validate_aligned(volumes, names=names)
    pred, truth = in_zone(pred, zone), in_zone(truth, zone)
    if truth_ctx is None:
        truth_ctx = truth_context(truth, config.connectivity)

    labels_p, n_pred = backends.label_components(pred.values, config.connectivity)
    counts_p = np.bincount(labels_p.ravel(), minlength=n_pred + 1)[1:]
    n_gt = int(truth_ctx.counts.size)

    recall = None
    if n_gt:
        covered = np.bincount(truth_ctx.labels[pred.values].ravel(), minlength=n_gt + 1)[1:]
        recall = float(np.count_nonzero(covered / truth_ctx.counts > config.s_gt)) / n_gt
    precision = None
    if n_pred:
        covered = np.bincount(labels_p[truth.values].ravel(), minlength=n_pred + 1)[1:]
        precision = float(np.count_nonzero(covered / counts_p > config.s_pred)) / n_pred

    return MetricsReport(
        dsc=dice(pred, truth),
        dsc_both_empty=not pred.values.any() and not truth.values.any(),
        hd95_mm=hd95(pred, truth, truth_surface=truth_ctx.surface),
        recall_gt=recall,
        precision_pred=precision,
        n_gt_lesions=n_gt,
        n_pred_lesions=int(n_pred),
        thresholds=(config.s_gt, config.s_pred),
        connectivity=config.connectivity,
    )
