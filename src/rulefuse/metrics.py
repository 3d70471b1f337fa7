"""Voxel- and lesion-level agreement between a predicted and a reference mask.

Lesion metrics treat connected components as lesions; a component counts as
hit only when its overlap fraction strictly exceeds the stated threshold.
Undefined values (empty masks, zero lesions) are reported as None, never as
sentinel numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import backends
from .volumes import LabelVolume, validate_aligned

DEFAULT_OVERLAP_THRESHOLD = 0.1
DEFAULT_CONNECTIVITY = 26
HD_PERCENTILE = 95.0


@dataclass(frozen=True)
class LabelledMask:
    """A binary mask with what the metrics read of it: its `positives`, the
    ascending C-order flat indices of its positive voxels, and, once
    labelled, its connected components at `connectivity`, as the (labels,
    counts, keep) triple of `backends.components`. `components` and
    `connectivity` are None when it is not labelled, as `in_zone` leaves a
    restricted mask.

    Made by `label_mask`, `in_zone` and `combine.label_positives`. `dice`,
    `hd95`, `boundary_surface` and `evaluate` take one wherever they take a
    `LabelVolume`, and then read the positives and (`evaluate`) the
    components from it instead of scanning and labelling the mask.
    """

    volume: LabelVolume
    positives: np.ndarray
    components: tuple | None = None
    connectivity: int | None = None


def label_mask(mask, connectivity: int = DEFAULT_CONNECTIVITY, labels_out=None) -> LabelledMask:
    """`mask` (a `LabelVolume` or `LabelledMask`) with its positives and its
    components at `connectivity`; a mask already labelled there is returned
    as it is. `labels_out` is as `out` for `backends.label_components`."""
    if isinstance(mask, LabelledMask) and mask.connectivity == connectivity:
        return mask
    volume, positives = _volume(mask), _positives(mask)
    return LabelledMask(
        volume,
        positives,
        backends.components(volume.values, connectivity, positives=positives, out=labels_out),
        connectivity,
    )


def in_zone(mask, zone: LabelVolume | None):
    """`mask` (a `LabelVolume` or `LabelledMask`) restricted to `zone`, as a
    `LabelledMask`; the mask itself when there is no zone.

    The restricted positives are the mask's own, ascending, at which the zone
    is set, so no volume is scanned for them. The restriction can split a
    component, so the restricted mask is not labelled; `label_mask` labels it.
    """
    if zone is None:
        return mask
    volume, positives = _volume(mask), _positives(mask)
    validate_aligned([volume, zone], names=["mask", "zone"])
    positives = positives[np.ravel(zone.values).take(positives)]
    values = np.zeros(volume.dims, dtype=bool)
    values.ravel()[positives] = True  # a view: `values` is C-ordered
    return LabelledMask(LabelVolume(values, spacing=volume.spacing), positives)


def _volume(mask) -> LabelVolume:
    return mask.volume if isinstance(mask, LabelledMask) else mask


def _positives(mask) -> np.ndarray:
    if isinstance(mask, LabelledMask):
        return mask.positives
    return backends.support_of(mask.values)


def dice(pred, truth) -> float:
    """2|P∩G|/(|P|+|G|); defined as 1.0 when both masks are empty.

    Either mask is a `LabelVolume` or a `LabelledMask`. |P∩G| counts the
    truth's values gathered at the prediction's positives.
    """
    validate_aligned([_volume(pred), _volume(truth)], names=["pred", "truth"])
    p, g = _positives(pred), _positives(truth)
    denom = p.size + g.size
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(np.ravel(_volume(truth).values).take(p))) / denom


@dataclass(frozen=True)
class BoundarySurface:
    """Boundary voxel centres in mm with a nearest-neighbour index over them.

    A boundary voxel is a positive voxel with at least one non-positive face
    neighbour; voxels outside the volume count as background, so a positive
    voxel on a face of the volume is boundary. Precomputable per reference
    mask; hd95 against many predictions then only pays for the prediction
    side. `flat` holds the voxels' flat (C order) indices, ascending, in the
    order of `points`.
    """

    points: np.ndarray
    tree: cKDTree
    flat: np.ndarray


# cKDTree options. A query's distance does not depend on the tree's shape,
# only on how fast it is found, and an unbalanced tree builds faster. A
# truth's tree is built once per case and queried at the own surface points
# of every prediction. A prediction's tree is built for each one and queried
# only at the few truth points off its surface, so its build is most of its
# cost, and uncompacted nodes and larger leaves make that cheaper.
_TRUTH_TREE = {"balanced_tree": False}
_PRED_TREE = {"balanced_tree": False, "compact_nodes": False, "leafsize": 32}


def _face_flags(dims) -> np.ndarray:
    """Flat (C order) flags of the voxels on the faces of a volume of `dims`."""
    faces = np.ones(dims, dtype=bool)
    faces[1:-1, 1:-1, 1:-1] = False
    return faces.reshape(-1)


def boundary_surface(mask, tree_options=_TRUTH_TREE, faces: np.ndarray | None = None):
    """Surface of a mask (`LabelVolume` or `LabelledMask`) as queryable
    points; None when the mask is empty. `tree_options` are the cKDTree's.

    Found from the positive voxels alone: each one off the volume's faces
    (`faces`, its `_face_flags` when the caller has them) is tested against
    its six face neighbours, gathered by flat index, so no pass over the
    volume or its bounding box is made; only boundary voxels get coordinates.
    """
    flat = _positives(mask)
    mask = _volume(mask)
    if not flat.size:
        return None
    if faces is None:
        faces = _face_flags(mask.dims)
    ny, nz = mask.dims[1:]
    boundary = faces.take(flat)
    inner = flat[~boundary]
    values = mask.values.ravel()
    interior = np.ones(inner.size, dtype=bool)
    for step in (1, nz, ny * nz):
        interior &= values.take(inner - step)
        interior &= values.take(inner + step)
    boundary[~boundary] = ~interior
    flat = flat[boundary]
    rows, z = np.divmod(flat, nz)
    x, y = np.divmod(rows, ny)
    points = np.column_stack((x, y, z)) * np.asarray(mask.spacing, dtype=np.float64)
    return BoundarySurface(points=points, tree=cKDTree(points, **tree_options), flat=flat)


def hd95(pred, truth, truth_ctx: TruthContext | None = None):
    """95th percentile of pooled symmetric boundary-to-boundary distances (mm).

    Returns None when either mask is empty. Distances are voxel-centre to
    voxel-centre, scaled by spacing, as a cKDTree query gives them; the
    percentile is `np.percentile`'s linear interpolation over the pooled set,
    taken from its one or two order statistics (see `_percentile_past_zeros`).

    Either mask is a `LabelVolume` or a `LabelledMask`; `truth_ctx` is the
    `truth_context` of `truth`, a throwaway one when not given. At equal
    spacings a voxel on both surfaces is the same point, 0.0 away both ways,
    and only the other points are queried: the shared voxels are gathered
    from the context's `on_surface` and `scratch`, and the prediction's other
    points take their distances from its memo, querying and storing only the
    misses (a query does not depend on the points queried with it).
    """
    pred_volume, truth_volume = _volume(pred), _volume(truth)
    validate_aligned([pred_volume, truth_volume], names=["pred", "truth"])
    ctx = truth_ctx if truth_ctx is not None else truth_context(truth)
    surf_g = ctx.surface
    if surf_g is None:
        return None
    surf_p = boundary_surface(pred, _PRED_TREE, ctx.faces)
    if surf_p is None:
        return None
    if pred_volume.spacing != truth_volume.spacing:
        # points on another grid are not shared, however close, nor memoised
        own = np.concatenate([surf_g.tree.query(surf_p.points)[0],
                              surf_p.tree.query(surf_g.points)[0]])
        return _percentile_past_zeros(own, 0, HD_PERCENTILE)
    own_p = np.flatnonzero(~ctx.on_surface.take(surf_p.flat))
    own_flat = surf_p.flat.take(own_p)
    from_p = ctx.distance.take(own_flat)
    missed = np.isnan(from_p)
    if missed.any():
        from_p[missed] = surf_g.tree.query(surf_p.points[own_p[missed]])[0]
        ctx.distance[own_flat[missed]] = from_p[missed]
    ctx.scratch[surf_p.flat] = True
    own_g = ~ctx.scratch.take(surf_g.flat)
    ctx.scratch[surf_p.flat] = False
    from_g = surf_p.tree.query(surf_g.points[own_g])[0]
    n_shared = surf_p.flat.size - own_flat.size
    return _percentile_past_zeros(np.concatenate([from_p, from_g]), 2 * n_shared, HD_PERCENTILE)


def _percentile_past_zeros(values: np.ndarray, n_zeros: int, q: float) -> float:
    """`np.percentile` ("linear" method) of `values` pooled with `n_zeros`
    zeros, bitwise, from at most two order statistics of `values`.

    `values` must be >= 0, so the zeros sort first and the pooled set's k-th
    smallest is 0.0 for k < n_zeros and the (k - n_zeros)-th smallest of
    `values` after. The order statistics come from a partition of `values`,
    and they are interpolated as numpy's `_lerp` does. `values` is partitioned
    in place.
    """
    n = values.size + n_zeros
    index = (n - 1) * (q / 100)  # numpy's virtual index: (n - 1)·quantile
    lower = math.floor(index)
    upper = min(lower + 1, n - 1)
    gamma = index - lower
    wanted = [k - n_zeros for k in (lower, upper) if k >= n_zeros]
    if wanted:
        values.partition(wanted)
    a, b = (float(values[k - n_zeros]) if k >= n_zeros else 0.0 for k in (lower, upper))
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def _share_covered(components, other: np.ndarray, threshold: float):
    """Share of the kept components whose fraction of voxels inside the other
    mask strictly exceeds `threshold`; None when no component is kept.

    `components` is a (labels, counts, keep) triple as `backends.components`
    returns it; `other` holds the other mask's positive voxels as C-order
    flat indices.
    """
    labels, counts, keep = components
    n = int(np.count_nonzero(keep))
    if not n:
        return None
    covered = np.bincount(labels.ravel().take(other), minlength=counts.size)
    return float(np.count_nonzero(covered[keep] / counts[keep] > threshold)) / n


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
    """Set-up for scoring many predictions against one truth, built once by
    `truth_context`. It holds a mutable cache: valid for one truth at one spacing.

    `mask` is the truth as scored (zone-restricted if one is scored), labelled;
    `surface` its `boundary_surface` (None when empty). The rest are flat
    C-order volumes of its grid: `faces` (`_face_flags`), `on_surface` (set at
    the surface's voxels), `distance` (`hd95`'s memo of each voxel's distance
    to the surface, NaN until asked) and `scratch` (False between `hd95` calls).
    """

    mask: LabelledMask
    surface: BoundarySurface | None
    faces: np.ndarray
    on_surface: np.ndarray
    distance: np.ndarray
    scratch: np.ndarray


def truth_context(truth, connectivity: int = DEFAULT_CONNECTIVITY) -> TruthContext:
    """The context of `truth` (a `LabelVolume` or `LabelledMask`), labelled at
    `connectivity`."""
    labelled = label_mask(truth, connectivity)
    faces = _face_flags(labelled.volume.dims)
    surface = boundary_surface(labelled, _TRUTH_TREE, faces)
    on_surface = np.zeros(faces.size, dtype=bool)
    if surface is not None:
        on_surface[surface.flat] = True
    return TruthContext(labelled, surface, faces, on_surface, np.full(faces.size, np.nan),
                        np.zeros(faces.size, dtype=bool))


def evaluate(
    pred,
    truth: LabelVolume,
    config: MetricsConfig | None = None,
    zone: LabelVolume | None = None,
    truth_ctx: TruthContext | None = None,
) -> MetricsReport:
    """All four metrics plus lesion counts; `zone` restricts both masks first.

    `pred` is a `LabelVolume` or a `LabelledMask`; one labelled at
    `config.connectivity` is scored without scanning or labelling it again.
    With a zone the restricted prediction is labelled afresh, since the
    restriction can split a component. A `truth_ctx` describes the truth as
    scored, so with a zone it must be the context of the restricted truth;
    every truth-side metric reads it, and `truth` only fixes the grid.
    """
    config = config or MetricsConfig()
    volumes = [_volume(pred), truth] + ([zone] if zone is not None else [])
    names = ["pred", "truth"] + (["zone"] if zone is not None else [])
    validate_aligned(volumes, names=names)
    if truth_ctx is None:
        truth_ctx = truth_context(in_zone(truth, zone), config.connectivity)
    pred = label_mask(in_zone(pred, zone), config.connectivity)
    g = truth_ctx.mask
    p_flat, g_flat = pred.positives, g.positives

    return MetricsReport(
        dsc=dice(pred, g),
        dsc_both_empty=not p_flat.size and not g_flat.size,
        hd95_mm=hd95(pred, g, truth_ctx),
        recall_gt=_share_covered(g.components, p_flat, config.s_gt),
        precision_pred=_share_covered(pred.components, g_flat, config.s_pred),
        n_gt_lesions=int(np.count_nonzero(g.components[2])),
        n_pred_lesions=int(np.count_nonzero(pred.components[2])),
        thresholds=(config.s_gt, config.s_pred),
        connectivity=config.connectivity,
    )
