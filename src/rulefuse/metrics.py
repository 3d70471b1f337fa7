"""Voxel- and lesion-level agreement between a predicted and a reference mask.

Lesion metrics treat connected components as lesions; a component counts as
hit only when its overlap fraction strictly exceeds the stated threshold.
Undefined values (empty masks, zero lesions) are reported as None, never as
sentinel numbers.

HD95's distances are all in a cKDTree query's arithmetic. The prediction's
surface points take theirs from a tree over the truth's surface, built once
per `TruthContext`. The truth's points take theirs from a tree over the
prediction's surface, or, where the context knows candidate voxels that hold
every prediction (a linear rule sweep), from `NearestCandidates`: per-point
lists of the nearest candidates, from one tree per case, with a brute force
over the prediction's surface where a list holds none of it.
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
# of every prediction. `_PRED_TREE` is for trees queried little for their
# size, whose build is most of their cost, which uncompacted nodes and larger
# leaves make cheaper: a prediction's tree, built only where the truth has no
# candidate lists (a lone rule, stacking rules, CLI `evaluate`) or lies on
# another grid, and queried only at the few truth points off the
# prediction's surface; and a case's candidates' tree, queried once per
# listed truth point.
_TRUTH_TREE = {"balanced_tree": False}
_PRED_TREE = {"balanced_tree": False, "compact_nodes": False, "leafsize": 32}


def _face_flags(dims) -> np.ndarray:
    """Flat (C order) flags of the voxels on the faces of a volume of `dims`."""
    faces = np.ones(dims, dtype=bool)
    faces[1:-1, 1:-1, 1:-1] = False
    return faces.reshape(-1)


def _points(flat: np.ndarray, dims, spacing) -> np.ndarray:
    """The centres in mm, as an (n, 3) array, of the voxels at flat (C order)
    indices `flat` of a grid of `dims` at `spacing`."""
    ny, nz = dims[1:]
    points = np.empty((flat.size, 3))
    rows = flat // nz
    points[:, 2] = flat - rows * nz
    x = rows // ny
    points[:, 1] = rows - x * ny
    points[:, 0] = x
    points *= spacing
    return points


def _surface_flat(mask, faces: np.ndarray | None = None):
    """The ascending flat (C order) indices of the boundary voxels of a mask
    (`LabelVolume` or `LabelledMask`); None when the mask is empty.

    Found from the positive voxels alone: each one off the volume's faces
    (`faces`, its `_face_flags` when the caller has them) is tested against
    its six face neighbours, gathered by flat index, so no pass over the
    volume or its bounding box is made.
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
    return flat[boundary]


def boundary_surface(mask, tree_options=_TRUTH_TREE, faces: np.ndarray | None = None):
    """Surface of a mask (`LabelVolume` or `LabelledMask`) as queryable
    points; None when the mask is empty. `tree_options` are the cKDTree's,
    and `faces` is as for `_surface_flat`, which finds the boundary voxels;
    only they get coordinates.
    """
    flat = _surface_flat(mask, faces)
    if flat is None:
        return None
    volume = _volume(mask)
    points = _points(flat, volume.dims, volume.spacing)
    return BoundarySurface(points=points, tree=cKDTree(points, **tree_options), flat=flat)


# Candidates listed for each truth surface point, nearest first. On the
# `search` benchmark's cases, lists of 16 and 32 took the same time per sweep;
# 48 and 64 cost more to fill than the fallbacks they spared. At 16, 2 156 of
# the 60 257 truth points read over its 594 evaluations (seed 11) fell back.
_NEAREST = 16
# Elements in one block of `_nearest_bf`'s (points, surface) distance table.
_BF_BLOCK = 1 << 16


class NearestCandidates:
    """The candidate voxels nearest each surface point of one truth.

    `candidates` holds the ascending flat (C order) indices of the voxels
    that contain every prediction to be scored against the truth, so every
    prediction surface point is one of them. A truth point's list holds its
    `_NEAREST` nearest candidates, as flat indices (`flat`) and distances
    (`distance`), nearest first, from one k-nearest query of a cKDTree over
    all the candidates: the tree's own arithmetic, bitwise that of a query
    of any tree holding the candidate. The tree is built on the first list
    asked for, and a list is filled the first time it is asked for.
    """

    def __init__(self, candidates: np.ndarray, surface: BoundarySurface, dims, spacing):
        self.candidates, self.surface = candidates, surface
        self.dims, self.spacing = dims, spacing
        self.tree = None
        n = surface.flat.size
        self.flat = np.empty((n, _NEAREST), dtype=np.intp)
        self.distance = np.empty((n, _NEAREST))
        self.listed = np.zeros(n, dtype=bool)

    def first_on(self, points: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """The distance from each truth surface point (indices `points`) to
        its nearest listed candidate set in `flags`, a flat volume that sets
        only candidates and none of the points; NaN where the list holds none.

        The first set candidate on a list is the nearest set voxel anywhere:
        every nearer candidate is on the list before it. A list shorter than
        `_NEAREST`, where the query returns index n at distance inf, is
        padded with the point's own voxel, which `flags` never sets.
        """
        new = points[~self.listed.take(points)]
        if new.size:
            if self.tree is None:
                self.tree = cKDTree(_points(self.candidates, self.dims, self.spacing),
                                    **_PRED_TREE)
            distance, index = self.tree.query(self.surface.points[new], _NEAREST)
            self.flat[new] = np.where(index < self.candidates.size,
                                      self.candidates.take(index, mode="clip"),
                                      self.surface.flat.take(new)[:, None])
            self.distance[new] = distance
            self.listed[new] = True
        hits = flags.take(self.flat[points])
        first = hits.argmax(axis=1)
        rows = np.arange(points.size)
        out = self.distance[points, first]
        out[~hits[rows, first]] = np.nan
        return out


def _nearest_bf(points: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """The distance from each of `points` to the nearest of `surface` (both
    (n, 3), in mm), in a cKDTree query's arithmetic: the squared coordinate
    differences summed in axis order, the square root taken of the least.
    The (points, surface) table is made `_BF_BLOCK` elements at a time."""
    out = np.empty(len(points))
    rows = max(1, _BF_BLOCK // len(surface))
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        total = np.subtract.outer(block[:, 0], surface[:, 0])
        total *= total
        for axis in (1, 2):
            step = np.subtract.outer(block[:, axis], surface[:, axis])
            step *= step
            total += step
        np.sqrt(total.min(axis=1), out=out[start:start + rows])
    return out


def hd95(pred, truth, truth_ctx: TruthContext | None = None):
    """95th percentile of pooled symmetric boundary-to-boundary distances (mm).

    Returns None when either mask is empty. Distances are voxel-centre to
    voxel-centre, scaled by spacing, as a cKDTree query gives them; the
    percentile is `np.percentile`'s linear interpolation over the pooled set,
    taken from its one or two order statistics (see `_percentile_past_zeros`).

    Either mask is a `LabelVolume` or a `LabelledMask`; `truth_ctx` is the
    `truth_context` of `truth`, a throwaway one when not given. On another
    grid than the truth's, every point of each surface is queried on the
    other's tree. At equal spacings a voxel on both surfaces is the same
    point, 0.0 away both ways:
    - prediction to truth: each prediction surface point reads its distance
      from the context's memo, which holds 0.0 on the truth's surface; only
      the misses get coordinates and are queried on the truth's tree, and
      are stored (a query does not depend on the points queried with it);
    - truth to prediction: the truth's points off the prediction's surface,
      found through the context's `scratch`, are queried on a tree of the
      prediction's surface, or, when the context has `nearest` candidate
      lists, read from them, with `_nearest_bf` over the prediction's
      surface for a point whose list holds none of it.
    """
    pred_volume, truth_volume = _volume(pred), _volume(truth)
    validate_aligned([pred_volume, truth_volume], names=["pred", "truth"])
    ctx = truth_ctx if truth_ctx is not None else truth_context(truth)
    surf_g = ctx.surface
    if surf_g is None:
        return None
    if pred_volume.spacing != truth_volume.spacing:
        # points on another grid are not shared, however close, nor memoised
        surf_p = boundary_surface(pred, _PRED_TREE, ctx.faces)
        if surf_p is None:
            return None
        own = np.concatenate([surf_g.tree.query(surf_p.points)[0],
                              surf_p.tree.query(surf_g.points)[0]])
        return _percentile_past_zeros(own, 0, HD_PERCENTILE)
    flat = _surface_flat(pred, ctx.faces)
    if flat is None:
        return None
    dims, spacing = pred_volume.dims, pred_volume.spacing
    from_p = ctx.distance.take(flat)
    missed = np.flatnonzero(np.isnan(from_p))
    if missed.size:
        missed_flat = flat.take(missed)
        from_p[missed] = surf_g.tree.query(_points(missed_flat, dims, spacing))[0]
        ctx.distance[missed_flat] = from_p[missed]
    ctx.scratch[flat] = True
    own_g = np.flatnonzero(~ctx.scratch.take(surf_g.flat))
    if ctx.nearest is None:
        tree = cKDTree(_points(flat, dims, spacing), **_PRED_TREE)
        from_g = tree.query(surf_g.points.take(own_g, axis=0))[0]
    else:
        from_g = ctx.nearest.first_on(own_g, ctx.scratch)
        unlisted = np.flatnonzero(np.isnan(from_g))
        if unlisted.size:
            from_g[unlisted] = _nearest_bf(surf_g.points.take(own_g.take(unlisted), axis=0),
                                           _points(flat, dims, spacing))
    ctx.scratch[flat] = False
    n_shared = surf_g.flat.size - own_g.size  # their prediction side is in from_p, as 0.0
    return _percentile_past_zeros(np.concatenate([from_p, from_g]), n_shared, HD_PERCENTILE)


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
    `surface` its `boundary_surface` (None when empty). `faces` (`_face_flags`),
    `distance` (`hd95`'s memo of each voxel's distance to the surface: 0.0 on
    it, NaN until asked elsewhere) and `scratch` (False between `hd95` calls)
    are flat C-order volumes of its grid. `nearest` is None, or the
    `NearestCandidates` of its surface when every prediction to be scored
    lies within a known set of candidate voxels.
    """

    mask: LabelledMask
    surface: BoundarySurface | None
    faces: np.ndarray
    distance: np.ndarray
    scratch: np.ndarray
    nearest: NearestCandidates | None


def truth_context(truth, connectivity: int = DEFAULT_CONNECTIVITY,
                  candidates: np.ndarray | None = None) -> TruthContext:
    """The context of `truth` (a `LabelVolume` or `LabelledMask`), labelled at
    `connectivity`. `candidates`, when given, are the ascending flat indices
    of voxels that contain every prediction the context will score; `hd95`
    then reads the truth's side from their `NearestCandidates`."""
    labelled = label_mask(truth, connectivity)
    volume = labelled.volume
    faces = _face_flags(volume.dims)
    surface = boundary_surface(labelled, _TRUTH_TREE, faces)
    distance = np.full(faces.size, np.nan)
    nearest = None
    if surface is not None:
        distance[surface.flat] = 0.0
        if candidates is not None:
            nearest = NearestCandidates(candidates, surface, volume.dims, volume.spacing)
    return TruthContext(labelled, surface, faces, distance, np.zeros(faces.size, dtype=bool),
                        nearest)


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
