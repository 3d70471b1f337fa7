"""Voxel- and lesion-level agreement between a predicted and a reference mask.

Lesion metrics treat connected components as lesions; a component counts as
hit only when its overlap fraction strictly exceeds the stated threshold.
Undefined values (empty masks, zero lesions) are reported as None, never as
sentinel numbers.

Every HD95 is `CandidateHD95`'s, in a cKDTree query's arithmetic. It scores
batches of predictions whose positives lie among fixed candidate voxels,
from arrays over those candidates: a batch is one flag word per candidate,
with a bit per prediction, from which come every surface and each surface
candidate's distance to the truth, read once for the batch. `hd95` scores
one prediction, whose own positives are the candidates; a rule sweep
scores each chunk of its rules from the case's candidates (see
`discovery._Candidates.reports`). The truth's points read per-point lists
of their nearest candidates in a linear sweep of `_LISTED_PREDICTIONS`
rules or more, with `_nearest_bf`, a brute force in the same arithmetic,
where a list cannot decide; otherwise they are queried on a tree over each
prediction's surface.

`evaluate` and the sweep build their reports with `batch_reports`, which
takes DSC and lesion recall and precision from counts: each prediction's
positives, its positives at each truth label, and each of its components'
positives inside the truth.
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
    return np.flatnonzero(mask.values)


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
    voxel on a face of the volume is boundary. A `CandidateHD95` builds its
    truth's once and scores every prediction against it. `flat` holds the
    voxels' flat (C order) indices, ascending, in the order of `points`.
    """

    points: np.ndarray
    tree: cKDTree
    flat: np.ndarray


# cKDTree options. A query's distance does not depend on the tree's shape,
# only on how fast it is found, and an unbalanced tree builds faster. A
# truth's tree is built once per `CandidateHD95` and queried at every
# prediction surface point its memo misses. `_PRED_TREE` is for trees queried
# little for their size, whose build is most of their cost, which
# uncompacted nodes and larger leaves make cheaper: a tree over one
# prediction's surface, queried only at the truth points off it, and a linear
# sweep's tree over its candidates, queried once per listed truth point.
_TRUTH_TREE = {"balanced_tree": False}
_PRED_TREE = {"balanced_tree": False, "compact_nodes": False, "leafsize": 32}


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


def _surface_flat(mask):
    """The ascending flat (C order) indices of the boundary voxels of a mask
    (`LabelVolume` or `LabelledMask`); None when the mask is empty.

    Found from the positive voxels alone: each one off the volume's faces is
    tested against its six face neighbours, gathered by flat index, so no
    pass over the volume or its bounding box is made.
    """
    flat = _positives(mask)
    mask = _volume(mask)
    if not flat.size:
        return None
    faces = np.ones(mask.dims, dtype=bool)
    faces[1:-1, 1:-1, 1:-1] = False
    ny, nz = mask.dims[1:]
    boundary = faces.reshape(-1).take(flat)
    inner = flat[~boundary]
    values = mask.values.ravel()
    interior = np.ones(inner.size, dtype=bool)
    for step in (1, nz, ny * nz):
        interior &= values.take(inner - step)
        interior &= values.take(inner + step)
    boundary[~boundary] = ~interior
    return flat[boundary]


def boundary_surface(mask):
    """Surface of a mask (`LabelVolume` or `LabelledMask`) as queryable
    points, with a `_TRUTH_TREE` over them; None when the mask is empty.
    `_surface_flat` finds the boundary voxels, and only they get coordinates.
    """
    flat = _surface_flat(mask)
    if flat is None:
        return None
    volume = _volume(mask)
    points = _points(flat, volume.dims, volume.spacing)
    return BoundarySurface(points=points, tree=cKDTree(points, **_TRUTH_TREE), flat=flat)


# Elements in one block of `_nearest_bf`'s (points, surface) distance table.
_BF_BLOCK = 1 << 16


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


def hd95(pred, truth):
    """95th percentile of pooled symmetric boundary-to-boundary distances (mm).

    Returns None when either mask is empty. Distances are voxel-centre to
    voxel-centre, each mask's voxels at its own spacing, as a cKDTree query
    gives them; the percentile is `np.percentile`'s linear interpolation
    over the pooled set, taken from its one or two order statistics (see
    `_order_statistics`). Either mask is a `LabelVolume` or a
    `LabelledMask`.

    It is `CandidateHD95`'s, for a batch of one prediction whose positives
    are the candidates, each with the flag word 1.
    """
    pred_volume, truth_volume = _volume(pred), _volume(truth)
    validate_aligned([pred_volume, truth_volume], names=["pred", "truth"])
    flat = _positives(pred)
    if not flat.size:
        return None
    hds = CandidateHD95(truth, flat, pred_volume.spacing, 1,
                        backends.LabelBuffer(truth_volume.dims))
    occupied = np.ones(flat.size + 1, dtype=np.uint8)
    occupied[-1] = 0  # none's
    return hds(1, occupied)[0]


def _order_statistics(values: np.ndarray, n_zeros: int, q: float):
    """(a, b, gamma): the two order statistics that `np.percentile`
    ("linear" method) interpolates for the q-th percentile of `values`
    pooled with `n_zeros` zeros, and its weight on b.

    `values` must be >= 0, so the zeros sort first and the pooled set's k-th
    smallest is 0.0 for k < n_zeros and the (k - n_zeros)-th smallest of
    `values` after. The order statistics come from a partition of `values`,
    which is partitioned in place.
    """
    n = values.size + n_zeros
    index = (n - 1) * (q / 100)  # numpy's virtual index: (n - 1)·quantile
    lower = math.floor(index)
    upper = min(lower + 1, n - 1)
    wanted = [k - n_zeros for k in (lower, upper) if k >= n_zeros]
    if wanted:
        values.partition(wanted)
    a, b = (float(values[k - n_zeros]) if k >= n_zeros else 0.0 for k in (lower, upper))
    return a, b, index - lower


def _interpolated(a: float, b: float, gamma: float) -> float:
    """a and b interpolated at `gamma`, as numpy's `_lerp` does."""
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


# Candidates listed for each truth surface point, nearest first. On the
# `search` benchmark's cases, lists of 16 and 32 took the same time per sweep;
# 48 and 64 cost more to fill than the fallbacks they spared.
_NEAREST = 16
# Predictions from which `CandidateHD95` lists candidates for the truth's points
# rather than build a tree per prediction. On 2 CPUs, 8 alternating passes over
# the `search` benchmark's 9 cases at 48³ (phantom seeds 0 and 3), trees took
# 0.92-0.96x the CPU time of lists at 9 to 11 rules, 0.95-1.01x at 12, and
# 1.06x at 13, 1.13x at 15, 1.19x at 21 and 1.35x at 66.
_LISTED_PREDICTIONS = 13


class CandidateHD95:
    """HD95 against `truth` (a `LabelVolume` or `LabelledMask`) of
    `predictions` predictions, in batches, whose positives all lie among
    fixed `candidates`: ascending flat (C order) indices of the truth's grid,
    whose voxels lie at `spacing`. Each HD95 is the 95th percentile of the
    pooled symmetric distances between the truth's `boundary_surface` and
    the prediction's, in a cKDTree query's arithmetic, from arrays over the
    candidates, with no volume and no array of one entry per positive: a
    batch is one flag word per candidate (see `__call__`). `scratch` is a
    labels buffer of the grid, borrowed for set-up.

    Set up once, unless the truth is empty, and read by every batch:
    - each candidate's six face neighbours, as candidate indices (n, for the
      n candidates, where the neighbour is no candidate or off the grid),
      gathered from the candidates' indices written into `scratch`;
    - the candidate index of each truth surface point. At the truth's own
      spacing a candidate there is the same point, 0.0 away both ways. At
      another spacing, however close, no point is shared;
    - prediction to truth: a memo over the candidates holds 0.0 at shared
      points; a batch's misses are queried on the truth's tree at once and
      stored;
    - truth to prediction, for a linear sweep of `_LISTED_PREDICTIONS`
      predictions or more, whose candidates are not the whole grid: each
      truth surface point off a prediction's surface reads the first
      candidate on its list (its `_NEAREST` nearest candidates, from one
      k-nearest query of a tree over all of them, each list filled once, for
      a batch's points at once) that is on that surface. Every nearer surface
      voxel would be listed before it, so its distance is the tree's
      arithmetic. A list of fewer candidates lists index n, on no surface.
    A point whose list holds none of a prediction's surface lies at least its
    last listed distance away. Its exact value is needed only when the least
    of those is below the upper order statistic taken with such points at
    +inf; otherwise they cannot move either order statistic, and
    `_nearest_bf` runs only then. Fewer predictions cannot repay the tree
    over the candidates and the lists, and on the whole grid a list rarely
    reaches a near-full prediction's surface, so otherwise each prediction
    queries those points on a tree over its surface.
    """

    def __init__(self, truth, candidates: np.ndarray, spacing, predictions: int,
                 scratch: backends.LabelBuffer):
        volume = _volume(truth)
        self.surface = surface = boundary_surface(truth)
        self.flat, self.dims, self.spacing = candidates, volume.dims, spacing
        if surface is None:
            return
        n, (nx, ny, nz) = candidates.size, self.dims
        x, rest = np.divmod(candidates, ny * nz)
        y, z = np.divmod(rest, nz)
        # candidate i holds i - n in the borrowed volume, every other voxel 0,
        # so a gather plus n reads a voxel's candidate index, n where it is none
        index = scratch.claim(positives=candidates).reshape(-1)
        index[candidates] = np.arange(-n, 0, dtype=np.int32)
        self.neighbours = np.empty((6, n), dtype=np.int32)
        for row, step, edge in zip(self.neighbours, (1, -1, nz, -nz, ny * nz, -ny * nz),
                                   (z == nz - 1, z == 0, y == ny - 1, y == 0, x == nx - 1, x == 0)):
            index.take(candidates + step, out=row, mode="clip")
            row += n
            row[edge] = n  # off the grid
        if spacing == volume.spacing:
            self.g_index = index.take(surface.flat) + n
        else:
            self.g_index = np.full(surface.flat.size, n, dtype=np.int32)
        self.memo = np.full(n, np.nan)
        self.memo[self.g_index[self.g_index < n]] = 0.0
        self.near = None  # no lists: a tree per prediction
        if predictions >= _LISTED_PREDICTIONS and n < volume.values.size:
            self.listed = np.zeros(surface.flat.size, dtype=bool)
            self.near = np.full((surface.flat.size, _NEAREST), n, dtype=np.int32)  # n: none
            self.near_distance = np.empty((surface.flat.size, _NEAREST))
            self.tree = None

    def __call__(self, k: int, occupied: np.ndarray) -> list:
        """The HD95 of each of `k` predictions, None where it is empty or the
        truth is. `occupied` holds one flag word per candidate, bit i set
        where the candidate is in prediction i, and a last, 0, for none; k is
        at most the bits of its unsigned dtype. A candidate's surface word,
        `occupied` less the bits all six neighbours set, sets bit i where it
        is on prediction i's surface, and the memo is read once for each
        candidate on some surface.
        """
        hds = [None] * k
        surface = self.surface
        if surface is None:
            return hds
        enclosed = occupied.take(self.neighbours[0])
        for neighbours in self.neighbours[1:]:
            enclosed &= occupied.take(neighbours)
        surfaced = np.zeros_like(occupied)  # the last, none's, stays 0
        np.bitwise_and(occupied[:-1], ~enclosed, out=surfaced[:-1])
        edge = np.flatnonzero(surfaced != 0)  # ascending: each surface candidate once
        if not edge.size:
            return hds
        from_p = self.memo.take(edge)
        missed = np.flatnonzero(np.isnan(from_p))
        if missed.size:
            new = edge.take(missed)
            from_p[missed] = surface.tree.query(_points(self.flat.take(new), self.dims,
                                                        self.spacing))[0]
            self.memo[new] = from_p[missed]
        bits = occupied.dtype.type(1) << np.arange(k, dtype=occupied.dtype)
        on = (surfaced.take(edge) & bits[:, None]).astype(bool)  # (prediction, surface candidate)
        present = on.any(axis=1)
        own = (surfaced.take(self.g_index) & bits[:, None]) == 0  # (prediction, truth point)
        own[~present] = False  # an empty prediction
        own_rows, points = np.nonzero(own)
        if self.near is not None:
            new = np.flatnonzero(own.any(axis=0) & ~self.listed)
            if new.size:
                if self.tree is None:
                    self.tree = cKDTree(_points(self.flat, self.dims, self.spacing), **_PRED_TREE)
                self.near_distance[new], self.near[new] = self.tree.query(surface.points[new],
                                                                          _NEAREST)
                self.listed[new] = True
            # each (prediction, point) list's candidates on that prediction's surface
            hits = surfaced.take(self.near).take(points, axis=0)
            hits &= bits.take(own_rows)[:, None]
            hits = hits.astype(bool)
            first = hits.argmax(axis=1)
            from_g = self.near_distance[points, first]
            from_g[~hits[np.arange(points.size), first]] = np.inf
        own_bounds = own_rows.searchsorted(np.arange(k + 1))
        for i in np.flatnonzero(present):
            off, on_i = slice(own_bounds[i], own_bounds[i + 1]), np.flatnonzero(on[i])
            edge_i = edge.take(on_i)
            if self.near is None:
                tree = cKDTree(_points(self.flat.take(edge_i), self.dims, self.spacing),
                               **_PRED_TREE)
                from_g_i = tree.query(surface.points.take(points[off], axis=0))[0]
            else:
                from_g_i = from_g[off]
            hds[i] = self._hd95(from_p.take(on_i), from_g_i, points[off], edge_i)
        return hds

    def _hd95(self, from_p, from_g, points, edge):
        """One prediction's HD95 from its prediction side `from_p`, its truth
        side `from_g` at truth surface points `points`, +inf where a list
        holds none of its surface, and `edge`, its surface's candidate indices."""
        surface = self.surface
        n_shared = surface.flat.size - points.size
        low, high, gamma = _order_statistics(np.concatenate([from_p, from_g]), n_shared,
                                             HD_PERCENTILE)
        far = np.flatnonzero(np.isinf(from_g))
        if far.size and self.near_distance[points.take(far), -1].min() < high:
            from_g[far] = _nearest_bf(surface.points.take(points.take(far), axis=0),
                                      _points(self.flat.take(edge), self.dims, self.spacing))
            low, high, gamma = _order_statistics(np.concatenate([from_p, from_g]), n_shared,
                                                 HD_PERCENTILE)
        return _interpolated(low, high, gamma)


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


def batch_reports(g: LabelledMask, sizes, covered, counts, keep, starts, inside, hds,
                  config: MetricsConfig) -> list[MetricsReport]:
    """The reports of predictions scored against one labelled truth `g`,
    from counts of their positives: prediction k has sizes[k] positives,
    covered[k, j] of them at the truth's j-th kept label, and HD95 hds[k].

    Prediction k's components (its label 0 first) are entries
    starts[k]:starts[k + 1] of `counts`, `keep` and `inside`, which counts
    each component's positives at a kept truth label. Lesion recall and
    precision are the shares of kept components whose fraction of voxels
    inside the other mask strictly exceeds the threshold.
    """
    g_counts, g_keep = g.components[1:]
    n = len(hds)
    overlap = covered.sum(axis=1)
    recalled = np.count_nonzero(covered / g_counts[g_keep] > config.s_gt, axis=1)
    lesion_rows = np.repeat(np.arange(n), np.diff(starts))[keep]
    precise = np.bincount(lesion_rows[inside[keep] / counts[keep] > config.s_pred], minlength=n)
    lesions = np.bincount(lesion_rows, minlength=n)
    n_gt, g_size = int(np.count_nonzero(g_keep)), g.positives.size
    reports = []
    for k, hd in enumerate(hds):
        size, n_pred = int(sizes[k]), int(lesions[k])
        denom = size + g_size
        reports.append(MetricsReport(
            dsc=2.0 * int(overlap[k]) / denom if denom else 1.0,
            dsc_both_empty=not size and not g_size,
            hd95_mm=hd,
            recall_gt=float(recalled[k]) / n_gt if n_gt else None,
            precision_pred=float(precise[k]) / n_pred if n_pred else None,
            n_gt_lesions=n_gt,
            n_pred_lesions=n_pred,
            thresholds=(config.s_gt, config.s_pred),
            connectivity=config.connectivity,
        ))
    return reports


def evaluate(pred, truth, config: MetricsConfig | None = None,
             zone: LabelVolume | None = None) -> MetricsReport:
    """All four metrics plus lesion counts; `zone` restricts both masks first.

    Either mask is a `LabelVolume` or a `LabelledMask`; one labelled at
    `config.connectivity` is scored without scanning or labelling it again.
    With a zone each restricted mask is labelled afresh, since the
    restriction can split a component.
    """
    config = config or MetricsConfig()
    volumes = [_volume(pred), _volume(truth)] + ([zone] if zone is not None else [])
    names = ["pred", "truth"] + (["zone"] if zone is not None else [])
    validate_aligned(volumes, names=names)
    g = label_mask(in_zone(truth, zone), config.connectivity)
    pred = label_mask(in_zone(pred, zone), config.connectivity)
    labels, counts, keep = pred.components
    (g_labels, g_counts, g_keep), p = g.components, pred.positives
    g_at = g_labels.reshape(-1).take(p)
    inside = g_keep.take(g_at)
    covered = np.bincount(g_at[inside], minlength=g_counts.size)[g_keep]
    return batch_reports(g, [p.size], covered[None], counts, keep, [0, counts.size],
                         np.bincount(labels.reshape(-1).take(p[inside]), minlength=counts.size),
                         [hd95(pred, g)], config)[0]
