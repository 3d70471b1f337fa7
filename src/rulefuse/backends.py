"""Hot numeric kernels: the batched logistic descent and component labeling."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import ndimage

_STRUCTURES = {c: ndimage.generate_binary_structure(3, r) for c, r in ((6, 1), (18, 2), (26, 3))}


def fit_logistic(X, D, lr, max_iters):
    """Full-batch gradient descent on the summed binary cross-entropy, for
    every row of the decision matrix D at once.

    Returns (B, iterations_used, finite): B holds one coefficient row per
    decision row. A row whose loss turns non-finite freezes at the step
    before it, with finite False and its own iteration count; the loss is
    finite exactly when every chosen probability (p where d = 1, 1 - p where
    d = 0) is positive, so only that is tested.
    """
    X = np.asarray(X, dtype=np.float64)
    D = np.atleast_2d(np.asarray(D, dtype=np.float64))
    B = np.zeros((D.shape[0], X.shape[1]))
    used = np.full(D.shape[0], max_iters)
    finite = np.ones(D.shape[0], dtype=bool)
    rows = np.arange(D.shape[0])  # rows still descending; diverged ones are retired
    beta, d = B.copy(), D
    positive = d > 0.5
    neg_xt = -X.T
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max_iters):
            p = 1.0 / (1.0 + np.exp(beta @ neg_xt))
            chosen_positive = np.where(positive, p, 1.0 - p) > 0
            if not chosen_positive.all():
                ok = chosen_positive.all(axis=1)
                gone = rows[~ok]
                B[gone], used[gone], finite[gone] = beta[~ok], step, False
                rows, beta, d, positive, p = rows[ok], beta[ok], d[ok], positive[ok], p[ok]
                if not rows.size:
                    break
            beta -= lr * ((p - d) @ X)
    B[rows] = beta
    return B, used, finite


class Support(NamedTuple):
    """The positive voxels of a mask: their flat indices in C order, ascending,
    and a box of slices holding every positive voxel. `support_of` gives the
    smallest such box (empty slices when there are none); any box that holds
    them labels them alike (see `label_components`)."""

    flat: np.ndarray
    box: tuple[slice, slice, slice]


def bounding_box(flat, shape) -> tuple[slice, slice, slice]:
    """Smallest box holding the voxels at the ascending C-order flat indices
    `flat` of a volume of `shape`; empty slices when `flat` is empty.

    The first axis's range comes from the end points, the others from integer
    arithmetic on the indices.
    """
    if not flat.size:
        return (slice(0, 0),) * 3
    ny, nz = shape[1], shape[2]
    rows, z = np.divmod(flat, nz)
    y = rows % ny
    return (
        slice(int(flat[0]) // (ny * nz), int(flat[-1]) // (ny * nz) + 1),
        slice(int(y.min()), int(y.max()) + 1),
        slice(int(z.min()), int(z.max()) + 1),
    )


def support_of(mask) -> Support:
    """`Support` of a 3D boolean mask."""
    flat = np.flatnonzero(mask)
    return Support(flat, bounding_box(flat, mask.shape))


class LabelBuffer:
    """A reused labels volume: `array`, C-contiguous int32, is zero outside
    `box`, the box the last `label_components` call wrote, so the next call
    clears only that box."""

    def __init__(self, shape):
        self.array = np.zeros(shape, dtype=np.int32)
        self.box = (slice(0, 0),) * 3


def label_components(mask, connectivity, box=None, out=None):
    """Label connected regions of a 3D boolean mask. Returns (labels, count).

    Only mask[box] is labelled, where `box` holds every positive voxel (the
    mask's bounding box when not given). Scan order inside a box is scan
    order in the volume, so the labels are those of the whole mask, and
    every voxel outside the box is background. `out` receives the labels
    instead of a fresh array: a `LabelBuffer` of the mask's shape, or a
    C-contiguous int32 array of that shape, which is zeroed first.
    """
    structure = _STRUCTURES.get(connectivity)
    if structure is None:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity!r}")
    if box is None:
        box = support_of(mask).box
    if out is None:
        out = np.zeros(mask.shape, dtype=np.int32)
    elif isinstance(out, LabelBuffer):
        out.array[out.box] = 0
        out.box, out = box, out.array
    else:
        out.fill(0)
    crop = mask[box]
    if not crop.size:
        return out, 0
    return out, ndimage.label(crop, structure=structure, output=out[box])


def components(mask, connectivity, min_voxels=1, support: Support | None = None, out=None):
    """Label `mask` and mark its components of at least `min_voxels` voxels.

    Returns (labels, counts, keep): `counts[i]` voxels carry label i, and
    `keep[i]` is True when that many is at least `min_voxels`. Label 0 is
    background and is never kept.

    Only the positive voxels are counted, and only their bounding box is
    labelled; every other voxel is background. `support` is the mask's
    `Support` when the caller has it; `out` is as for `label_components`.
    """
    if support is None:
        support = support_of(mask)
    labels, n = label_components(mask, connectivity, support.box, out)
    counts = np.bincount(labels.ravel().take(support.flat), minlength=n + 1)
    counts[0] = labels.size - support.flat.size
    keep = counts >= min_voxels
    keep[0] = False
    return labels, counts, keep
