"""Hot numeric kernels: the batched logistic descent and component labeling."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_STRUCTURES = {c: ndimage.generate_binary_structure(3, r) for c, r in ((6, 1), (18, 2), (26, 3))}

# A box is labelled from its z-runs when it holds more than this many voxels
# per run, and by ndimage.label otherwise. ndimage.label costs 15-28 ns per
# box voxel whatever the box holds; the run labeller costs per run. Measured
# on 2 CPUs (numpy 2.4.6, scipy 1.17.1) over random and smoothed-noise masks
# from 16³ to 48³: at 34-36 voxels per run the runs took 0.8-1.2x ndimage's
# time, at 50-56 0.5-0.9x, and from 64 on 0.2-0.8x (1.0x in 16³ boxes). A
# `search` prediction holds 47-180 (median 99) and labels in 0.35-0.45x. At
# 64 a full box (as many voxels per run as the box is deep, 48 at 48³), a
# checkerboard (2; 17x slower by runs) and a mask of a 16³ phantom stay on
# ndimage.label.
_BOX_VOXELS_PER_RUN = 64

# The rows a z-run can touch after its own, as (dx, dy) steps, with the z
# slack each allows at a connectivity: 1 where a neighbour may sit one voxel
# past the run's ends, 0 where it must overlap it. At 6 the diagonal rows
# touch nothing.
_FORWARD_ROWS = {
    26: (((0, 1), 1), ((1, -1), 1), ((1, 0), 1), ((1, 1), 1)),
    18: (((0, 1), 1), ((1, -1), 0), ((1, 0), 1), ((1, 1), 0)),
    6: (((0, 1), 0), ((1, 0), 0)),
}


# Descent steps between two finiteness checks. The check costs about what a
# step costs, so one per block leaves it a few percent of the descent.
_DESCENT_BLOCK = 32


def fit_logistic(X, D, lr, max_iters):
    """Full-batch gradient descent on the summed binary cross-entropy, for
    every row of the decision matrix D at once.

    Returns (B, iterations_used, finite): B holds one coefficient row per
    decision row. A row whose loss turns non-finite freezes at the step
    before it, with finite False and its own iteration count; the loss is
    finite exactly when every chosen probability (p where d = 1, 1 - p where
    d = 0) is positive, so only that is tested.

    Steps run in blocks of `_DESCENT_BLOCK` into reused buffers, and the test
    runs once per block, on all of the block's probabilities. When it fails,
    the block's first failing step is located, its failing rows freeze at the
    coefficients that step started from, the step is taken for the other
    rows alone, and blocks resume from the next step. Every row meets the
    same operations on the same shapes as under a test after every step, so
    B, iterations_used and finite are bit for bit those of that test.
    """
    X = np.asarray(X, dtype=np.float64)
    D = np.atleast_2d(np.asarray(D, dtype=np.float64))
    B = np.zeros((D.shape[0], X.shape[1]))
    used = np.full(D.shape[0], max_iters)
    finite = np.ones(D.shape[0], dtype=bool)
    rows = np.arange(D.shape[0])  # rows still descending; diverged ones are retired
    beta, d, step = B.copy(), D, 0
    neg_xt = -X.T
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # block buffers for the rows that remain: step k of a block turns
            # betas[k] into betas[k + 1] by way of the probabilities P[k]
            P = np.empty((_DESCENT_BLOCK, rows.size, X.shape[0]))
            chosen = np.empty_like(P)
            betas = np.empty((_DESCENT_BLOCK + 1, rows.size, X.shape[1]))
            resid, grad = np.empty_like(P[0]), np.empty_like(betas[0])
            positive = d > 0.5
            sign, offset = np.where(positive, 1.0, -1.0), np.where(positive, 0.0, 1.0)
            betas[0] = beta
            P_at, beta_at = list(P), list(betas)  # each step's views, made once
            while step < max_iters:
                n = min(_DESCENT_BLOCK, max_iters - step)
                for k in range(n):
                    p, b = P_at[k], beta_at[k]
                    np.matmul(b, neg_xt, out=p)
                    np.exp(p, out=p)
                    p += 1.0
                    np.divide(1.0, p, out=p)
                    np.subtract(p, d, out=resid)
                    np.matmul(resid, X, out=grad)
                    if lr != 1.0:  # x * 1.0 == x, so skipping it changes no bit
                        grad *= lr
                    np.subtract(b, grad, out=beta_at[k + 1])
                # p * 1 + 0 == p and p * -1 + 1 == 1 - p exactly; NaN fails
                np.multiply(P[:n], sign, out=chosen[:n])
                chosen[:n] += offset
                if not chosen[:n].min() > 0:
                    break
                betas[0] = betas[n]
                step += n
            else:
                B[rows] = betas[0]
                return B, used, finite
            # retire the rows that fail at the block's first failing step i,
            # then take step i for the others on their own
            i = int(np.argmin((chosen[:n] > 0).all(axis=(1, 2))))
            ok = (chosen[i] > 0).all(axis=1)
            gone = rows[~ok]
            step += i
            B[gone], used[gone], finite[gone] = betas[i][~ok], step, False
            rows, beta, d, p = rows[ok], betas[i][ok], d[ok], P[i][ok]
            if not rows.size:
                return B, used, finite
            beta -= lr * ((p - d) @ X)
            step += 1


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


def support_of(mask) -> np.ndarray:
    """The positives of a 3D boolean mask: their flat indices in C order,
    ascending, whatever the mask's layout."""
    return np.flatnonzero(mask)


class LabelBuffer:
    """A reused labels volume: `array`, C-contiguous int32, is zero outside
    what its last writer recorded through `claim`: `box`, the box a
    `label_components` call labelled, or `positives`, the flat indices a
    batch wrote its labels at (see `components_batch`). The next writer
    clears only that, so it never reads an earlier writer's labels."""

    def __init__(self, shape):
        self.array = np.zeros(shape, dtype=np.int32)
        self.box = (slice(0, 0),) * 3
        self.positives = np.empty(0, dtype=np.intp)

    def claim(self, box=(slice(0, 0),) * 3, positives=None) -> np.ndarray:
        """`array`, cleared where the last writer wrote, with `box` or the
        flat indices `positives` recorded as where this writer writes."""
        self.array[self.box] = 0
        self.array.reshape(-1)[self.positives] = 0
        self.box = box
        self.positives = self.positives[:0] if positives is None else positives
        return self.array


def label_components(mask, connectivity, box, out: LabelBuffer | None = None):
    """Label connected regions of a 3D boolean mask. Returns (labels, count).

    Only mask[box] is labelled, where `box` holds every positive voxel. Scan
    order inside a box is scan order in the volume, so the labels are those
    of the whole mask, and every voxel outside the box is background. The
    labels go into `out`'s array, when given, instead of a fresh array.

    A box holding more than `_BOX_VOXELS_PER_RUN` voxels per z-run is
    labelled from its runs (see `_label_runs`), any other by ndimage.label;
    both give the same labels, numbered alike. A run holds at most a row of
    the box, so a box whose voxels times its depth are at most that many
    per positive goes to ndimage.label without its runs being counted.
    """
    structure = _STRUCTURES.get(connectivity)
    if structure is None:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity!r}")
    labels = np.zeros(mask.shape, dtype=np.int32) if out is None else out.claim(box)
    crop = mask[box]
    if not crop.size:
        return labels, 0
    if crop.size * crop.shape[2] > _BOX_VOXELS_PER_RUN * np.count_nonzero(crop):
        bounds = np.flatnonzero(_run_ends(crop))
        if crop.size > _BOX_VOXELS_PER_RUN * (bounds.size // 2):
            origin = tuple(s.indices(n)[0] for s, n in zip(box, mask.shape))
            return labels, _label_box_runs(bounds, crop.shape, origin, connectivity, labels)
    return labels, ndimage.label(crop, structure=structure, output=labels[box])


def _run_ends(crop) -> np.ndarray:
    """The ends of the z-runs of a 3D boolean box, flat over the box with one
    empty voxel after each row: True at each run's first voxel and at the
    voxel just past its last, so every run has exactly two."""
    bx, by, bz = crop.shape
    padded = np.zeros(bx * by * (bz + 1) + 1, dtype=bool)
    padded[1:].reshape(bx, by, bz + 1)[..., :bz] = crop
    return padded[1:] != padded[:-1]


def _label_box_runs(bounds, shape, origin, connectivity, labels) -> int:
    """Label a box of `shape` at `origin` in the C-contiguous `labels` volume
    from its z-runs, whose ends `bounds` are the flat positions of
    `_run_ends`' marks, and return the component count."""
    _, by, bz = shape
    pitch = bz + 1
    start, stop = bounds[0::2], bounds[1::2]
    lengths = stop - start
    # `_run_ends` places one empty voxel after each row; one empty row after
    # each x slab makes `_label_runs`' layout
    run_labels, rank = _label_runs(start + start // (by * pitch) * pitch, lengths, by, bz,
                                   connectivity)
    row, z = np.divmod(start, pitch)
    x, y = np.divmod(row, by)
    ny, nz = labels.shape[1:]
    # each run's first voxel in the volume, less the run voxels before it
    at = ((x + origin[0]) * ny + y + origin[1]) * nz + z + origin[2]
    at -= lengths.cumsum() - lengths
    labels.reshape(-1)[np.arange(lengths.sum()) + at.repeat(lengths)] = run_labels.repeat(lengths)
    return int(rank[-1]) if rank.size else 0


def _label_runs(first, lengths, ny, nz, connectivity):
    """Label z-runs by connected component. Returns (labels, rank): each
    run's label, numbered as ndimage.label numbers components, by their
    first voxels' scan order, and for each run the number of components
    whose first run is it or an earlier one.

    The runs start at the ascending positions `first` and hold `lengths`
    voxels, in a layout of rows of `nz` voxels and x slabs of `ny` rows,
    with one empty voxel after each row and one empty row after each slab
    (see `batch_positions`). Each run looks for neighbours in the up-to-four
    rows after its own: one `searchsorted` over the runs' last positions
    finds, for each row, the first run that ends at or after the query's
    start less its z slack, and the runs from there on that start at or
    before its end plus the slack touch it, found by stepping along them all
    at once. The padding keeps a search widened by its slack from reaching
    another row. Components are joined by hooking the larger of two roots
    onto the smaller, then pointer jumping until every run points at its
    root; since every pointer goes down, a root is its component's first run.
    """
    pitch = nz + 1
    last = first + lengths - 1
    steps = [((dx * (ny + 1) + dy) * pitch, slack)
             for (dx, dy), slack in _FORWARD_ROWS[connectivity]]
    j = last.searchsorted(np.concatenate([first + (step - slack) for step, slack in steps]))
    hi = np.concatenate([last + (step + slack) for step, slack in steps])
    runs = np.arange(first.size)
    i = np.tile(runs, len(steps))
    first_end = np.append(first, np.iinfo(first.dtype).max)  # past the last run, none starts
    pairs = []
    while True:
        touch = first_end.take(j) <= hi
        if not touch.any():
            break
        i, j, hi = i[touch], j[touch], hi[touch]
        pairs.append((i, j))
        j = j + 1
    parent = runs.copy()
    if pairs:
        i, j = (np.concatenate(ends) for ends in zip(*pairs))
        parent[j] = i  # i < j: every run is still a root
        while True:
            while True:
                up = parent[parent]
                if (up == parent).all():
                    break
                parent = up
            a, b = parent[i], parent[j]
            apart = a != b
            if not apart.any():
                break
            i, j, a, b = i[apart], j[apart], a[apart], b[apart]
            parent[np.maximum(a, b)] = np.minimum(a, b)
    rank = (parent == runs).cumsum(dtype=np.int32)
    return rank[parent], rank


def batch_positions(flat, shape, n_masks) -> np.ndarray:
    """An (n_masks, len(flat)) table of the voxels at C-order flat indices
    `flat` of a grid of `shape`, in the layout `_label_runs` reads: one empty
    voxel after each row, one empty row after each x slab, and in row k the
    positions in mask k, whose grid comes after k grids and k empty slabs.
    The table is int32 when every position and its neighbours' fit, int64
    otherwise."""
    nx, ny, nz = shape
    stride = (nx + 1) * (ny + 1) * (nz + 1)
    dtype = np.int32 if (n_masks + 1) * stride <= np.iinfo(np.int32).max else np.int64
    padded = flat + flat // nz + flat // (ny * nz) * (nz + 1)
    return (padded + (np.arange(n_masks) * stride)[:, None]).astype(dtype)


def components_batch(positions, bounds, shape, connectivity, min_voxels=1) -> list:
    """`components` of each of a batch of masks on a grid of `shape`, found
    from their positives alone by one labelling of all their z-runs.

    `positions` holds the masks' positives, ascending, at their
    `batch_positions`, and mask k's are positions[bounds[k]:bounds[k + 1]].
    In that layout one empty slab separates two masks, so no run touches
    another mask's. A run is a stretch of consecutive positions, which the
    padding ends at each row's end. The labels of mask k are the batch's
    less the components of the masks before it, and a component's voxel
    count is the sum of its runs' lengths.

    Returns one (labels, counts, keep, kept) per mask: `labels` labels its
    positives (as `components`' labels volume does there), `counts` and
    `keep` are as `components` returns them, and `kept` marks the positives
    whose component is kept. The arrays are views into ones the batch shares.
    """
    n_masks = len(bounds) - 1
    starts = np.flatnonzero(np.diff(positions, prepend=-2) != 1)
    lengths = np.diff(starts, append=positions.size)
    labels, rank = _label_runs(positions[starts].astype(np.intp), lengths, shape[1], shape[2],
                               connectivity)
    run_bounds = starts.searchsorted(bounds)
    run_masks = np.arange(n_masks).repeat(np.diff(run_bounds))
    # the components of the masks before each one
    before = np.concatenate((np.zeros(1, rank.dtype), rank))[run_bounds[:-1]]
    # each mask's counts and keep come in one slice, its label 0 first
    zero = before + np.arange(n_masks)
    slots = labels + run_masks
    total = (int(rank[-1]) if rank.size else 0) + n_masks
    counts = np.bincount(slots, lengths, total).astype(np.intp)  # sums of whole numbers: exact
    counts[zero] = shape[0] * shape[1] * shape[2] - np.diff(bounds)
    keep = counts >= min_voxels
    keep[zero] = False
    local = np.repeat(labels - before[run_masks], lengths)
    kept = np.repeat(keep[slots], lengths)
    ends, slot_ends = list(bounds), zero.tolist() + [total]
    return [
        (local[a:b], counts[c:d], keep[c:d], kept[a:b])
        for a, b, c, d in zip(ends, ends[1:], slot_ends, slot_ends[1:])
    ]


def components(mask, connectivity, min_voxels=1, positives: np.ndarray | None = None, out=None):
    """Label `mask` and mark its components of at least `min_voxels` voxels.

    Returns (labels, counts, keep): `counts[i]` voxels carry label i, and
    `keep[i]` is True when that many is at least `min_voxels`. Label 0 is
    background and is never kept.

    Only the positive voxels are counted, and only their bounding box is
    labelled; every other voxel is background. `positives` are the mask's
    (see `support_of`) when the caller has them; `out` is as for
    `label_components`.
    """
    if positives is None:
        positives = support_of(mask)
    box = bounding_box(positives, mask.shape)
    labels, n = label_components(mask, connectivity, box, out)
    counts = np.bincount(labels.ravel().take(positives), minlength=n + 1)
    counts[0] = labels.size - positives.size
    keep = counts >= min_voxels
    keep[0] = False
    return labels, counts, keep
