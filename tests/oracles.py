"""Brute-force reference implementations used to cross-check the package.

Everything here is written independently of the library code: plain Python
loops, explicit neighbour sets, quadratic distance scans, hand-rolled
percentile interpolation. Slow on purpose — only ever run on small volumes.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# --- rule separability --------------------------------------------------------

# Condition columns in canonical order: k = 4·r1 + 2·r2 + r3.
CONDITIONS = [((k >> 2) & 1, (k >> 1) & 1, k & 1) for k in range(8)]


def threshold_rule_number(w, b) -> int:
    """Rule number of the threshold function [w·r > b] over the 8 conditions."""
    n = 0
    for r in CONDITIONS:
        bit = 1 if (w[0] * r[0] + w[1] * r[1] + w[2] * r[2]) > b else 0
        n = (n << 1) | bit
    return n


def separable_rule_numbers() -> set[int]:
    """All rule numbers realizable as linear threshold functions.

    The grid (integer weights in [-3,3], half-integer biases in [-3.5,3.5])
    is exhaustive for 3 Boolean inputs: any threshold function over {0,1}^3
    has a realization in this range.
    """
    found = set()
    weights = range(-3, 4)
    biases = [x / 2.0 for x in range(-7, 8)]
    for w1, w2, w3 in product(weights, repeat=3):
        for b in biases:
            found.add(threshold_rule_number((w1, w2, w3), b))
    return found


# --- logistic descent ------------------------------------------------------------


def logistic_descent_ref(X, d, lr, max_iters):
    """One decision vector's full-batch descent on the summed cross-entropy.

    Computes the loss itself each step and stops before the first step whose
    loss is non-finite. Returns (beta, iterations_used, finite).
    """
    X = np.asarray(X, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    beta = np.zeros(X.shape[1])
    used = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(max_iters):
            p = 1.0 / (1.0 + np.exp(-(X @ beta)))
            loss = -np.where(d > 0.5, np.log(p), np.log1p(-p)).sum()
            if not np.isfinite(loss):
                return beta, used, False
            beta -= lr * (X.T @ (p - d))
            used += 1
    return beta, used, True


# --- connected components ------------------------------------------------------


def neighbor_offsets(connectivity: int):
    offsets = []
    for dx, dy, dz in product((-1, 0, 1), repeat=3):
        if (dx, dy, dz) == (0, 0, 0):
            continue
        manhattan = abs(dx) + abs(dy) + abs(dz)
        if connectivity == 6 and manhattan > 1:
            continue
        if connectivity == 18 and manhattan > 2:
            continue
        offsets.append((dx, dy, dz))
    return offsets


def flood_fill_components(mask: np.ndarray, connectivity: int = 26) -> list[set]:
    """List of voxel-coordinate sets, one per connected component."""
    mask = np.asarray(mask, dtype=bool)
    offsets = neighbor_offsets(connectivity)
    seen = np.zeros_like(mask)
    components = []
    nx, ny, nz = mask.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z] or seen[x, y, z]:
                    continue
                stack = [(x, y, z)]
                seen[x, y, z] = True
                comp = set()
                while stack:
                    cx, cy, cz = stack.pop()
                    comp.add((cx, cy, cz))
                    for dx, dy, dz in offsets:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz:
                            if mask[px, py, pz] and not seen[px, py, pz]:
                                seen[px, py, pz] = True
                                stack.append((px, py, pz))
                components.append(comp)
    return components


# --- voxel metrics --------------------------------------------------------------


def dice_bf(pred: np.ndarray, truth: np.ndarray) -> float:
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(truth, dtype=bool)
    inter = 0
    np_count = 0
    ng_count = 0
    for idx in product(*(range(s) for s in p.shape)):
        if p[idx]:
            np_count += 1
        if g[idx]:
            ng_count += 1
        if p[idx] and g[idx]:
            inter += 1
    if np_count + ng_count == 0:
        return 1.0
    return 2.0 * inter / (np_count + ng_count)


def boundary_voxels_bf(mask: np.ndarray) -> list[tuple[int, int, int]]:
    """Positive voxels with a non-positive 6-neighbour (outside counts as 0)."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    out = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z]:
                    continue
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    px, py, pz = x + dx, y + dy, z + dz
                    if not (0 <= px < nx and 0 <= py < ny and 0 <= pz < nz) or not mask[px, py, pz]:
                        out.append((x, y, z))
                        break
    return out


def percentile_linear_bf(values, q: float) -> float:
    """Linear-interpolation percentile on the sorted values, from the formula."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("empty")
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def hd95_bf(pred: np.ndarray, truth: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    """Quadratic-scan pooled symmetric 95th-percentile boundary distance."""
    if not np.asarray(pred, dtype=bool).any() or not np.asarray(truth, dtype=bool).any():
        return None
    surf_p = boundary_voxels_bf(pred)
    surf_g = boundary_voxels_bf(truth)
    sx, sy, sz = spacing

    def dist(a, b):
        return math.sqrt(
            ((a[0] - b[0]) * sx) ** 2 + ((a[1] - b[1]) * sy) ** 2 + ((a[2] - b[2]) * sz) ** 2
        )

    pooled = []
    for a in surf_p:
        pooled.append(min(dist(a, b) for b in surf_g))
    for b in surf_g:
        pooled.append(min(dist(b, a) for a in surf_p))
    return percentile_linear_bf(pooled, 95.0)


# --- lesion metrics ---------------------------------------------------------------


def lesion_recall_bf(pred: np.ndarray, truth: np.ndarray, s_gt: float, connectivity: int = 26):
    """Per truth component, sum overlap fractions over every pred component."""
    gt_components = flood_fill_components(truth, connectivity)
    if not gt_components:
        return None
    pred_components = flood_fill_components(pred, connectivity)
    hits = 0
    for g in gt_components:
        coverage = sum(len(p & g) for p in pred_components) / len(g)
        if coverage > s_gt:
            hits += 1
    return hits / len(gt_components)


def lesion_precision_bf(pred: np.ndarray, truth: np.ndarray, s_pred: float, connectivity: int = 26):
    pred_components = flood_fill_components(pred, connectivity)
    if not pred_components:
        return None
    gt_components = flood_fill_components(truth, connectivity)
    hits = 0
    for p in pred_components:
        coverage = sum(len(g & p) for g in gt_components) / len(p)
        if coverage > s_pred:
            hits += 1
    return hits / len(pred_components)


# --- random masks -----------------------------------------------------------------


def random_mask_pair(rng: np.random.Generator, dims=(16, 16, 16)):
    """Blob-ish random masks: thresholded sums of a few random balls plus noise."""
    def one():
        mask = np.zeros(dims, dtype=bool)
        for _ in range(int(rng.integers(0, 4))):
            center = rng.uniform(0, np.array(dims) - 1)
            radius = rng.uniform(1.0, 4.0)
            grid = np.indices(dims).astype(float)
            d2 = sum((grid[i] - center[i]) ** 2 for i in range(3))
            mask |= d2 <= radius**2
        mask |= rng.random(dims) < 0.02
        return mask

    return one(), one()
