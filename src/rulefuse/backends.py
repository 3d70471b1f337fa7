"""Hot numeric kernels: the batched logistic descent and component labeling."""

from __future__ import annotations

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


def label_components(mask, connectivity):
    """Label connected regions of a 3D boolean mask. Returns (labels, count)."""
    structure = _STRUCTURES.get(connectivity)
    if structure is None:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity!r}")
    return ndimage.label(mask, structure=structure)
