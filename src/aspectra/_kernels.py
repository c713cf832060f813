"""Hot numeric kernels: lasso coordinate descent and exhaustive k-NN scoring.

Both are plain numpy and coerce their inputs to float64. `fit_lasso` calls
`lasso_cd` once per capped fit, at the lambda its search settles on (the
search itself reads the exact lasso path), and `KnnModel.predict` calls
`knn_predict` once per batch.
"""

from __future__ import annotations

import numpy as np

# --- lasso coordinate descent ----------------------------------------------
#
# Minimizes (1/2N) * ||y - X w||^2 + lam * ||w||_1 with no intercept and no
# standardization, in covariance form (Friedman, Hastie & Tibshirani 2010,
# "Regularization Paths for GLMs via Coordinate Descent", JSS 33(1), sec.
# 2.2): the solver sees only W = X^T X, Z = X^T y and thresh = N * lam, and
# keeps the gradient g = Z - W w. Soft-threshold update per coordinate:
#   w_j <- S(g_j + W_jj w_j, thresh) / W_jj,
# where g_j + W_jj w_j equals x_j . r_j, r_j the partial residual. A
# coordinate that moves by d changes g by -d * W[:, j]. A coordinate costs
# O(1), plus O(m) when it moves, so one sweep costs at most O(m^2), whatever
# the number of rows N. Coordinates with W_jj == 0 (a column of zeros) keep
# w_j = 0. Converges when the largest coefficient change in a sweep drops
# below tol, or after max_sweeps sweeps.


def lasso_cd(W, Z, thresh, max_sweeps=100_000, tol=1e-10):
    """Returns (coefficients, sweeps used); sweeps == max_sweeps may mean
    the solve did not converge."""
    W = np.asarray(W, dtype=np.float64)
    g = np.array(Z, dtype=np.float64)
    m = g.shape[0]
    diag = W.diagonal()
    w = np.zeros(m)
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(m):
            d = diag[j]
            if d == 0.0:
                continue
            wj_old = w[j]
            rho = g[j] + d * wj_old
            if rho > thresh:
                wj = (rho - thresh) / d
            elif rho < -thresh:
                wj = (rho + thresh) / d
            else:
                wj = 0.0
            if wj != wj_old:
                w[j] = wj
                g -= W[:, j] * (wj - wj_old)
                delta = abs(wj - wj_old)
                if delta > max_delta:
                    max_delta = delta
        if max_delta < tol:
            return w, sweep
    return w, max_sweeps


# --- k nearest neighbours ----------------------------------------------------
#
# Exhaustive scan: squared euclidean distance from every query row to every
# training row; the prediction is the mean target of the k nearest, with
# distance ties resolved to the lower training-row index.
#
# Query rows are scored in blocks of about 1 MB of differences
# (_KNN_BLOCK_VALUES float64 values), so numpy loops per block, not per row.
# Each distance is einsum's sum of squared differences over one row's p
# columns, the same reduction, in the same order, as one row scored alone;
# the |q|^2 + |t|^2 - 2 q.t expansion or a column-by-column sum would round
# differently and flip near-tied neighbours.
#
# argpartition then selects k candidates per row. Sorted by index and then
# stably by distance, they are in (distance, index) order, which is the
# order of a full stable sort. The candidates are the k nearest unless a
# distance tie crosses the k-th place, that is, unless more than k rows lie
# within the k-th distance; only such a row falls back to the full stable
# sort, which takes the lowest-index rows of the tie. The mean over the k
# targets in that order adds them up exactly as a per-row mean does, so the
# result is bit-identical to scoring one row at a time with a stable sort.
# Inputs must be finite, as KnnModel and NumericTable ensure: a NaN distance
# would escape the tie check.

_KNN_BLOCK_VALUES = 2**17


def knn_predict(train, targets, query, k):
    train = np.asarray(train, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    block = max(1, _KNN_BLOCK_VALUES // train.size)
    out = np.empty(query.shape[0])
    for start in range(0, query.shape[0], block):
        diff = train - query[start:start + block, None, :]
        d = np.einsum("qij,qij->qi", diff, diff)
        part = np.sort(np.argpartition(d, k - 1, axis=1)[:, :k], axis=1)
        dk = np.take_along_axis(d, part, axis=1)
        order = np.take_along_axis(part, np.argsort(dk, axis=1, kind="stable"), axis=1)
        tied = np.count_nonzero(d <= dk.max(axis=1, keepdims=True), axis=1) > k
        for r in np.flatnonzero(tied):
            order[r] = np.argsort(d[r], kind="stable")[:k]
        out[start:start + d.shape[0]] = targets[order].mean(axis=1)
    return out
