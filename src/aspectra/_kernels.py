"""Hot numeric kernels: lasso coordinate descent and exhaustive k-NN scoring.

Both are plain numpy and coerce their inputs to float64. `fit_lasso` calls
`lasso_cd` once per bisection step and `KnnModel.predict` calls
`knn_predict` once per batch.
"""

from __future__ import annotations

import numpy as np

# --- lasso coordinate descent ----------------------------------------------
#
# Minimizes (1/2N) * ||y - X w||^2 + lam * ||w||_1 with no intercept and no
# standardization. Soft-threshold update per coordinate:
#   w_j <- S(x_j . r_j, N * lam) / ||x_j||^2,  r_j the partial residual.
# Columns with zero norm keep w_j = 0. Converges when the largest coefficient
# change in a sweep drops below tol, or after max_sweeps sweeps.


def lasso_cd(X, y, lam, max_sweeps=100_000, tol=1e-10):
    """Returns (coefficients, sweeps used)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    w = np.zeros(m)
    r = y.copy()
    thresh = n * lam
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(m):
            if col_sq[j] == 0.0:
                continue
            xj = X[:, j]
            wj_old = w[j]
            if wj_old != 0.0:
                r += xj * wj_old
            rho = float(xj @ r)
            if rho > thresh:
                wj = (rho - thresh) / col_sq[j]
            elif rho < -thresh:
                wj = (rho + thresh) / col_sq[j]
            else:
                wj = 0.0
            w[j] = wj
            if wj != 0.0:
                r -= xj * wj
            delta = abs(wj - wj_old)
            if delta > max_delta:
                max_delta = delta
        if max_delta < tol:
            return w, sweep
    return w, max_sweeps


# --- k nearest neighbours ----------------------------------------------------
#
# Exhaustive scan: squared euclidean distance from every query row to every
# training row, stable sort so distance ties resolve to the lower row index,
# prediction is the mean target of the k nearest.


def knn_predict(train, targets, query, k):
    train = np.asarray(train, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    out = np.empty(query.shape[0])
    for q in range(query.shape[0]):
        diff = train - query[q]
        d = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(d, kind="stable")
        out[q] = targets[order[:k]].mean()
    return out
