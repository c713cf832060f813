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
