"""Hot numeric kernels: lasso coordinate descent and exhaustive k-NN scoring.

Both are plain numpy and coerce their inputs to float64. `fit_lasso` calls
`lasso_cd` once per capped fit, at the lambda its search settles on (the
search itself reads the exact lasso path), and `KnnModel.predict` calls
`knn_predict` once per batch. `knn_predict` screens neighbours with one
matrix product and an error bound, then computes exact distances only for
the rows that can be among the k nearest; its result is bit-identical to a
stable sort of every exact distance.
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
# distance ties resolved to the lower training-row index. The distance is
# einsum's sum of squared differences over one row's p columns, the same
# reduction, in the same order, as one row scored alone with a stable sort.
#
# Query rows are scored in blocks of _KNN_BLOCK_VALUES // (n p) rows, so
# numpy loops per block, not per row, and a block's full array of
# differences holds about 1 MB. Per block, one BLAS product screens the
# training rows before any exact distance is formed. With
# S = |q|^2 + |t|^2 for a query row q and a training row t:
#
#   approx = S - 2 q.t,   margin = rel * S + floor,
#   rel = 8 (p + 3) u,    floor = (p + 3) 2^-1070,   u = 2^-53.
#
# Why approx - margin <= distance <= approx + margin for every pair, where
# distance is einsum's value and D the exact one (first order in u, with
# gamma_m = m u the bound for m roundings):
# - The expansion is within (2p + 3) u S of D. |q|^2 and |t|^2 carry
#   gamma_p S together; q.t carries gamma_p sum |q_j t_j| <= gamma_p S / 2,
#   in any summation order, FMA or not, so 2 q.t carries gamma_p S; the
#   add into S and the final add round once each, by u S and 2 u S.
# - einsum is within (p + 2) u D <= 2 (p + 2) u S of D: each difference is
#   rounded, then squared, then p - 1 additions follow; D <= 2 S.
# - So the two are less than 4 (p + 3) u S apart. rel doubles that, which
#   absorbs the second-order terms and the rounding of margin itself.
#   Rounding is monotone, so approx +- margin keeps its side of distance.
# - A product or square that underflows is off by up to 2^-1075 instead of
#   a relative error. At most 4p enter (p squares in each of |q|^2, |t|^2
#   and the distance, p products in q.t); floor is 32 (p + 3) such steps.
#
# Let bound be the k-th smallest approx + margin of a query row. It is at
# least the k-th smallest distance, so every one of the k nearest has
# approx - margin <= bound, and at least k rows do. A row with exactly k
# such candidates therefore has its k nearest as candidates: only those k
# distances are computed, with the same einsum, and the candidates, taken
# in index order and sorted stably by distance, are in the (distance,
# index) order of a full stable sort. Every other row falls back to its full
# distance row and a stable sort: more than k candidates (a distance tie
# across the k-th place, or neighbours nearer than the margin can tell
# apart), fewer than k (a NaN), or S not below 2^1000 (an overflow, or a
# margin near one). The mean over the k targets in that order adds them
# up exactly as a per-row mean does, so the result is bit-identical to
# scoring one row at a time with a stable sort of every exact distance.

_KNN_BLOCK_VALUES = 2**17


def knn_predict(train, targets, query, k):
    train = np.asarray(train, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n, p = train.shape
    rel = 8 * (p + 3) * 2.0**-53
    floor = (p + 3) * 2.0**-1070
    block = max(1, _KNN_BLOCK_VALUES // train.size)
    with np.errstate(over="ignore", invalid="ignore"):
        train_sq = np.einsum("ij,ij->i", train, train)
        train_sq_max = train_sq.max()
        cross = -2.0 * train.T  # exact short of overflow, where |t|^2 overflows too
    out = np.empty(query.shape[0])
    for start in range(0, query.shape[0], block):
        q = query[start:start + block]
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = np.einsum("ij,ij->i", q, q)
            scale = q_sq[:, None] + train_sq
            approx = scale + q @ cross
            margin = rel * scale + floor
            bound = np.partition(approx + margin, k - 1, axis=1)[:, k - 1:k]
            mask = approx - margin <= bound
            # q_sq + train_sq_max rounds to the largest entry of scale's row
            screened = (np.count_nonzero(mask, axis=1) == k) & (q_sq + train_sq_max < 2.0**1000)
        order = np.empty((q.shape[0], k), dtype=np.intp)
        if screened.any():
            cand = np.flatnonzero(mask[screened]).reshape(-1, k) % n
            diff = train[cand] - q[screened, None, :]
            d = np.einsum("qij,qij->qi", diff, diff)
            ranks = np.argsort(d, axis=1, kind="stable")
            order[screened] = np.take_along_axis(cand, ranks, axis=1)
        if not screened.all():
            diff = train - q[~screened, None, :]
            d = np.einsum("qij,qij->qi", diff, diff)
            order[~screened] = np.argsort(d, axis=1, kind="stable")[:, :k]
        out[start:start + q.shape[0]] = targets[order].mean(axis=1)
    return out
