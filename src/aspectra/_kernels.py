"""Hot numeric kernels: lasso coordinate descent and exhaustive k-NN scoring.

Both are plain numpy and coerce their inputs to float64. `fit_lasso` calls
`lasso_cd` once per capped fit with a nonzero answer, at the knot of the
exact lasso path where the cap first breaks, and `KnnModel.predict` calls
`knn_predict` once per batch. `knn_predict` screens neighbours with one
matrix product of augmented operands and a per-row error bound, then
computes exact distances only for the training rows that can be among the k
nearest; its result is bit-identical to a stable sort of every exact
distance, and a row whose k nearest distances overflow raises
NonFiniteDistance.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteDistance

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
# Query rows are screened in blocks of _KNN_SCREEN_VALUES // n rows, so
# numpy loops per block, not per row, and a block's screen values hold
# 256 KB. One BLAS product of augmented operands, whose training side is
# formed once per call, gives for a query row q and a training row t
#
#   approx = [q, |q|^2, 1] . [-2 t, 1, |t|^2] = |q|^2 + |t|^2 - 2 q.t.
#
# -2 t is exact short of overflow, where |t|^2 overflows too. Each query row
# has one margin, with R = |q|^2 + max |t|^2, which is at least
# S = |q|^2 + |t|^2 for every training row t:
#
#   M = rel * R + floor,   rel = 8 (p + 3) u,   floor = (p + 3) 2^-1070,
#   u = 2^-53.
#
# Why |approx - distance| <= M for every pair, where distance is einsum's
# value and D the exact one (first order in u, with gamma_m = m u the bound
# for m roundings):
# - |q|^2 and |t|^2 carry gamma_p S together.
# - The product is a (p + 2)-term dot product. In any summation order, FMA
#   or not, its error is at most gamma_(p+2) times the sum of its terms'
#   magnitudes, 2 sum |q_j t_j| + |q|^2 + |t|^2 <= 2 S. So approx is within
#   (3p + 4) u S of D.
# - einsum is within (p + 2) u D <= 2 (p + 2) u S of D: each difference is
#   rounded, then squared, then p - 1 additions follow; D <= 2 S.
# - So the two are at most (5p + 8) u S <= (5p + 8) u R apart. rel is at
#   least 1.6 times that, which absorbs the second-order terms and the
#   roundings of M and of the bound below. Rounding is monotone, so the
#   comparison with the bound keeps its side.
# - A product or square that underflows is off by up to 2^-1075 instead of
#   a relative error. At most 4p enter (p squares in each of |q|^2, |t|^2
#   and the distance, p products in q.t; the products by 1 are exact);
#   floor is 32 (p + 3) such steps.
#
# Let bound = kth + 2 M, where kth is the row's k-th smallest approx. At
# least k training rows have distance <= kth + M, so the k-th smallest
# distance D_k is at most kth + M, and each of the k nearest has
# approx <= D_k + M <= bound. A row with exactly k candidates approx <= bound
# therefore has its k nearest as candidates: only those k distances are
# computed, with the same einsum, and the candidates, taken in index order
# and sorted stably by distance, are in the (distance, index) order of a
# full stable sort. Every other row falls back to its full distance row and
# a stable sort: more than k candidates (a distance tie across the k-th
# place, neighbours nearer than the margin can tell apart, or one training
# row so far out that max |t|^2 widens every margin), fewer than k (a NaN),
# or R not below 2^1000 (an overflow, or a margin near one). The fallback
# rows go in sub-blocks of _KNN_BLOCK_VALUES // (n p) rows, so their arrays
# of differences hold about 1 MB however many rows tie. The mean over the k
# targets in that order adds them up exactly as a per-row mean does, so the
# result is bit-identical to scoring one row at a time with a stable sort of
# every exact distance.
#
# A screened row's distances stay below 2^1002. A fallback row whose k-th
# smallest distance overflows cannot be ranked: infinite distances tie, and
# the stable sort would take the lowest indices. That raises
# NonFiniteDistance. A mean of k targets that overflows comes out infinite,
# or NaN when its sum overflows both ways, which `models.predict` rejects.

_KNN_SCREEN_VALUES = 2**15
_KNN_BLOCK_VALUES = 2**17


def knn_predict(train, targets, query, k):
    train = np.asarray(train, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n, p = train.shape
    rel = 8 * (p + 3) * 2.0**-53
    floor = (p + 3) * 2.0**-1070
    block = max(1, _KNN_SCREEN_VALUES // n)
    full_block = max(1, _KNN_BLOCK_VALUES // train.size)
    right = np.empty((p + 2, n))
    right[p] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        right[:p] = -2.0 * train.T
        right[p + 1] = np.einsum("ij,ij->i", train, train)
        train_sq_max = right[p + 1].max()
    left = np.empty((min(block, query.shape[0]), p + 2))
    left[:, p + 1] = 1.0
    out = np.empty(query.shape[0])
    for start in range(0, query.shape[0], block):
        q = query[start:start + block]
        b = q.shape[0]
        lhs = left[:b]
        lhs[:, :p] = q
        with np.errstate(over="ignore", invalid="ignore"):
            lhs[:, p] = np.einsum("ij,ij->i", q, q)
            approx = lhs @ right
            reach = lhs[:, p] + train_sq_max
            bound = np.partition(approx, k - 1, axis=1)[:, k - 1]
            bound += 2.0 * (rel * reach + floor)
            hits = np.flatnonzero(approx <= bound[:, None])
            hit_rows = hits // n
            screened = (np.bincount(hit_rows, minlength=b) == k) & (reach < 2.0**1000)
        order = np.empty((b, k), dtype=np.intp)
        if screened.any():
            cand = (hits[screened[hit_rows]] % n).reshape(-1, k)
            diff = train[cand] - q[screened, None, :]
            d = np.einsum("qij,qij->qi", diff, diff)
            ranks = np.argsort(d, axis=1, kind="stable")
            order[screened] = np.take_along_axis(cand, ranks, axis=1)
        rest = np.flatnonzero(~screened)
        for sub in range(0, rest.size, full_block):
            rows = rest[sub:sub + full_block]
            with np.errstate(over="ignore"):
                diff = train - q[rows, None, :]
                d = np.einsum("qij,qij->qi", diff, diff)
            ranks = np.argsort(d, axis=1, kind="stable")[:, :k]
            if not np.isfinite(np.take_along_axis(d, ranks[:, -1:], axis=1)).all():
                raise NonFiniteDistance()
            order[rows] = ranks
        with np.errstate(over="ignore", invalid="ignore"):
            out[start:start + b] = targets[order].mean(axis=1)
    return out
