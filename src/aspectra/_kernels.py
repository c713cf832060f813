"""Hot numeric kernels: lasso coordinate descent and exhaustive k-NN scoring.

Both are plain numpy and coerce their inputs to float64. `fit_lasso` calls
`lasso_cd` once per capped fit with a nonzero answer, at the knot of the
exact lasso path where the cap first breaks, and `KnnModel.predict` calls
`knn_predict` once per batch. `knn_predict` screens neighbours in single
precision: it centres each column on its middle training value (the upper
median), scales every row by one power of two, and forms one float32 matrix
product per block of query rows. A per-row error bound on that product picks
the training rows that can be among the k nearest and, for most rows, their
order as well. Only rows whose order the bound cannot settle get exact
float64 distances for their candidates, and only rows the screen cannot
settle get every distance. The result is bit-identical to a stable sort of
every exact distance, and a row whose k nearest distances overflow raises
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


def lasso_cd(W, Z, thresh, max_sweeps, tol):
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
# Screen. Per call, in float64, every row is centred on mu, the middle
# training value of each column (the upper median, taken with one
# partition), and scaled by 2^-e, the power of two that
# brings max |t - mu| over the training rows to at most 1. Neither changes
# any distance's order, and together they put the neighbours' gaps, not the
# rows' offset, in float32's 24 bits; a median, unlike a mean, stays with
# the bulk of the rows when one training row lies far out. The scaled
# training rows t' are cast to float32 once per call as the side
# [-2 t'^T; 1; |t'|^2]. Query rows are screened in blocks of
# _KNN_SCREEN_VALUES // n rows, so numpy loops per block, not per row; each
# block's rows q' are cast into one buffer as [q', |q'|^2, 1], and one float32
# BLAS product gives, for every pair,
#
#   approx = [q', |q'|^2, 1] . [-2 t', 1, |t'|^2] = |q'|^2 + |t'|^2 - 2 q'.t'.
#
# The block's approx, its partitioned copy and its comparison mask are three
# buffers allocated once per call and filled with out= arguments and an
# in-place partition. Allocating the float32 arrays afresh per block (512 KB
# each for 500 training rows) let glibc's dynamic mmap threshold climb,
# which slowed the caller's own allocations outside the model.
#
# Margin. Each query row has one margin,
#
#   M = rel * R + floor,   rel = 8 (p + 3) u,   u = 2^-24,
#   floor = (p + 3) (2^-140 + 2^(-1070 - 2e)),
#   R = min(|q'|^2 + max |t'|^2, 3 |q'|^2 + 2 |kth|),
#
# where kth is the row's k-th smallest approx. Call a training row near when
# its approx is at most kth + 2 M or its scaled distance at most kth + M.
# R bounds S = |q'|^2 + |t'|^2 for every near row, to first order: the
# first term bounds it for every row, and the second because
# |t'|^2 <= 2 |q'|^2 + 2 |q' - t'|^2. So neither a far training row nor a
# query row far from the median widens another row's margin.
#
# Why |approx - 2^-2e d| <= M for every near row, where d is einsum's float64
# distance of the unscaled rows and D the exact one of the scaled rows (first
# order in u, with gamma_m = m u the bound for m roundings; Higham, "Accuracy
# and Stability of Numerical Algorithms", 2nd ed., 2002, sec. 3.1):
# - Centring rounds an entry by 2^-53 and the cast by u, relative, so each
#   column of q' - t' is within about u (|q'_j| + |t'_j|) of the exact scaled
#   difference, and |q' - t'|^2 is within 4 u S of D.
# - |q'|^2 and |t'|^2 carry gamma_p S together. The product is a (p + 2)-term
#   dot product; in any summation order, FMA or not, on any number of BLAS
#   threads, its error is at most gamma_(p+2) times the sum of its terms'
#   magnitudes, 2 sum |q'_j t'_j| + |q'|^2 + |t'|^2 <= 2 S. So approx is
#   within (3p + 4) u S of |q' - t'|^2.
# - 2^-2e d is within (p + 2) 2^-53 D <= 2 (p + 2) 2^-53 S of D: each
#   difference is rounded, then squared, then p - 1 additions follow.
# - So approx and 2^-2e d are at most (3p + 8) u S apart, plus less than
#   2^-28 of that from float64. rel is at least 2.6 times that, which
#   absorbs the second-order terms and the roundings of R, M and the bound
#   below. Rounding is monotone, so each comparison with a rounded sum keeps
#   its side.
# - Underflow, with IEEE gradual underflow (numpy's default): a float32
#   entry or product below 2^-126 is off by up to 2^-150 instead of a
#   relative error. At most 3p products enter, and the 2p entries' errors
#   move the distance by at most 4 sqrt(p S) 2^-150 <= 2 sqrt(p) (1 + S)
#   2^-150; the first term of floor and a sliver of rel cover both. A
#   float64 square in einsum below 2^-1022 is off by up to 2^-1075; p of
#   them, seen in the scaled space, are p 2^(-1075 - 2e), and the second
#   term of floor is 32 (p + 3) such steps.
# - Limits. A row is screened only while R < 2^100, so |q'|^2, and with it
#   every approx (|t'|^2 <= p), stays far inside float32's range, and while
#   R < 2^(998 - 2e), so the unscaled distances of its near rows, at most
#   about 3 R 2^2e, stay below 2^1000 and einsum neither overflows nor ties
#   them at infinity. A query row far from every training row, or one whose
#   centring overflowed, fails the first; a training set spread past about
#   1e150 fails the second for every row, and one whose centring overflowed
#   screens no row. e is kept at -1000 or above, so 2^-e stays finite; a
#   smaller e would only raise floor further.
#
# Candidates. Let bound = kth + 2 M, rounded up to float32. The k training
# rows with approx <= kth are near, so their scaled distances are at most
# kth + M, and so is the k-th smallest distance D_k. Each of the k nearest
# is then near and has approx <= D_k + M <= bound. A training row with
# approx above bound is not near, so its distance is above kth + M >= D_k.
# A row with exactly k candidates approx <= bound therefore has its k
# nearest as candidates.
#
# Order. If a row's k candidates, sorted by approx, are each more than 2 M
# above the one before, their distances are strictly in the same order, so
# that order is the (distance, index) order of a full stable sort and no
# distance is computed. Otherwise the k distances are computed with the same
# einsum, and the candidates, taken in index order, are sorted stably by
# distance. On global-knn's eight input sets 97.7% of the query rows are
# ordered by approx, 1.9% by their k distances.
#
# Full scan. Every other row falls back to its full distance row and a
# stable sort: more than k candidates (a distance tie across the k-th place,
# neighbours nearer than the margin can tell apart, or one training row so
# far out that max |t'|^2 widens every margin), fewer than k (a NaN), or a
# limit above. The fallback rows go in sub-blocks of _KNN_BLOCK_VALUES //
# (n p) rows, so their arrays of differences hold about 1 MB however many
# rows tie. The mean over the k targets in that order adds them up exactly
# as a per-row mean does, so the result is bit-identical to scoring one row
# at a time with a stable sort of every exact distance.
#
# A fallback row whose k-th smallest distance overflows cannot be ranked:
# infinite distances tie, and the stable sort would take the lowest indices.
# That raises NonFiniteDistance. A mean of k targets that overflows comes out
# infinite, or NaN when its sum overflows both ways, which `models.predict`
# rejects.

_KNN_SCREEN_VALUES = 2**17
_KNN_BLOCK_VALUES = 2**17


def knn_predict(train, targets, query, k):
    train = np.asarray(train, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n, p = train.shape
    block = max(1, min(_KNN_SCREEN_VALUES // n, query.shape[0]))
    full_block = max(1, _KNN_BLOCK_VALUES // train.size)
    right = np.empty((p + 2, n), dtype=np.float32)
    right[p] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.partition(train, n // 2, axis=0)[n // 2]
        centred = train - centre
        spread = np.abs(centred).max()
        e = max(int(np.frexp(spread)[1]), -1000)
        scale = 2.0**-e
        right[:p] = (centred * scale).T
        right[p + 1] = np.einsum("ji,ji->i", right[:p], right[:p])
        right[:p] *= -2.0
        train_sq_max = float(right[p + 1].max())
    rel = 8 * (p + 3) * 2.0**-24
    floor = (p + 3) * (2.0**-140 + 2.0**(-1070 - 2 * e))
    limit = 2.0**min(100, 998 - 2 * e) if np.isfinite(spread) else 0.0
    left = np.empty((block, p + 2), dtype=np.float32)
    left[:, p + 1] = 1.0
    approx_buf = np.empty((block, n), dtype=np.float32)
    part_buf = np.empty((block, n), dtype=np.float32)
    hit_buf = np.empty((block, n), dtype=bool)
    out = np.empty(query.shape[0])
    for start in range(0, query.shape[0], block):
        q = query[start:start + block]
        b = q.shape[0]
        lhs, approx, part, hit = left[:b], approx_buf[:b], part_buf[:b], hit_buf[:b]
        with np.errstate(over="ignore", invalid="ignore"):
            lhs[:, :p] = (q - centre) * scale
            lhs[:, p] = np.einsum("ij,ij->i", lhs[:, :p], lhs[:, :p])
            np.matmul(lhs, right, out=approx)
            np.copyto(part, approx)
            part.partition(k - 1, axis=1)
            kth = part[:, k - 1].astype(np.float64)
            q_sq = lhs[:, p].astype(np.float64)
            reach = np.minimum(q_sq + train_sq_max, 3.0 * q_sq + 2.0 * np.abs(kth))
            margin = rel * reach + floor
            bound = kth + 2.0 * margin
            bound32 = bound.astype(np.float32)
            np.nextafter(bound32, np.float32(np.inf), out=bound32, where=bound32 < bound)
            np.less_equal(approx, bound32[:, None], out=hit)
        hits = np.flatnonzero(hit)
        hit_rows = hits // n
        screened = (np.bincount(hit_rows, minlength=b) == k) & (reach < limit)
        order = np.empty((b, k), dtype=np.intp)
        if screened.any():
            rows = np.flatnonzero(screened)
            flat = hits[screened[hit_rows]].reshape(-1, k)
            flat = np.take_along_axis(flat, np.argsort(approx.reshape(-1)[flat], axis=1), axis=1)
            ranked = approx.reshape(-1)[flat]
            order[rows] = flat % n
            close = rows[np.any(ranked[:, 1:] <= ranked[:, :-1] + 2.0 * margin[rows, None], axis=1)]
            if close.size:
                cand = np.sort(order[close], axis=1)
                diff = train[cand] - q[close, None, :]
                d = np.einsum("qij,qij->qi", diff, diff)
                order[close] = np.take_along_axis(cand, np.argsort(d, axis=1, kind="stable"), axis=1)
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
