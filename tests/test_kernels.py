import numpy as np
import pytest
from scipy.spatial.distance import cdist

from aspectra._kernels import knn_predict, lasso_cd


def lasso_problem(seed, n=200, m=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    w = np.zeros(m)
    w[: m // 2] = rng.standard_normal(m // 2)
    y = X @ w + 0.1 * rng.standard_normal(n)
    return X, y


# ------------------------------------------------------------------- lasso


def test_lasso_kkt_conditions():
    # stationarity of the solution certifies the solver independently:
    # |x_j.r| <= N*lam for zero coords, x_j.r == N*lam*sign(w_j) otherwise
    X, y = lasso_problem(1)
    n = X.shape[0]
    lam = 0.02
    w, _ = lasso_cd(X, y, lam)
    r = y - X @ w
    for j in range(X.shape[1]):
        g = float(X[:, j] @ r)
        if w[j] == 0.0:
            assert abs(g) <= n * lam + 1e-6
        else:
            assert g == pytest.approx(n * lam * np.sign(w[j]), abs=1e-6)


def test_lasso_lam_zero_is_least_squares():
    X, y = lasso_problem(2)
    w, _ = lasso_cd(X, y, 0.0)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(w, ref, atol=1e-8)


def test_lasso_above_lam_max_all_zero():
    # at lam_max itself n*(max|X.y|/n) can round a hair below the true max,
    # so the all-zero guarantee is asserted strictly above it
    X, y = lasso_problem(3)
    lam_max = float(np.max(np.abs(X.T @ y)) / X.shape[0])
    w, sweeps = lasso_cd(X, y, lam_max * (1.0 + 1e-9))
    assert np.count_nonzero(w) == 0
    assert sweeps >= 1


def test_lasso_zero_norm_column_stays_zero():
    X, y = lasso_problem(4)
    X = X.copy()
    X[:, 2] = 0.0
    w, _ = lasso_cd(X, y, 0.01)
    assert w[2] == 0.0


def test_lasso_shrinks_monotonically():
    X, y = lasso_problem(6)
    norms = []
    for lam in (0.0, 0.01, 0.05, 0.2, 1.0):
        w, _ = lasso_cd(X, y, lam)
        norms.append(float(np.sum(np.abs(w))))
    assert norms == sorted(norms, reverse=True)


# --------------------------------------------------------------------- knn


def knn_oracle(train, targets, query, k):
    D = cdist(query, train)
    out = np.empty(len(query))
    for i in range(len(query)):
        order = np.argsort(D[i], kind="stable")[:k]
        out[i] = float(np.mean(targets[order]))
    return out


@pytest.mark.parametrize("k", [1, 3, 10])
def test_knn_numpy_matches_oracle(k):
    rng = np.random.default_rng(7)
    train = rng.standard_normal((100, 4))
    targets = rng.standard_normal(100)
    query = rng.standard_normal((25, 4))
    got = knn_predict(train, targets, query, k)
    assert np.allclose(got, knn_oracle(train, targets, query, k), atol=1e-10)


def test_knn_dispatcher():
    train = np.array([[0.0], [2.0]])
    targets = np.array([1.0, 3.0])
    assert knn_predict(train, targets, np.array([[0.1]]), 1).tolist() == [1.0]
