import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from aspectra import _kernels
from aspectra._kernels import knn_predict, lasso_cd


def _oracle_lasso_cd(X, y, lam, max_sweeps=100_000, tol=1e-10):
    """Row-form coordinate descent on X itself: the solver lasso_cd replaced."""
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


def lasso_problem(seed, n=200, m=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    w = np.zeros(m)
    w[: m // 2] = rng.standard_normal(m // 2)
    y = X @ w + 0.1 * rng.standard_normal(n)
    return X, y


def gram_lasso(X, y, lam, max_sweeps=100_000):
    """lasso_cd on the covariance form of (X, y) at penalty lam."""
    return lasso_cd(X.T @ X, X.T @ y, X.shape[0] * lam, max_sweeps)


# ------------------------------------------------------------------- lasso


def test_lasso_kkt_conditions():
    # stationarity of the solution certifies the solver independently:
    # |x_j.r| <= N*lam for zero coords, x_j.r == N*lam*sign(w_j) otherwise
    X, y = lasso_problem(1)
    n = X.shape[0]
    lam = 0.02
    w, _ = gram_lasso(X, y, lam)
    r = y - X @ w
    for j in range(X.shape[1]):
        g = float(X[:, j] @ r)
        if w[j] == 0.0:
            assert abs(g) <= n * lam + 1e-6
        else:
            assert g == pytest.approx(n * lam * np.sign(w[j]), abs=1e-6)


def test_lasso_lam_zero_is_least_squares():
    X, y = lasso_problem(2)
    w, _ = gram_lasso(X, y, 0.0)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(w, ref, atol=1e-8)


def test_lasso_above_lam_max_all_zero():
    # at lam_max itself n*(max|X.y|/n) can round a hair below the true max,
    # so the all-zero guarantee is asserted strictly above it
    X, y = lasso_problem(3)
    lam_max = float(np.max(np.abs(X.T @ y)) / X.shape[0])
    w, sweeps = gram_lasso(X, y, lam_max * (1.0 + 1e-9))
    assert np.count_nonzero(w) == 0
    assert sweeps >= 1


def test_lasso_zero_norm_column_stays_zero():
    X, y = lasso_problem(4)
    X = X.copy()
    X[:, 2] = 0.0
    w, _ = gram_lasso(X, y, 0.01)
    assert w[2] == 0.0


def test_lasso_shrinks_monotonically():
    X, y = lasso_problem(6)
    norms = []
    for lam in (0.0, 0.01, 0.05, 0.2, 1.0):
        w, _ = gram_lasso(X, y, lam)
        norms.append(float(np.sum(np.abs(w))))
    assert norms == sorted(norms, reverse=True)


@st.composite
def flag_designs(draw):
    """Binary aspect-flag designs as fit_lasso builds them (one or two flags
    per row), with some columns zeroed and some duplicated, a response and
    a penalty from 0 to above lambda_max."""
    m = draw(st.integers(min_value=1, max_value=10))
    N = draw(st.integers(min_value=m, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kl = rng.integers(0, m, size=(N, 2))
    X = np.zeros((N, m))
    X[np.arange(N), kl[:, 0]] = 1.0
    X[np.arange(N), kl[:, 1]] = 1.0
    for j in draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=2)):
        X[:, j] = 0.0
    for a, b in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=2)):
        X[:, b] = X[:, a]
    y = X @ (rng.standard_normal(m) * (rng.random(m) < 0.6)) + 0.3 * rng.standard_normal(N)
    lam_max = float(np.max(np.abs(X.T @ y)) / N)
    lam = draw(st.floats(min_value=0.0, max_value=1.5)) * lam_max
    return X, y, lam


@settings(max_examples=300, deadline=None)
@given(problem=flag_designs())
def test_lasso_matches_row_form_oracle(problem):
    X, y, lam = problem
    # with a copied column and lam near 0 both forms drift for 10^5 sweeps
    # without converging; fit_lasso raises on that, so compare converged solves
    budget = 5_000
    ref, ref_sweeps = _oracle_lasso_cd(X, y, lam, budget)
    assume(ref_sweeps < budget)
    w, sweeps = gram_lasso(X, y, lam, budget)
    # a coefficient whose rho sits exactly on the threshold (a copied or
    # collinear column, or lam == lam_max) is 0 in one form and rounding noise
    # in the other; every coefficient beyond that noise has the same support
    noise = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    clear = (np.abs(w) > noise) | (np.abs(ref) > noise)
    assert np.array_equal((w != 0.0)[clear], (ref != 0.0)[clear])
    assert np.allclose(w, ref, rtol=1e-12, atol=noise)
    assert abs(sweeps - ref_sweeps) <= 1


# --------------------------------------------------------------------- knn


def _oracle_knn_predict(train, targets, query, k):
    """One query row at a time with a full stable sort: the kernel
    knn_predict replaced."""
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


# rows per screen block and per fallback sub-block
block_sizes = st.tuples(st.integers(min_value=1, max_value=8),
                        st.integers(min_value=1, max_value=8))


def knn_at_blocks(train, targets, query, k, blocks):
    """knn_predict with `blocks` = (rows per screen block, rows per
    fallback sub-block) in place of the defaults."""
    screen, full = blocks
    n, p = np.shape(train)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_KNN_SCREEN_VALUES", screen * n)
        mp.setattr(_kernels, "_KNN_BLOCK_VALUES", full * n * p)
        return knn_predict(train, targets, query, k)


@st.composite
def knn_problems(draw):
    """Grid-valued training and query rows, so distances tie often, with
    duplicated training rows, queries that equal training rows, any k from
    1 to n, and block sizes with query counts on either side of a screen
    block boundary."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=1, max_value=5))
    levels = draw(st.integers(min_value=1, max_value=4))
    step = draw(st.sampled_from([1.0, 0.1, 0.3]))
    blocks = draw(block_sizes)
    block = blocks[0]
    m = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
    k = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    train = rng.integers(0, levels, size=(n, p)) * step
    copies = rng.integers(0, n, size=(2, n // 3))
    train[copies[0]] = train[copies[1]]
    query = rng.integers(0, levels, size=(m, p)) * step
    hits = rng.random(m) < 0.4
    query[hits] = train[rng.integers(0, n, size=int(hits.sum()))]
    targets = rng.standard_normal(n)
    return train, targets, query, k, blocks


@settings(max_examples=300, deadline=None)
@given(problem=knn_problems())
def test_knn_matches_oracle_bit_for_bit(problem):
    train, targets, query, k, blocks = problem
    got = knn_at_blocks(train, targets, query, k, blocks)
    assert np.array_equal(got, _oracle_knn_predict(train, targets, query, k))


@pytest.mark.parametrize("k", [1, 129, 300])
def test_knn_matches_oracle_at_the_default_block(k):
    # k past 128 rows sums the mean in pairwise blocks; 300 query rows span
    # two default screen blocks of max(1, 2**15 // 300) = 109 rows and a
    # rest, and the fallback's sub-blocks hold max(1, 2**17 // (300 * 3)) =
    # 145 rows
    rng = np.random.default_rng(11)
    train = rng.integers(0, 3, size=(300, 3)) * 0.1
    targets = rng.standard_normal(300)
    query = np.vstack([rng.integers(0, 3, size=(150, 3)) * 0.1, train[:150]])
    assert np.array_equal(knn_predict(train, targets, query, k),
                          _oracle_knn_predict(train, targets, query, k))


@pytest.mark.parametrize("blocks", [(6, 1), (6, 2), (6, 8), (4, 1)])
def test_knn_block_holds_screened_and_fallback_rows(blocks):
    # 0.1, 5.2 and 9.9 each have one clear nearest training row, so the
    # screen keeps exactly k = 1 candidate; 1.0 and 7.5 sit midway between
    # two training rows, a tie across the k-th place that the screen sees as
    # two candidates, so they fall back to the full scan. With 6 rows per
    # screen block both kinds share one block.
    train = np.array([[0.0], [2.0], [5.0], [10.0], [7.0], [8.0]])
    targets = 2.0 ** np.arange(6)
    query = np.array([[0.1], [1.0], [5.2], [7.5], [9.9], [1.0]])
    got = knn_at_blocks(train, targets, query, 1, blocks)
    assert got.tolist() == [1.0, 1.0, 4.0, 16.0, 8.0, 1.0]
    got = knn_at_blocks(train, targets, query, 2, blocks)
    assert np.array_equal(got, _oracle_knn_predict(train, targets, query, 2))


@pytest.mark.parametrize("blocks", [(1, 1), (3, 2), (8, 8)])
def test_knn_k_equal_to_n_orders_every_training_row(blocks):
    # the bound is the largest approx plus twice the margin, so all n rows
    # are candidates; the mean over them adds up in (distance, index) order
    rng = np.random.default_rng(3)
    train = rng.integers(0, 3, size=(9, 2)) * 0.5
    targets = rng.standard_normal(9)
    query = np.vstack([rng.standard_normal((10, 2)), train[:3]])
    got = knn_at_blocks(train, targets, query, 9, blocks)
    assert np.array_equal(got, _oracle_knn_predict(train, targets, query, 9))


@pytest.mark.parametrize("offset", [1e6, 1e7])
@pytest.mark.parametrize("k", [1, 4])
def test_knn_screen_with_offset_rows_and_a_far_training_row(k, offset):
    # |q|^2 is about 3 offset^2 and dwarfs the distances (about 6 on
    # average), so each row's margin decides: at 1e6 it is about 0.08, of
    # which the training row at twice the offset, never a neighbour, adds
    # 0.05 through max |t|^2, and a third to a half of the query rows keep
    # exactly k candidates; at 1e7 the screen's own rounding is as wide as
    # the gaps between the nearest distances, so every row falls back, and
    # a screen without its margin picks wrong neighbours
    rng = np.random.default_rng(8)
    train = np.vstack([offset + rng.standard_normal((60, 3)), np.full((1, 3), 2 * offset)])
    query = offset + rng.standard_normal((40, 3))
    targets = rng.standard_normal(61)
    got = knn_at_blocks(train, targets, query, k, (8, 3))
    assert np.array_equal(got, _oracle_knn_predict(train, targets, query, k))


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


@st.composite
def screened_knn_problems(draw):
    """Rows on which the screen's margin decides. Grid values tie exactly,
    near-duplicates sit a few ulps apart, and rows offset by 1e5 or 1e6
    make |q|^2 + |t|^2 dwarf their distances. Every kind is scaled from
    subnormal (1e-320, where squares underflow) to past overflow (1e160).
    Training rows are duplicated, queries copy training rows, k is any
    value from 1 to n, and screen blocks and fallback sub-blocks hold 1 to 8
    query rows each."""
    n = draw(st.integers(min_value=1, max_value=120))
    p = draw(st.integers(min_value=1, max_value=20))
    k = draw(st.integers(min_value=1, max_value=n))
    kind = draw(st.sampled_from(["grid", "near", "offset"]))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-320, 1e150, 1e160]))
    blocks = draw(block_sizes)
    m = draw(st.integers(min_value=0, max_value=3 * blocks[0] + 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = rng.standard_normal(p)
    offset = draw(st.sampled_from([1e5, 1e6]))
    spread = draw(st.sampled_from([1e-3, 0.1, 1.0]))

    def rows(count):
        if kind == "grid":
            return rng.integers(0, 3, size=(count, p)) * 0.5
        if kind == "near":
            return base * (1.0 + rng.integers(-4, 5, size=(count, p)) * 2.0**-52)
        return offset + rng.standard_normal((count, p)) * spread

    train = rows(n) * scale
    copies = rng.integers(0, n, size=(2, n // 3))
    train[copies[0]] = train[copies[1]]
    query = rows(m) * scale
    hits = rng.random(m) < 0.3
    query[hits] = train[rng.integers(0, n, size=int(hits.sum()))]
    targets = rng.standard_normal(n)
    return train, targets, query, k, blocks


@settings(max_examples=300, deadline=None)
@given(problem=screened_knn_problems())
def test_knn_screen_matches_oracle_across_scales(problem):
    train, targets, query, k, blocks = problem
    got = knn_at_blocks(train, targets, query, k, blocks)
    with np.errstate(over="ignore"):
        want = _oracle_knn_predict(train, targets, query, k)
    assert np.array_equal(got, want)


def test_knn_screen_overflow_falls_back_to_exact_distances():
    # |q|^2 + |t|^2 is about 1e310 and overflows, so the screen reads inf and
    # nan; the distances themselves are below 1e302 and finite
    train = 1e155 * (1.0 + np.array([[0.0, 0.0], [3e-5, 0.0], [0.0, 1e-5], [2e-5, 2e-5]]))
    targets = np.array([1.0, 2.0, 4.0, 8.0])
    query = 1e155 * (1.0 + np.array([[2.9e-5, 0.0], [0.0, 1.1e-5], [1e-6, 1e-6]]))
    with np.errstate(over="raise", invalid="raise"):
        got = knn_predict(train, targets, query, 2)
    assert got.tolist() == [(2.0 + 8.0) / 2, (4.0 + 1.0) / 2, (1.0 + 4.0) / 2]
    assert np.array_equal(got, _oracle_knn_predict(train, targets, query, 2))


def test_knn_screen_floor_covers_underflowed_products():
    # scaled by 1e-160, the squares (about 1e-310) and the distances (1e-322
    # to 1e-320) are subnormal: each product rounds by up to 2^-1075, while
    # rel * (|q|^2 + |t|^2) is a few subnormal steps, so only the floor keeps
    # the margin above the screen's error
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(20, 121))
        p = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        spread = (0.1, 1.0)[rng.integers(0, 2)]
        train = (1e5 + spread * rng.standard_normal((n, p))) * 1e-160
        query = (1e5 + spread * rng.standard_normal((10, p))) * 1e-160
        targets = rng.standard_normal(n)
        assert np.array_equal(knn_predict(train, targets, query, k),
                              _oracle_knn_predict(train, targets, query, k))
