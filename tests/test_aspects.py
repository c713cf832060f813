import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aspectra.aspects
from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    Observation,
    SchemaMismatch,
    SingularDesign,
    predict_aspects,
)
from aspectra import _kernels
from aspectra.aspects import (
    BISECT_REL_TOL,
    LASSO_TOL,
    AspectExplanation,
    SampleDesign,
    SurrogateFit,
    _design_matrices,
    _lasso_path,
    build_design,
    delta_predictions,
    fit_lasso,
    fit_ols,
)
from aspectra.data import RngStream
from aspectra.errors import AspectraError, LassoNotConverged
from aspectra.models import LinearModel


def uniform_table(seed=0, n=500, p=4):
    rng = np.random.default_rng(seed)
    return NumericTable(tuple(f"x{i}" for i in range(p)), rng.uniform(0, 1, (n, p)))


def singleton_partition(table):
    return AspectPartition.singletons(table.column_names)


# ------------------------------------------------------------- build_design


def test_design_shapes_and_flag_counts():
    t = uniform_table()
    part = singleton_partition(t)
    d = build_design(t, t.row(0), part, N=300, rng=RngStream(0))
    assert d.X_prime.shape == (300, 4)
    assert d.A.shape == (300, 4) and d.A_prime.shape == (300, 4)
    counts = d.X_prime.sum(axis=1)
    assert np.all((counts == 1) | (counts == 2))
    assert np.any(counts == 1) and np.any(counts == 2)  # both draw types occur


def test_design_rows_come_from_table():
    t = uniform_table(n=40)
    d = build_design(t, t.row(3), singleton_partition(t), N=100, rng=RngStream(5))
    assert np.array_equal(d.A, t.values[d.row_ids])


def test_design_replacement_semantics():
    t = uniform_table(1)
    x_star = Observation(np.array([10.0, 20.0, 30.0, 40.0]))
    part = AspectPartition((("g01", (0, 1)), ("g2", (2,)), ("g3", (3,))))
    d = build_design(t, x_star, part, N=200, rng=RngStream(2))
    star = x_star.values
    for n in range(200):
        for j, members in enumerate(part.member_sets):
            for c in members:
                if d.X_prime[n, j]:
                    assert d.A_prime[n, c] == star[c]
                else:
                    assert d.A_prime[n, c] == d.A[n, c]


def test_design_deterministic_and_seed_sensitive():
    t = uniform_table(3)
    part = singleton_partition(t)
    d1 = build_design(t, t.row(0), part, N=50, rng=RngStream(7))
    d2 = build_design(t, t.row(0), part, N=50, rng=RngStream(7))
    d3 = build_design(t, t.row(0), part, N=50, rng=RngStream(8))
    assert np.array_equal(d1.X_prime, d2.X_prime)
    assert np.array_equal(d1.row_ids, d2.row_ids)
    assert not np.array_equal(d1.row_ids, d3.row_ids)


def test_design_rows_shared_across_partitions():
    # the row stream must not depend on the grouping, so tree levels pair up
    t = uniform_table(4)
    fine = singleton_partition(t)
    coarse = AspectPartition((("all", (0, 1, 2, 3)),))
    d1 = build_design(t, t.row(0), fine, N=60, rng=RngStream(1))
    d2 = build_design(t, t.row(0), coarse, N=60, rng=RngStream(1))
    assert np.array_equal(d1.row_ids, d2.row_ids)


def test_design_validation():
    t = uniform_table()
    part = singleton_partition(t)
    with pytest.raises(SchemaMismatch):
        build_design(t, Observation(np.zeros(3)), part, N=50, rng=RngStream(0))
    with pytest.raises(AspectraError):
        build_design(t, t.row(0), part, N=3, rng=RngStream(0))  # N < m


def test_delta_predictions_linear():
    t = uniform_table(5)
    model = LinearModel(1.0, [1.0, 2.0, 3.0, 4.0])
    d = build_design(t, t.row(0), singleton_partition(t), N=80, rng=RngStream(3))
    ym = delta_predictions(model, d)
    expected = (d.A_prime - d.A) @ np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(ym, expected, atol=1e-12)


# -------------------------------------------------------------------- OLS


def manual_design(X_prime, y):
    N, m = X_prime.shape
    part = AspectPartition(tuple((f"a{j}", (j,)) for j in range(m)))
    zeros = np.zeros((N, m))
    return (
        SampleDesign(
            row_ids=np.zeros(N, dtype=np.int64),
            X_prime=np.asarray(X_prime, dtype=np.int8),
            A=zeros,
            A_prime=zeros,
            partition=part,
            column_names=tuple(f"a{j}" for j in range(m)),
        ),
        np.asarray(y, dtype=float),
    )


def test_ols_exact_on_identifiable_design():
    X = np.array([[1, 0], [0, 1], [1, 1], [1, 0]])
    gamma_true = np.array([2.0, -1.0])
    design, ym = manual_design(X, X @ gamma_true)
    fit = fit_ols(design, ym)
    assert np.allclose(fit.gamma, gamma_true, atol=1e-12)
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(fit.W, X.T @ X)


def test_ols_matches_lstsq_on_noisy_response():
    rng = np.random.default_rng(6)
    X = rng.integers(0, 2, size=(50, 3))
    X[np.arange(50), rng.integers(0, 3, 50)] = 1  # no all-zero rows
    y = rng.standard_normal(50)
    design, ym = manual_design(X, y)
    fit = fit_ols(design, ym)
    ref, *_ = np.linalg.lstsq(X.astype(float), y, rcond=None)
    assert np.allclose(fit.gamma, ref, atol=1e-10)


def test_never_sampled_aspect_is_reported():
    X = np.array([[1, 0], [1, 0], [1, 0]])  # aspect a1 never flagged
    design, ym = manual_design(X, np.ones(3))
    with pytest.raises(SingularDesign, match="a1"):
        fit_ols(design, ym)


def test_collinear_flags_rejected():
    X = np.array([[1, 1], [1, 1], [1, 1]])  # identical columns
    design, ym = manual_design(X, np.ones(3))
    with pytest.raises(SingularDesign, match="collinear"):
        fit_ols(design, ym)


def test_singular_design_message_suggests_larger_n():
    X = np.array([[1, 0], [1, 0], [1, 0]])
    design, ym = manual_design(X, np.ones(3))
    with pytest.raises(SingularDesign, match="[Nn]"):
        fit_ols(design, ym)


# ------------------------------------------------------------------- lasso


def lasso_instance(seed, N=120, m=5):
    rng = np.random.default_rng(seed)
    kl = rng.integers(0, m, size=(N, 2))
    X = np.zeros((N, m), dtype=np.int8)
    X[np.arange(N), kl[:, 0]] = 1
    X[np.arange(N), kl[:, 1]] = 1
    gamma_true = np.array([4.0, -2.5, 1.0, 0.4, 0.0])[:m]
    y = X @ gamma_true + 0.05 * rng.standard_normal(N)
    return manual_design(X, y)


def test_lasso_limit_m_equals_ols():
    design, ym = lasso_instance(0)
    ols = fit_ols(design, ym)
    lasso = fit_lasso(design, ym, limit=5)
    assert lasso.lam == 0.0
    assert np.allclose(lasso.gamma, ols.gamma, atol=1e-10)


def test_lasso_limit_zero_all_zero_at_lam_max():
    design, ym = lasso_instance(1)
    fit = fit_lasso(design, ym, limit=0)
    assert np.count_nonzero(fit.gamma) == 0
    assert fit.lam == pytest.approx(np.max(np.abs(fit.Z)) / design.N)


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_lasso_respects_limit(limit):
    design, ym = lasso_instance(2)
    fit = fit_lasso(design, ym, limit=limit)
    assert np.count_nonzero(fit.gamma) <= limit
    assert fit.lam is not None and fit.lam >= 0.0


def test_lasso_search_trace_brackets_the_answer():
    design, ym = lasso_instance(3)
    fit = fit_lasso(design, ym, limit=2)
    assert any(lam == fit.lam and nnz <= 2 for lam, nnz in fit.path)
    for lam, nnz in fit.path:
        if lam < fit.lam:
            assert nnz > 2


def test_lasso_keeps_strongest_aspects():
    design, ym = lasso_instance(4)
    fit = fit_lasso(design, ym, limit=2)
    kept = set(np.flatnonzero(fit.gamma))
    assert kept <= {0, 1}  # the two largest true coefficients


def test_lasso_limit_out_of_range():
    design, ym = lasso_instance(5)
    with pytest.raises(AspectraError):
        fit_lasso(design, ym, limit=-1)
    with pytest.raises(AspectraError):
        fit_lasso(design, ym, limit=6)


def test_lasso_zero_response_short_circuits():
    design, _ = lasso_instance(6)
    fit = fit_lasso(design, np.zeros(design.N), limit=3)
    assert np.count_nonzero(fit.gamma) == 0
    assert fit.lam == 0.0


def test_lasso_non_convergence_is_an_error(monkeypatch):
    # one sweep is never enough to see the coefficients settle
    monkeypatch.setattr(aspectra.aspects, "LASSO_MAX_SWEEPS", 1)
    design, ym = lasso_instance(7)
    with pytest.raises(LassoNotConverged, match="did not converge"):
        fit_lasso(design, ym, limit=2)


# ------------------------------------------------------------ lasso oracle

# The oracle gives up after this many sweeps, where fit_lasso allows
# aspects.LASSO_MAX_SWEEPS: a stalled oracle solve (copied columns at lambda
# near 0) is skipped rather than waited for. Solves that finish run the same
# sweeps either way.
LASSO_MAX_SWEEPS = 5_000


def _oracle_fit_lasso(design: SampleDesign, ym: np.ndarray, limit: int) -> SurrogateFit:
    """Smallest-lambda L1 fit keeping at most `limit` nonzero contributions.

    Coordinate descent on the raw binary design (no standardization, no
    intercept); lambda found by bisection on [0, lambda_max] where
    lambda_max = max_j |Z[j]| / N zeroes every coefficient. limit = m takes
    the plain least-squares path.

    Every bisection step solves in covariance form on W = X'^T X' and
    Z = X'^T Y, built once: a sweep costs O(m^2) and no step touches the
    N x m design. A solve that spends all LASSO_MAX_SWEEPS sweeps raises
    LassoNotConverged.
    """
    # Bisection with one coordinate descent solve per step: the search
    # fit_lasso replaced, copied verbatim.
    m = design.m
    if not 0 <= limit <= m:
        raise AspectraError(f"limit must be in [0, {m}], got {limit}")
    if limit >= m:
        fit = fit_ols(design, ym)
        nnz = int(np.count_nonzero(fit.gamma))
        return SurrogateFit(
            gamma=fit.gamma, W=fit.W, Z=fit.Z, residual_norm=fit.residual_norm,
            lam=0.0, path=((0.0, nnz),),
        )
    X, y, W, Z = _design_matrices(design, ym)
    lam_max = float(np.max(np.abs(Z)) / design.N)
    if lam_max == 0.0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z, residual_norm=float(np.linalg.norm(y)),
            lam=0.0, path=((0.0, 0),),
        )
    if limit == 0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z, residual_norm=float(np.linalg.norm(y)),
            lam=lam_max, path=((lam_max, 0),),
        )
    lo = 0.0
    hi = lam_max
    gamma_hi = np.zeros(m)
    trace = [(lam_max, 0)]
    # stop once the bracket is tiny relative to the answer, so that shrinking
    # the returned lambda by even 0.1% drops below the true crossing point;
    # the absolute floor ends the search when the crossing is at 0
    floor = 1e-12 * lam_max
    while hi - lo > floor and hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        w, sweeps = _kernels.lasso_cd(W, Z, design.N * mid, LASSO_MAX_SWEEPS, LASSO_TOL)
        if sweeps >= LASSO_MAX_SWEEPS:
            raise LassoNotConverged(mid, sweeps)
        nnz = int(np.count_nonzero(w))
        trace.append((mid, nnz))
        if nnz <= limit:
            hi = mid
            gamma_hi = w
        else:
            lo = mid
    residual = float(np.linalg.norm(X @ gamma_hi - y))
    return SurrogateFit(
        gamma=gamma_hi, W=W, Z=Z, residual_norm=residual, lam=hi, path=tuple(trace)
    )


@st.composite
def capped_flag_designs(draw):
    """Binary flag designs as build_design makes them (one or two flags per
    row), with a column zeroed or copied now and then, N from m to 10 m, and
    a response from a sparse linear model plus noise."""
    m = draw(st.integers(min_value=2, max_value=7))
    N = draw(st.integers(min_value=m, max_value=10 * m))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kl = rng.integers(0, m, size=(N, 2))
    X = np.zeros((N, m), dtype=np.int8)
    X[np.arange(N), kl[:, 0]] = 1
    X[np.arange(N), kl[:, 1]] = 1
    for j in draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=1)):
        X[:, j] = 0
    for a, b in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=2)):
        X[:, b] = X[:, a]
    y = X @ (rng.standard_normal(m) * (rng.random(m) < 0.6)) + 0.3 * rng.standard_normal(N)
    return X, y


def _collinear(W):
    sampled = np.flatnonzero(np.diag(W) > 0.0)
    return np.linalg.matrix_rank(W[np.ix_(sampled, sampled)]) < sampled.size


def assert_fit_matches_oracle(design, ym, limit):
    ref = _oracle_fit_lasso(design, ym, limit)
    fit = fit_lasso(design, ym, limit)
    assert fit.lam == ref.lam
    assert fit.path == ref.path
    assert np.array_equal(fit.gamma, ref.gamma)
    assert fit.residual_norm == ref.residual_norm
    return fit


@settings(max_examples=150, deadline=None)
@given(problem=capped_flag_designs())
def test_lasso_path_search_matches_bisection_oracle(problem):
    design, ym = manual_design(*problem)
    for limit in range(1, design.m):
        try:
            ref = _oracle_fit_lasso(design, ym, limit)
        except LassoNotConverged:
            assume(False)
        try:
            fit = fit_lasso(design, ym, limit)
        except SingularDesign:
            # only where copied or otherwise collinear flag columns leave the
            # lasso solution, and so the oracle's count, to rounding
            assert _collinear(ref.W)
            continue
        assert np.count_nonzero(fit.gamma) <= limit
        parting = next(((f, r) for f, r in zip(fit.path, ref.path) if f != r), None)
        if parting is not None:
            # the oracle's solve stops once no coefficient moves by LASSO_TOL,
            # so within about that of a knot its count can be off; there a
            # tighter solve at the same lambda must give the path's count
            (lam, count), (lam_ref, _) = parting
            assert lam == lam_ref
            w, sweeps = _kernels.lasso_cd(ref.W, ref.Z, design.N * lam, 20_000, 1e-14)
            assume(sweeps < 20_000)
            assert np.count_nonzero(w) == count
            continue
        assert fit.lam == ref.lam
        assert np.array_equal(fit.gamma, ref.gamma)


def test_lasso_path_with_a_drop_event():
    # in t = N * lambda: w_1 joins at 2.9, w_0 at 2.1 and w_2 at 1.35; w_0
    # returns to 0 at 1.1 and joins again at 0.22. So "at most 2 nonzero"
    # holds down to t = 0.22; a walk that misses the drop stops at 1.35
    X = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    design, ym = manual_design(X, [0.9, 2.0, 1.6])
    fit = assert_fit_matches_oracle(design, ym, limit=2)
    knots, actives = zip(*_lasso_path(fit.W, fit.Z))
    assert [P.tolist() for P in actives] == [[1], [1, 0], [1, 0, 2], [1, 2], [1, 2, 0]]
    assert np.allclose(knots, [2.1, 1.35, 1.1, 0.22, 0.0])
    assert fit.lam == pytest.approx(0.22 / 3, rel=1e-5)


def test_lasso_never_sampled_aspect_stays_zero():
    design, ym = lasso_instance(8, N=60, m=4)
    X = design.X_prime.copy()
    X[:, 2] = 0
    design, ym = manual_design(X, ym)
    for limit in range(1, 4):
        fit = assert_fit_matches_oracle(design, ym, limit)
        assert fit.gamma[2] == 0.0


def test_lasso_collinear_column_that_never_ties():
    # column 2 is columns 0 + 1; with w_0 < 0 < w_1 its correlation stays
    # inside (-t, t), so the walk goes on without it
    X = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0],
                  [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]])
    design, ym = manual_design(X, [-0.5, -0.3, 0.4, 1.0, -0.1, 1.4, -0.7, 0.4])
    for limit in range(1, 4):
        fit = assert_fit_matches_oracle(design, ym, limit)
        assert fit.gamma[2] == 0.0


def test_lasso_copied_column_is_singular():
    # columns 0 and 1 are flagged on the same rows, so any split of their
    # joint coefficient is a solution
    X = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1], [1, 1, 0]])
    design, ym = manual_design(X, [2.0, 2.5, 0.3, -0.2, 1.8])
    for limit in (1, 2):
        with pytest.raises(SingularDesign, match="collinear"):
            fit_lasso(design, ym, limit)


def test_lasso_columns_joining_at_one_knot():
    # one flag per row and two rows per aspect: W = 2I, and three aspects
    # reach the top together at t = 3, the fourth at t = 1
    X = np.repeat(np.eye(4, dtype=np.int8), 2, axis=0)
    design, ym = manual_design(X, [1.5, 1.5, 1.0, 2.0, -1.0, -2.0, 0.25, 0.75])
    fits = [assert_fit_matches_oracle(design, ym, limit) for limit in (1, 2, 3)]
    assert [f.lam for f in fits[:2]] == [3 / 8, 3 / 8]  # no lambda keeps 1 or 2
    assert fits[2].lam == pytest.approx(1 / 8, rel=1e-5)
    assert np.count_nonzero(fits[2].gamma) == 3


def test_lasso_path_tie_where_one_column_joins():
    # both |Z_j| are largest together, but W_01 > W_11 (a Gram matrix of
    # real columns), so only w_1 can leave 0 at the top; w_0 joins later
    # with the other sign
    W = np.array([[4.0, 2.5], [2.5, 2.0]])
    Z = np.array([5.0, 5.0])
    segments = list(_lasso_path(W, Z))
    assert [P.tolist() for _, P in segments] == [[1], [1, 0]]
    assert segments[0][0] == pytest.approx(5 / 9)
    top = 5.0
    for t_low, P in segments:
        w, _ = _kernels.lasso_cd(W, Z, (t_low + top) / 2, 100_000, 1e-14)
        assert sorted(np.flatnonzero(w)) == sorted(P)
        top = t_low


def test_lasso_too_many_columns_tied_at_one_knot():
    m = aspectra.aspects._MAX_TIED + 1
    X = np.repeat(np.eye(m, dtype=np.int8), 2, axis=0)
    design, ym = manual_design(X, np.ones(2 * m))
    with pytest.raises(SingularDesign, match="tie"):
        fit_lasso(design, ym, limit=1)


def test_lasso_path_that_revisits_an_active_set_stops(monkeypatch):
    # a walk stuck on one active set must raise, not loop
    first = []
    resolve = aspectra.aspects._knot_active_set

    def stuck(*args):
        first.append(first[0] if first else resolve(*args))
        return first[-1]

    monkeypatch.setattr(aspectra.aspects, "_knot_active_set", stuck)
    design, ym = lasso_instance(9)
    with pytest.raises(SingularDesign, match="revisits"):
        fit_lasso(design, ym, limit=3)


# --------------------------------------------------------- predict_aspects


def test_additive_linear_contributions():
    t = uniform_table(7, n=4000)
    coef = np.array([2.0, -1.0, 0.5, 0.0])
    model = LinearModel(0.0, coef)
    x_star = t.row(11)
    expl = predict_aspects(model, t, x_star, singleton_partition(t), N=20_000, seed=0)
    by_name = {a.name: a.contribution for a in expl.aspects}
    means = t.values.mean(axis=0)
    for j, name in enumerate(t.column_names):
        expected = coef[j] * (x_star.values[j] - means[j])
        assert by_name[name] == pytest.approx(expected, abs=0.05)


def test_constant_model_zero_contributions():
    t = uniform_table(8)
    expl = predict_aspects(ConstantModel(3.0), t, t.row(0), singleton_partition(t), N=500, seed=1)
    for a in expl.aspects:
        assert a.contribution == 0.0


def test_aspects_sorted_by_magnitude():
    t = uniform_table(9)
    model = LinearModel(0.0, [5.0, 0.1, -2.0, 0.01])
    expl = predict_aspects(model, t, t.row(2), singleton_partition(t), N=4000, seed=2)
    mags = [abs(a.contribution) for a in expl.aspects]
    assert mags == sorted(mags, reverse=True)


def test_grouping_by_cutoff_reports_pair_correlation():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(400)
    b = a + 0.05 * rng.standard_normal(400)
    c = rng.standard_normal(400)
    t = NumericTable(("a", "b", "c"), np.column_stack([a, b, c]))
    model = LinearModel(0.0, [1.0, 1.0, 1.0])
    expl = predict_aspects(model, t, t.row(0), 0.5, N=2000, seed=3)
    pair = next(a_ for a_ in expl.aspects if a_.members == ("a", "b"))
    assert pair.min_abs_cor > 0.9
    assert pair.sign_consistent is True
    single = next(a_ for a_ in expl.aspects if a_.members == ("c",))
    assert single.min_abs_cor == 1.0


def test_limit_flows_through():
    t = uniform_table(11)
    model = LinearModel(0.0, [3.0, 2.0, 1.0, 0.5])
    expl = predict_aspects(model, t, t.row(1), singleton_partition(t), N=3000, seed=4, limit=2)
    nonzero = [a for a in expl.aspects if a.contribution != 0.0]
    assert len(nonzero) <= 2
    assert expl.lam is not None and expl.lam > 0.0


def test_explanation_serialization_roundtrip():
    t = uniform_table(12)
    model = LinearModel(0.0, [1.0, 2.0, 3.0, 4.0])
    expl = predict_aspects(model, t, t.row(0), singleton_partition(t), N=1000, seed=5)

    tsv = expl.to_tsv()
    body = [l for l in tsv.splitlines() if not l.startswith("#")]
    assert body[0].split("\t")[0] == "aspect"
    assert len(body) == 1 + 4

    doc = json.loads(expl.to_json())
    back = AspectExplanation.from_json_doc(doc)
    assert back.N == expl.N and back.seed == expl.seed and back.lam == expl.lam
    assert [a.name for a in back.aspects] == [a.name for a in expl.aspects]
    assert [a.contribution for a in back.aspects] == [a.contribution for a in expl.aspects]


def test_same_seed_same_explanation():
    t = uniform_table(13)
    model = LinearModel(0.0, [1.0, -1.0, 2.0, 0.0])
    e1 = predict_aspects(model, t, t.row(5), singleton_partition(t), N=800, seed=9)
    e2 = predict_aspects(model, t, t.row(5), singleton_partition(t), N=800, seed=9)
    assert e1.to_json() == e2.to_json()
