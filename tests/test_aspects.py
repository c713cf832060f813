import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import aspectra.aspects
from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    Observation,
    SchemaMismatch,
    SingularDesign,
    SubprocessModel,
    TriplotConfig,
    fit_knn,
    predict_aspects,
    predict_triplot,
)
from aspectra import _kernels
from aspectra.aspects import (
    _MAX_TIED,
    _TIE,
    AspectExplanation,
    SurrogateFit,
    _lasso_path,
    _normal_equations,
    _scored_designs,
    build_design,
    delta_predictions,
    fit_lasso,
    fit_ols,
)
from aspectra.cluster import CORRELATION_METHODS
from aspectra.data import RngStream
from aspectra.errors import (AspectraError, LassoNotConverged, NonFiniteShift,
                             ZeroVarianceColumn)
from aspectra.models import LinearModel

from conftest import (
    CountingModel,
    RecordingModel,
    RowwiseModel,
    child_cmd,
    dense_normal_equations,
    make_six_variable,
    oracle_build_design,
    oracle_modified_keys,
    oracle_predict_aspects,
    oracle_predict_triplot,
    oracle_tree_partitions,
    planned_calls_and_rows,
    planned_modified,
    singletons,
    slot_first_draws,
    x_prime,
)


def uniform_table(seed=0, n=500, p=4):
    rng = np.random.default_rng(seed)
    return NumericTable(tuple(f"x{i}" for i in range(p)), rng.uniform(0, 1, (n, p)))


def singleton_partition(table):
    return singletons(table.column_names)


# ------------------------------------------------------------- build_design


def test_design_shapes_and_flag_counts():
    t = uniform_table()
    part = singleton_partition(t)
    d = build_design(t, t.row(0), part, N=300, rng=RngStream(0))
    assert d.flags.shape == (300, 2) and d.m == 4
    X_prime = x_prime(d.flags, d.m)
    assert d.slots.shape == d.inverse.shape == (300,)
    # each distinct modified row once, in a slot of its own, not yet scored
    n_rows = len(set(oracle_modified_keys(t, t.row(0), part, 300, 0)))
    assert n_rows < 300 and d.predictions.shape == (n_rows,)
    assert np.isnan(d.predictions).all()
    assert np.array_equal(np.unique(d.slots), np.arange(n_rows))
    assert d.distinct.values.shape == (np.unique(d.row_ids).size, 4)
    counts = X_prime.sum(axis=1)
    assert np.all((counts == 1) | (counts == 2))
    assert np.any(counts == 1) and np.any(counts == 2)  # both draw types occur


def test_design_rows_come_from_table():
    t = uniform_table(n=40)
    d = build_design(t, t.row(3), singleton_partition(t), N=100, rng=RngStream(5))
    # each distinct sampled row once, in ascending row id, and expanded to A
    assert np.array_equal(d.distinct.values, t.values[np.unique(d.row_ids)])
    assert np.array_equal(d.distinct.values[d.inverse], t.values[d.row_ids])
    assert d.distinct.column_names == t.column_names


def test_design_tables_are_read_only(monkeypatch):
    # the tables are wrapped without re-validation, so nothing may rewrite
    # them: the distinct sampled rows, and every table the model is handed,
    # A's distinct rows and the A' rows in a reused buffer, all in one call
    # or, at a budget of 10 rows, 10 to a call; nor may anything rewrite the
    # predictions once every slot is scored
    t = uniform_table(n=40)
    d = build_design(t, t.row(3), singleton_partition(t), N=100, rng=RngStream(5))
    assert not d.row_ids.flags.writeable and not d.inverse.flags.writeable
    assert not d.slots.flags.writeable and not d.flags.flags.writeable
    (scored,) = _scored_designs(LinearModel(0.0, [1.0] * 4), t, t.row(3), 100, RngStream(5),
                                singleton_partition(t))
    assert not scored.predictions.flags.writeable
    given, calls = [d.distinct], []
    for budget in (aspectra.aspects._STACK_VALUES, 4 * 10):
        monkeypatch.setattr(aspectra.aspects, "_STACK_VALUES", budget)
        model = RecordingModel(LinearModel(0.0, [1.0, 2.0, 3.0, 4.0]))
        predict_triplot(model, t, t.row(3), TriplotConfig(mode="local", N=100, seed=5))
        predict_aspects(model, t, t.row(3), singleton_partition(t), N=100, seed=5)
        given += model.given
        calls.append(model.calls)
    # the triplot's p + 1 calls and predict_aspects' 2; at 10 rows a call,
    # the A' rows take several calls, all but f(A)'s of at most 10 rows
    assert calls[0] == (t.p + 1) + 2 and calls[1] > calls[0]
    assert max(table.n for table in model.given if table.n != d.distinct.n) == 10
    for table in given:
        assert table.column_names == t.column_names
        assert table.values.dtype == np.float64 and table.values.flags.c_contiguous
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0


def test_design_replacement_semantics():
    t = uniform_table(1)
    x_star = Observation(np.array([10.0, 20.0, 30.0, 40.0]))
    part = AspectPartition((("g01", (0, 1)), ("g2", (2,)), ("g3", (3,))))
    designs, write = aspectra.aspects._designs(t, x_star, 200, RngStream(2), part)
    d, star = designs[0], x_star.values
    A, (A_prime,) = d.distinct.values[d.inverse], planned_modified(designs, write)
    X_prime = x_prime(d.flags, d.m)
    for n in range(200):
        for j, members in enumerate(part.member_sets):
            for c in members:
                if X_prime[n, j]:
                    assert A_prime[n, c] == star[c]
                else:
                    assert A_prime[n, c] == A[n, c]


def test_design_deterministic_and_seed_sensitive():
    t = uniform_table(3)
    part = singleton_partition(t)
    d1 = build_design(t, t.row(0), part, N=50, rng=RngStream(7))
    d2 = build_design(t, t.row(0), part, N=50, rng=RngStream(7))
    d3 = build_design(t, t.row(0), part, N=50, rng=RngStream(8))
    assert np.array_equal(d1.flags, d2.flags)
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
    args = (t, t.row(0), 80, RngStream(3), singleton_partition(t))
    (d,) = _scored_designs(model, *args)
    ym = delta_predictions(model, d)
    A = d.distinct.values[d.inverse]
    (A_prime,) = planned_modified(*aspectra.aspects._designs(*args))
    expected = (A_prime - A) @ np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(ym, expected, atol=1e-12)


# --------------------------------------------------- distinct-row scoring


def _explained_table(case, train):
    if case == "one-row":  # every one of the N draws repeats the table's only row
        return train.take_rows([7])
    if case == "few-repeats":  # 300 draws of 5000 rows repeat a few
        return NumericTable(train.column_names,
                            np.random.default_rng(2).standard_normal((5000, train.p)))
    return train


@pytest.mark.parametrize("model_kind", ["knn", "rowwise"])
@pytest.mark.parametrize("case", ["one-row", "few-repeats", "triplot"])
def test_distinct_row_scoring_matches_scoring_every_row(case, model_kind):
    train, y = make_six_variable()
    model = CountingModel(fit_knn(train, y, 5) if model_kind == "knn" else RowwiseModel())
    table = _explained_table(case, train)
    part = singleton_partition(table)
    x_star, N, seed = train.row(3), 300, 8
    cfg = TriplotConfig(mode="local", N=N, seed=seed, limit=2)
    parts = oracle_tree_partitions(table, cfg)[1] if case == "triplot" else [part]

    def explain(triplot, aspects_of):
        if case == "triplot":
            return triplot(model, table, x_star, cfg).to_json()
        return aspects_of(model, table, x_star, part, N=N, seed=seed, limit=2).to_json()

    ours = explain(predict_triplot, predict_aspects)
    distinct = np.unique(build_design(table, x_star, part, N, RngStream(seed)).row_ids).size
    assert {"one-row": distinct == 1, "few-repeats": 0 < N - distinct < 20,
            "triplot": distinct < N}[case]
    planned = planned_calls_and_rows(table, x_star, parts, N, seed)
    assert (model.calls, model.rows) == planned
    # f(A) per level, and one stacked call for every level's A' rows
    assert model.calls == len(parts) + 1
    # the oracle scores all N rows of A' at every level
    assert explain(oracle_predict_triplot, oracle_predict_aspects) == ours
    assert model.rows == planned[1] + len(parts) * (N + distinct)


@pytest.mark.parametrize("kind", ["knn", "rowwise", "cmd"])
@pytest.mark.parametrize("shape", ["six", "repeated-rows"])
@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_planned_explanation_is_byte_identical_to_scoring_every_row(m, shape, kind):
    # at m = 1 every draw replaces every column and is x*; at m = 2 so is
    # every draw that flags both aspects
    table, y = make_six_variable()
    if shape == "repeated-rows":
        table, y = table.take_rows(np.repeat(np.arange(50), 3)), np.repeat(y[:50], 3)
    part = {1: AspectPartition((("all", tuple(range(6))),)),
            2: AspectPartition((("abc", (0, 1, 2)), ("def", (3, 4, 5)))),
            3: AspectPartition((("ab", (0, 1)), ("cd", (2, 3)), ("ef", (4, 5)))),
            6: singleton_partition(table)}[m]
    x_star = table.row(5)
    for limit in (None, 1):
        args = (table, x_star, part)
        kwargs = dict(N=201, seed=3, limit=limit)
        if kind == "cmd":
            with SubprocessModel(child_cmd("sum")) as model:
                ours = predict_aspects(model, *args, **kwargs).to_json()
                oracle = oracle_predict_aspects(model, *args, **kwargs).to_json()
        else:
            model = fit_knn(table, y, 5) if kind == "knn" else RowwiseModel()
            ours = predict_aspects(model, *args, **kwargs).to_json()
            oracle = oracle_predict_aspects(model, *args, **kwargs).to_json()
        assert ours == oracle


def test_f_of_A_request_holds_each_distinct_row_once(tmp_path):
    t = uniform_table(n=50, p=3)
    part = singleton_partition(t)
    record = tmp_path / "request.bin"
    with SubprocessModel(child_cmd("record") + [str(record)]) as m:
        predict_aspects(m, t, t.row(2), part, N=120, seed=4)
    # A' first, each distinct modified row once in slot order, as its
    # slot's first draw has it; then f(A)'s rows, each distinct sampled row
    # once in ascending row id
    first, second = record.read_bytes().decode().split("PREDICT ")[1:]
    A_prime = oracle_build_design(t, t.row(2), part, 120, RngStream(4)).modified.values
    design = build_design(t, t.row(2), part, 120, RngStream(4))
    # draws share a slot exactly when the oracle's keys of their rows agree
    keys = oracle_modified_keys(t, t.row(2), part, 120, 4)
    assert len(set(keys)) == len(set(zip(keys, design.slots.tolist()))) == design.predictions.size
    firsts = slot_first_draws([design])
    assert firsts.size < 120
    assert first == f"{firsts.size} 3\nx0,x1,x2\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in A_prime[firsts].tolist()
    )
    ids = np.unique(design.row_ids)
    assert ids.size < 120
    assert second == f"{ids.size} 3\nx0,x1,x2\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in t.values[ids].tolist()
    )


# -------------------------------------------------------------------- OLS


@dataclass(frozen=True)
class Problem:
    """A dense flag matrix X, the shifts y, and what the solvers take: the
    normal equations W = X^T X and Z = X^T y, N and a partition naming the
    aspects. X may have rows of 0 or 3 flags, which no sampled design has."""

    X: np.ndarray  # N x m, float
    y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    partition: AspectPartition

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def manual_design(X_prime, y) -> Problem:
    X = np.asarray(X_prime, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    part = AspectPartition(tuple((f"a{j}", (j,)) for j in range(X.shape[1])))
    return Problem(X, y, X.T @ X, X.T @ y, part)


def ols(problem: Problem) -> SurrogateFit:
    return fit_ols(problem.W, problem.Z, problem.partition)


def lasso(problem: Problem, limit: int) -> SurrogateFit:
    return fit_lasso(problem.W, problem.Z, problem.N, problem.partition, limit)


def test_ols_exact_on_identifiable_design():
    X = np.array([[1, 0], [0, 1], [1, 1], [1, 0]])
    gamma_true = np.array([2.0, -1.0])
    problem = manual_design(X, X @ gamma_true)
    fit = ols(problem)
    assert np.allclose(fit.gamma, gamma_true, atol=1e-12)
    assert np.linalg.norm(problem.X @ fit.gamma - problem.y) == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(fit.W, X.T @ X)


def test_ols_matches_lstsq_on_noisy_response():
    rng = np.random.default_rng(6)
    X = rng.integers(0, 2, size=(50, 3))
    X[np.arange(50), rng.integers(0, 3, 50)] = 1  # no all-zero rows
    y = rng.standard_normal(50)
    fit = ols(manual_design(X, y))
    ref, *_ = np.linalg.lstsq(X.astype(float), y, rcond=None)
    assert np.allclose(fit.gamma, ref, atol=1e-10)


def test_never_sampled_aspect_is_reported():
    X = np.array([[1, 0], [1, 0], [1, 0]])  # aspect a1 never flagged
    with pytest.raises(SingularDesign, match="a1"):
        ols(manual_design(X, np.ones(3)))


def test_collinear_flags_rejected():
    X = np.array([[1, 1], [1, 1], [1, 1]])  # identical columns
    with pytest.raises(SingularDesign, match="collinear"):
        ols(manual_design(X, np.ones(3)))


def test_singular_design_message_suggests_larger_n():
    X = np.array([[1, 0], [1, 0], [1, 0]])
    with pytest.raises(SingularDesign, match="[Nn]"):
        ols(manual_design(X, np.ones(3)))


# ------------------------------------------------------- normal equations


def _normal_equation_designs():
    """The planned levels of a local triplot over six columns (m = 6 down to
    1), and single designs at m = 1, where every draw's two flags coincide,
    m = 2 and m = 3."""
    table, _ = make_six_variable()
    x_star, N = table.row(4), 301
    tree, _ = oracle_tree_partitions(table, TriplotConfig(mode="local", N=N, seed=5))
    designs, _ = aspectra.aspects._designs(table, x_star, N, RngStream(5), tree)
    for groups in ((("all", range(6)),),
                   (("abc", (0, 1, 2)), ("def", (3, 4, 5))),
                   (("ab", (0, 1)), ("cd", (2, 3)), ("ef", (4, 5)))):
        designs.append(build_design(table, x_star, AspectPartition(groups), N, RngStream(7)))
    return designs


def test_normal_equations_match_the_dense_oracle():
    rng = np.random.default_rng(12)
    designs = _normal_equation_designs()
    assert [d.m for d in designs] == [6, 5, 4, 3, 2, 1, 1, 2, 3]
    for design in designs:
        # some draws flag one aspect twice, and X' has a single 1 in their row
        assert np.any(design.flags[:, 0] == design.flags[:, 1])
        # shifts over twelve orders of magnitude, so that Z summed in any
        # other order than X'^T y's differs in its last bits
        ym = rng.standard_normal(design.N) * 10.0 ** rng.uniform(-6.0, 6.0, design.N)
        W, Z = _normal_equations(design, ym)
        W_dense, Z_dense = dense_normal_equations(design, ym)
        assert W.dtype == Z.dtype == np.float64
        assert W.tobytes() == W_dense.tobytes()
        assert Z.tobytes() == Z_dense.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_normal_equations_reject_a_non_finite_shift(bad):
    for design in _normal_equation_designs()[-4:]:
        for at in (0, design.N - 1):
            ym = np.ones(design.N)
            if bad == "overflow":  # finite shifts whose sum passes the float64 range
                ym[:] = 1e308
            else:
                ym[at] = bad
            with pytest.raises(NonFiniteShift):
                _normal_equations(design, ym)
        with pytest.raises(AspectraError, match="prediction shifts"):
            _normal_equations(design, np.ones(design.N - 1))


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
    problem = lasso_instance(0)
    uncapped = lasso(problem, limit=5)
    assert uncapped.lam == 0.0
    assert np.allclose(uncapped.gamma, ols(problem).gamma, atol=1e-10)


def test_lasso_limit_zero_all_zero_at_lam_max():
    problem = lasso_instance(1)
    fit = lasso(problem, limit=0)
    assert np.count_nonzero(fit.gamma) == 0
    assert fit.lam == pytest.approx(np.max(np.abs(fit.Z)) / problem.N)
    for seed in range(1, 20):  # the cap breaks at the top: no knot below it is walked
        assert_fit_at_first_crossing(lasso_instance(seed), limit=0)


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_lasso_respects_limit(limit):
    fit = lasso(lasso_instance(2), limit=limit)
    assert np.count_nonzero(fit.gamma) <= limit
    assert fit.lam is not None and fit.lam >= 0.0


def test_lasso_search_trace_brackets_the_answer():
    fit = lasso(lasso_instance(3), limit=2)
    assert any(lam == fit.lam and nnz <= 2 for lam, nnz in fit.path)
    for lam, nnz in fit.path:
        if lam < fit.lam:
            assert nnz > 2


def test_lasso_keeps_strongest_aspects():
    fit = lasso(lasso_instance(4), limit=2)
    kept = set(np.flatnonzero(fit.gamma))
    assert kept <= {0, 1}  # the two largest true coefficients


def test_lasso_limit_out_of_range():
    problem = lasso_instance(5)
    with pytest.raises(AspectraError):
        lasso(problem, limit=-1)
    # a limit past m caps nothing: it is the limit-m fit, bit for bit
    capped, uncapped = lasso(problem, limit=6), lasso(problem, limit=5)
    assert capped.gamma.tobytes() == uncapped.gamma.tobytes()
    assert (capped.lam, capped.path) == (uncapped.lam, uncapped.path)


def test_lasso_zero_response_short_circuits():
    X = lasso_instance(6).X
    problem = manual_design(X, np.zeros(X.shape[0]))
    fit = lasso(problem, limit=3)
    assert np.count_nonzero(fit.gamma) == 0
    assert fit.lam == 0.0
    for limit in range(problem.m):
        assert_fit_at_first_crossing(problem, limit)


def test_lasso_non_convergence_is_an_error(monkeypatch):
    # one sweep is never enough to see the coefficients settle
    monkeypatch.setattr(aspectra.aspects, "LASSO_MAX_SWEEPS", 1)
    with pytest.raises(LassoNotConverged, match="did not converge"):
        lasso(lasso_instance(7), limit=2)


# ------------------------------------------------------------ lasso oracle

# The oracle gives up after this many sweeps, where fit_lasso allows
# aspects.LASSO_MAX_SWEEPS: a stalled oracle solve (copied columns at lambda
# near 0) is skipped rather than waited for.
LASSO_MAX_SWEEPS = 5_000
BISECT_REL_TOL = 1e-6
# The oracle counts nonzeros from each solve, so it solves more tightly than
# aspects.LASSO_TOL (1e-10). Near a knot as small as t/N = 1.3e-5, a solve
# stopped at 1e-10 counts a column that is not yet active there, and the
# bisection lands 4.2e-6 relative above the crossing; at 1e-12 it is 3.5e-7.
ORACLE_LASSO_TOL = 1e-12


def _oracle_fit_lasso(W, Z, N: int, partition: AspectPartition, limit: int) -> SurrogateFit:
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
    # fit_lasso replaced, copied verbatim but for taking (W, Z), N and the
    # partition as fit_lasso now does.
    m = partition.m
    if not 0 <= limit <= m:
        raise AspectraError(f"limit must be in [0, {m}], got {limit}")
    if limit >= m:
        fit = fit_ols(W, Z, partition)
        nnz = int(np.count_nonzero(fit.gamma))
        return SurrogateFit(
            gamma=fit.gamma, W=fit.W, Z=fit.Z,
            lam=0.0, path=((0.0, nnz),),
        )
    lam_max = float(np.max(np.abs(Z)) / N)
    if lam_max == 0.0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z,
            lam=0.0, path=((0.0, 0),),
        )
    if limit == 0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z,
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
        w, sweeps = _kernels.lasso_cd(W, Z, N * mid, LASSO_MAX_SWEEPS, ORACLE_LASSO_TOL)
        if sweeps >= LASSO_MAX_SWEEPS:
            raise LassoNotConverged(mid, sweeps)
        nnz = int(np.count_nonzero(w))
        trace.append((mid, nnz))
        if nnz <= limit:
            hi = mid
            gamma_hi = w
        else:
            lo = mid
    return SurrogateFit(
        gamma=gamma_hi, W=W, Z=Z, lam=hi, path=tuple(trace)
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


def assert_fit_at_first_crossing(problem, limit):
    """Check fit_lasso against the exact path and the bisection oracle.

    Walking the path down from t = max|Z|, the returned lambda is the first
    knot below which more than `limit` columns are active, exactly: N lambda
    is a knot the walk yields (or max|Z|), every segment above it holds at
    most `limit` columns and the one below it more. `path` holds each knot
    walked with the active count above it. gamma is nonzero only on the
    active set above the knot and meets the lasso's optimality conditions
    there. Where the oracle's bisection found the same crossing, its lambda
    lies at most 2 BISECT_REL_TOL above, and a tight solve at the knot gives
    gamma.
    """
    fit = lasso(problem, limit)
    N, W, Z = problem.N, fit.W, fit.Z
    knots, counts, active = [float(np.max(np.abs(Z)))], [0], []
    if knots[0] > 0.0:  # Z = 0 has no path
        for t_low, P in _lasso_path(W, Z):
            if knots[-1] / N == fit.lam:
                assert P.shape[0] > limit  # the segment below the answer
                break
            assert P.shape[0] <= limit  # a segment above the answer
            knots.append(t_low)
            counts.append(P.shape[0])
            active = P.tolist()
    t = knots[-1]
    assert fit.lam == t / N
    assert fit.path == tuple((k / N, c) for k, c in zip(knots, counts))
    assert set(np.flatnonzero(fit.gamma).tolist()) <= set(active)
    # c = Z - W gamma: c_j = t sign(gamma_j) where gamma_j != 0, |c_j| <= t elsewhere
    c = Z - W @ fit.gamma
    tol = 1e-7 * max(1.0, knots[0])
    on = fit.gamma != 0.0
    assert np.all(np.abs(c[on] - t * np.sign(fit.gamma[on])) <= tol)
    assert np.all(np.abs(c[~on]) <= t + tol)
    try:
        ref = _oracle_fit_lasso(problem.W, problem.Z, N, problem.partition, limit)
    except LassoNotConverged:
        return fit
    if ref.lam >= fit.lam:  # the oracle's bisection found the same crossing
        assert ref.lam <= fit.lam * (1.0 + 2.0 * BISECT_REL_TOL) + 2e-12 * knots[0] / N
        w, sweeps = _kernels.lasso_cd(W, Z, t, 100_000, 1e-14)
        # at t = 0 collinear columns leave many least-squares solutions
        if sweeps < 100_000 and (t > 0.0 or not _collinear(W)):
            assert np.allclose(fit.gamma, w, rtol=0.0, atol=1e-8 * max(1.0, np.abs(w).max()))
    return fit


@settings(max_examples=150, deadline=None)
@given(problem=capped_flag_designs())
# knots within 1e-6 relative of each other (6, 5, 5, 6 active columns), and
# at limit 5 a crossing at t/N = 1.29e-5
@example(problem=(
    np.array([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 1],
              [0, 1, 0, 1, 0, 0], [0, 0, 0, 1, 1, 0], [1, 0, 1, 0, 0, 0]]),
    np.array([-0.61134257, -0.9303291, -0.47773684, -0.64198877, -0.62658558, -0.33408004]),
))
def test_lasso_path_search_matches_bisection_oracle(problem):
    problem = manual_design(*problem)
    for limit in range(1, problem.m):
        try:
            fit = assert_fit_at_first_crossing(problem, limit)
        except SingularDesign:
            # only where copied or otherwise collinear flag columns leave the
            # lasso solution, and so the oracle's count, to rounding
            assert _collinear(problem.W)
            continue
        assert np.count_nonzero(fit.gamma) <= limit


def test_lasso_path_with_a_drop_event():
    # in t = N * lambda: w_1 joins at 2.9, w_0 at 2.1 and w_2 at 1.35; w_0
    # returns to 0 at 1.1 and joins again at 0.22. "At most 2 nonzero" holds
    # above 1.35 and again on [0.22, 1.1]; the first crossing, walking down,
    # is the knot at 1.35, where the lower one at 0.22 needs the whole path
    X = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    fit = assert_fit_at_first_crossing(manual_design(X, [0.9, 2.0, 1.6]), limit=2)
    knots, actives = zip(*_lasso_path(fit.W, fit.Z))
    assert [P.tolist() for P in actives] == [[1], [1, 0], [1, 0, 2], [1, 2], [1, 2, 0]]
    assert np.allclose(knots, [2.1, 1.35, 1.1, 0.22, 0.0])
    assert fit.lam == knots[1] / 3
    assert fit.path == ((2.9 / 3, 0), (knots[0] / 3, 1), (knots[1] / 3, 2))


def test_lasso_never_sampled_aspect_stays_zero():
    problem = lasso_instance(8, N=60, m=4)
    X = problem.X.copy()
    X[:, 2] = 0
    problem = manual_design(X, problem.y)
    for limit in range(1, 4):
        fit = assert_fit_at_first_crossing(problem, limit)
        assert fit.gamma[2] == 0.0


def test_lasso_collinear_column_that_never_ties():
    # column 2 is columns 0 + 1; with w_0 < 0 < w_1 its correlation stays
    # inside (-t, t), so the walk goes on without it
    X = np.array([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0],
                  [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]])
    problem = manual_design(X, [-0.5, -0.3, 0.4, 1.0, -0.1, 1.4, -0.7, 0.4])
    for limit in range(1, 4):
        fit = assert_fit_at_first_crossing(problem, limit)
        assert fit.gamma[2] == 0.0


def test_lasso_cap_held_down_to_lambda_zero_on_a_rank_deficient_design():
    # column 2 is columns 0 + 1, so least squares has a line of solutions;
    # the path keeps 2 active down to t = 0, and gamma is the one on its
    # active set {0, 2}, not a solve over all three columns cut down after
    X = np.array([[0, 1, 1], [1, 0, 1], [1, 0, 1], [0, 1, 1]])
    fit = assert_fit_at_first_crossing(manual_design(X, [-0.2, -1.2, -0.7, -0.5]), limit=2)
    assert fit.lam == 0.0
    assert np.allclose(fit.gamma, [-0.6, 0.0, -0.35], rtol=0.0, atol=1e-9)


def test_lasso_copied_column_is_singular():
    # columns 0 and 1 are flagged on the same rows, so any split of their
    # joint coefficient is a solution
    X = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1], [1, 1, 0]])
    problem = manual_design(X, [2.0, 2.5, 0.3, -0.2, 1.8])
    for limit in (1, 2):
        with pytest.raises(SingularDesign, match="collinear"):
            lasso(problem, limit)


def test_lasso_columns_joining_at_one_knot():
    # one flag per row and two rows per aspect: W = 2I, and three aspects
    # reach the top together at t = 3, the fourth at t = 1
    X = np.repeat(np.eye(4, dtype=np.int8), 2, axis=0)
    problem = manual_design(X, [1.5, 1.5, 1.0, 2.0, -1.0, -2.0, 0.25, 0.75])
    fits = [assert_fit_at_first_crossing(problem, limit) for limit in (1, 2, 3)]
    assert [f.lam for f in fits[:2]] == [3 / 8, 3 / 8]  # no lambda keeps 1 or 2
    assert fits[2].lam == 1 / 8
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
    with pytest.raises(SingularDesign, match="tie"):
        lasso(manual_design(X, np.ones(2 * m)), limit=1)


def test_lasso_path_that_revisits_an_active_set_stops(monkeypatch):
    # a walk stuck on one active set must raise, not loop
    first = []
    resolve = aspectra.aspects._knot_active_set

    def stuck(*args):
        first.append(first[0] if first else resolve(*args))
        return first[-1]

    monkeypatch.setattr(aspectra.aspects, "_knot_active_set", stuck)
    with pytest.raises(SingularDesign, match="revisits"):
        lasso(lasso_instance(9), limit=3)


def _knot_oracle(W, kept, tied, signs):
    """Every active set kept + S, S a subset of `tied`, that continues the
    path below a knot by `_knot_active_set`'s two conditions, by brute force:
    each column of S moves away from 0 in its sign, and each tied column
    left out has its correlation fall at least as fast as t."""
    found = []
    for S in itertools.chain.from_iterable(
            itertools.combinations(tied, n) for n in range(len(tied) + 1)):
        P = kept + list(S)
        if not P:
            continue
        b = np.linalg.solve(W[np.ix_(P, P)], [signs[j] for j in P])
        moves = all(signs[j] * bj > 0.0 for j, bj in zip(S, b[len(kept):]))
        falls = all(signs[j] * (W[j, P] @ b) >= 1.0 - _TIE for j in tied if j not in S)
        if moves and falls:
            found.append(P)
    return found


_KNOTS = {
    # (W, kept, tied, joining, signs)
    "two-tied-join-together": ([[1.0, 0.5], [0.5, 1.0]], [], [0, 1], [], [1.0, 1.0]),
    # the joining column 1 would move toward 0 (b_1 < 0): the sign test
    # refuses it before the subsets are searched
    "joining-column-refused": ([[1.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 2.0]],
                               [0], [1, 2], [1], [1.0, 1.0, 1.0]),
    "three-tied-mixed-signs": ([[2.0, 1.0, 0.5, 0.0], [1.0, 2.0, 1.0, 0.5],
                                [0.5, 1.0, 2.0, 1.0], [0.0, 0.5, 1.0, 2.0]],
                               [3], [0, 1, 2], [2], [1.0, -1.0, 1.0, -1.0]),
    "four-tied": ([[2.0, 1.0, 0.0, 0.5], [1.0, 2.0, 1.0, 0.0],
                   [0.0, 1.0, 2.0, 1.0], [0.5, 0.0, 1.0, 2.0]],
                  [], [0, 1, 2, 3], [], [1.0, -1.0, 1.0, 1.0]),
    "four-tied-one-joining": ([[3.0, 2.5, 0.0, 1.0], [2.5, 3.0, 0.5, 0.0],
                               [0.0, 0.5, 1.0, 0.2], [1.0, 0.0, 0.2, 2.0]],
                              [], [0, 1, 2, 3], [1], [1.0, 1.0, -1.0, 1.0]),
}


def _knot(W, kept, tied, joining, signs):
    W = np.array(W)
    rhs_rows = np.column_stack((np.zeros(W.shape[0]), np.arange(W.shape[0]), W))
    P, sol = aspectra.aspects._knot_active_set(W, rhs_rows, kept, tied, joining, signs)
    rhs = rhs_rows[P]
    rhs[:, 0] = [signs[j] for j in P]
    np.testing.assert_array_equal(sol, np.linalg.solve(W[np.ix_(P, P)], rhs))
    return P.tolist()


@pytest.mark.parametrize("case", list(_KNOTS))
def test_knot_active_set_is_the_one_the_oracle_finds(case):
    W, kept, tied, joining, signs = _KNOTS[case]
    assert np.all(np.linalg.eigvalsh(W) > 0.0)
    # W is positive definite, so exactly one subset continues the path
    (expected,) = _knot_oracle(np.array(W), kept, tied, signs)
    assert _knot(W, kept, tied, joining, signs) == expected


@pytest.mark.parametrize("seed", range(10))
def test_knot_active_set_matches_the_oracle_on_random_ties(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n_tied, n_kept = int(rng.integers(2, 5)), int(rng.integers(0, 3))
        m = n_tied + n_kept
        X = rng.standard_normal((m + 2, m))
        W = X.T @ X
        columns = rng.permutation(m).tolist()
        kept, tied = columns[:n_kept], columns[n_kept:]
        joining = [tied[int(rng.integers(n_tied))]] if rng.random() < 0.5 else []
        signs = rng.choice([-1.0, 1.0], size=m).tolist()
        (expected,) = _knot_oracle(W, kept, tied, signs)
        assert _knot(W, kept, tied, joining, signs) == expected


def test_knot_active_set_without_a_continuation_raises():
    # W is not positive definite: every single column's correlation rises
    # with t falling, and both together move toward 0, so no subset holds
    W = [[1.0, -2.0], [-2.0, 1.0]]
    assert _knot_oracle(np.array(W), [], [0, 1], [1.0, 1.0]) == []
    with pytest.raises(SingularDesign, match="no active set continues the lasso path"):
        _knot(W, [], [0, 1], [], [1.0, 1.0])


# ------------------------------------------------------------- walk oracle

# The walk _lasso_path replaced, which ran its event search as numpy array
# operations, copied verbatim but for the names. The Python-float walk must
# give the same (t, P) sequence, and the same error where one is raised.


def _oracle_lasso_path(W: np.ndarray, Z: np.ndarray):
    """Walk the exact lasso path on (W, Z) downwards, in t = N * lambda.

    Yields (t_low, P) per segment, from t = max|Z| down to 0: on
    (t_low, t_high], t_high the previous t_low, the coefficients in the
    index array P are nonzero and all others are 0. With signs s_P the
    segment has w_P(t) = W_PP^-1 (Z_P - t s_P), and the correlations
    c(t) = Z - W_.P w_P(t) are linear in t too. The segment ends at the largest t below its top
    where an inactive |c_j| reaches t (a join) or an active w_k reaches 0 (a
    drop): one m_P x m_P solve per segment (Osborne, Presnell & Turlach 2000;
    Efron et al. 2004, the lasso variant of LARS). Events within a relative
    _TIE of each other happen at one knot, and _knot_active_set picks the
    active set below it.

    A column of zeros never joins. An inactive column collinear with the
    active set has c_j = t * const along the segment; if |const| < 1 it never
    joins. If |const| = 1 the lasso solution is not unique there, and which
    coefficients coordinate descent leaves nonzero depends on rounding, so
    that raises SingularDesign.
    """
    diag = W.diagonal()
    sampled = diag > 0.0
    ZW = np.column_stack((Z, W))
    plus_minus = np.array([[1.0], [-1.0]])  # join rows: c = +t, c = -t
    t = float(np.max(np.abs(Z)))
    kept = np.array([], dtype=np.intp)
    tied = joining = np.flatnonzero(np.abs(Z) >= t * (1.0 - _TIE))
    signs = np.zeros(Z.shape[0])  # on the active set and the columns tied at a knot
    signs[tied] = np.sign(Z[tied])
    seen = set()
    while True:
        P, sol = _oracle_knot_active_set(W, ZW, kept, tied, joining, signs)
        s_P = signs[P]
        signs[:] = 0.0
        signs[P] = s_P
        if signs.tobytes() in seen:  # exact arithmetic never revisits a sign pattern
            raise SingularDesign("the lasso path revisits an active set")
        seen.add(signs.tobytes())
        b, a = sol[:, 0], sol[:, 1]  # w_P(t) = a - t b
        W_P = W[P]
        beta, a_W = sol[:, :2].T @ W_P
        alpha = Z - a_W  # c(t) = alpha + t beta
        free = (signs == 0.0) & sampled
        collinear = free & (diag - np.einsum("ij,ij->j", W_P, sol[:, 2:]) <= _TIE * diag)
        # |c_j| = t all along the segment: w_j = 0 is a solution, the only one
        # unless the column is collinear with the active set
        rides = free & (np.abs(alpha) <= _TIE * t) & (np.abs(beta) >= 1.0 - _TIE)
        if np.any(rides & collinear):
            raise SingularDesign("aspect flag columns are collinear")
        with np.errstate(divide="ignore", invalid="ignore"):
            join = alpha / (plus_minus - beta)
            drop = a / b
        # roots within _TIE below t belong to the knot just resolved
        below = t * (1.0 - _TIE)
        join = np.where((join > 0.0) & (join < below) & (free & ~(collinear | rides)), join, 0.0)
        drop = np.where((drop > 0.0) & (drop < below), drop, 0.0)
        t = max(float(join.max(initial=0.0)), float(drop.max(initial=0.0)))
        yield t, P
        if t == 0.0:
            return
        # tied at the new knot: the columns whose root is here, and every
        # other free column with |c_j| = t (a rider)
        at_knot = t * (1.0 - _TIE)
        c = alpha + t * beta
        boundary = np.flatnonzero(free & (np.abs(c) >= at_knot))
        signs[boundary] = np.sign(c[boundary])
        drops = drop >= at_knot
        kept = P[~drops]
        tied = np.concatenate((P[drops], boundary))
        joining = np.flatnonzero(join.max(axis=0) >= at_knot)


def _oracle_knot_active_set(W, ZW, kept, tied, joining, signs):
    """The active set just below a knot, and its segment solve.

    `kept` stay active; each `tied` column sits on the boundary (|c_j| = t, or
    an active w_j = 0) with sign signs[j]. Going down, the coefficients move
    by b = W_PP^-1 s_P on the new active set P = kept + joined. A tied column
    belongs to P when it moves away from 0 in its own sign (s_j b_j > 0); one
    left out must have its correlation fall at least as fast as t
    (s_j W_jP b >= 1). Exactly one subset satisfies both when W_PP is
    positive definite. A single join or drop, the usual case, is tried
    first: `joining` is the column whose root made the knot, if any. Then
    the subsets of `tied` are searched, smallest first, so that of two
    copied columns the first joins.
    """
    if tied.shape[0] > _MAX_TIED:
        raise SingularDesign(f"{tied.shape[0]} aspects tie at one point of the lasso path")
    subsets = itertools.chain(
        [joining.tolist()] if joining.shape[0] <= 1 else [],
        (c for n in range(tied.shape[0] + 1) for c in itertools.combinations(tied.tolist(), n)),
    )
    for subset in subsets:
        joined = np.array(subset, dtype=np.intp)
        out = np.array([j for j in tied.tolist() if j not in subset], dtype=np.intp)
        P = np.concatenate((kept, joined))
        if P.size == 0:  # leaves every tied |c_j| = t above t
            continue
        try:
            sol = np.linalg.solve(W[P[:, None], P], np.column_stack((signs[P], ZW[P])))
        except np.linalg.LinAlgError:
            raise SingularDesign("aspect flag columns are collinear") from None
        b = sol[:, 0]
        if np.all(signs[joined] * b[kept.shape[0]:] > 0.0) and np.all(
            signs[out] * (W[out[:, None], P] @ b) >= 1.0 - _TIE
        ):
            return P, sol
    raise SingularDesign("no active set continues the lasso path")


def _walk(path, W, Z):
    """The (t_low, P) sequence of a walk and the SingularDesign message that
    ends it, or None."""
    segments = []
    try:
        for t_low, P in path(W, Z):
            segments.append((t_low, P.tolist()))
    except SingularDesign as e:
        return segments, str(e)
    return segments, None


def assert_walk_matches_oracle(W, Z):
    walk = _walk(_lasso_path, W, Z)
    assert walk == _walk(_oracle_lasso_path, W, Z)
    return walk


@settings(max_examples=300, deadline=None)
@given(problem=capped_flag_designs())
def test_lasso_walk_matches_array_walk_oracle(problem):
    problem = manual_design(*problem)
    assert_walk_matches_oracle(problem.W, problem.Z)


def _gram(X, y):
    problem = manual_design(np.asarray(X), y)
    return problem.W, problem.Z


@pytest.mark.parametrize("X, y, error", [
    # a drop: w_0 joins, leaves and joins again
    ([[1, 1, 0], [0, 1, 0], [1, 0, 1]], [0.9, 2.0, 1.6], None),
    # three columns tie at the top, the fourth joins later
    (np.repeat(np.eye(4, dtype=np.int8), 2, axis=0),
     [1.5, 1.5, 1.0, 2.0, -1.0, -2.0, 0.25, 0.75], None),
    # a rider: column 0 lies inside column 1 and the rows flagging only
    # column 1 sum to 0 but for rounding, so |c_1| = t to within _TIE all the
    # way down and w_1 stays 0; taken for a join, it would join near 5e-17
    ([[1, 1, 0], [0, 1, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]],
     [0.6, 0.3, -0.5, 0.2, -0.97, 0.63], None),
    # column 2 is columns 0 + 1 and never ties
    ([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0],
      [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]],
     [-0.5, -0.3, 0.4, 1.0, -0.1, 1.4, -0.7, 0.4], None),
    # columns 0 and 1 copied: collinear
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1], [1, 1, 0]], [2.0, 2.5, 0.3, -0.2, 1.8],
     "collinear"),
    # more columns tied at the top than the knot search takes
    (np.repeat(np.eye(_MAX_TIED + 1, dtype=np.int8), 2, axis=0),
     np.ones(2 * (_MAX_TIED + 1)), "tie"),
], ids=["drop", "tie", "rider", "collinear-never-ties", "copied", "too-many-tied"])
def test_lasso_walk_matches_array_walk_oracle_on_fixed_cases(X, y, error):
    segments, message = assert_walk_matches_oracle(*_gram(X, y))
    if error is None:
        assert message is None and segments[-1][0] == 0.0
    else:
        assert error in message


def test_lasso_walk_matches_array_walk_oracle_on_a_tie_where_one_joins():
    W = np.array([[4.0, 2.5], [2.5, 2.0]])
    Z = np.array([5.0, 5.0])
    segments, message = assert_walk_matches_oracle(W, Z)
    assert [P for _, P in segments] == [[1], [1, 0]] and message is None


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


def test_limit_at_or_above_aspect_count_is_uncapped():
    # a cutoff grouping decides m, so a caller cannot know it in advance
    rng = np.random.default_rng(10)
    a = rng.standard_normal(400)
    t = NumericTable(("a", "b", "c"), np.column_stack(
        [a, a + 0.05 * rng.standard_normal(400), rng.standard_normal(400)]))
    model = LinearModel(0.0, [1.0, 1.0, 1.0])
    at_m = predict_aspects(model, t, t.row(0), 0.5, N=500, seed=3, limit=2)
    assert len(at_m.aspects) == 2 and at_m.lam == 0.0
    for limit in (3, 99):
        assert predict_aspects(model, t, t.row(0), 0.5, N=500, seed=3, limit=limit) == at_m
    with pytest.raises(AspectraError, match="limit"):
        predict_aspects(model, t, t.row(0), 0.5, N=500, seed=3, limit=-1)


def test_negative_limit_is_rejected_before_any_model_call():
    table, _ = make_six_variable()
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    for grouping in (0.5, singletons(table.column_names)):
        with pytest.raises(AspectraError, match="limit must be >= 0"):
            predict_aspects(model, table, table.row(0), grouping, N=300, limit=-1)
    with pytest.raises(AspectraError, match="limit must be >= 0"):
        predict_triplot(model, table, table.row(0), TriplotConfig(mode="local", N=300, limit=-1))
    assert model.calls == 0


@pytest.mark.parametrize("name, value", [
    ("N", 300.5), ("N", True), ("N", "300"), ("seed", 1.5), ("seed", False),
    ("limit", 1.5), ("limit", True),
])
def test_non_integer_arguments_are_rejected_before_any_model_call(name, value):
    # as TriplotConfig takes them; a float or a bool limit would otherwise
    # run as a cap of 1, and a float N or seed fail inside numpy
    table, _ = make_six_variable()
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    kwargs = dict(N=300, seed=2, limit=2)
    kwargs[name] = value
    for grouping in (0.5, singletons(table.column_names)):
        with pytest.raises(AspectraError, match=f"{name} must be an integer"):
            predict_aspects(model, table, table.row(0), grouping, **kwargs)
    assert model.calls == 0



@pytest.mark.parametrize("grouping", ["abc", None, True, np.bool_(True), "0.5", [0.5]])
def test_a_grouping_that_is_no_partition_or_number_is_rejected_before_any_model_call(grouping):
    # a bool or a numeric string once ran as a cutoff, and the rest raised
    # a bare ValueError or TypeError
    table, _ = make_six_variable()
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    with pytest.raises(AspectraError, match="grouping must be"):
        predict_aspects(model, table, table.row(0), grouping, N=300)
    assert model.calls == 0


def test_an_integer_past_the_float_range_is_a_cutoff_outside_the_unit_interval():
    table, _ = make_six_variable()
    with pytest.raises(AspectraError, match="cutoff must be in"):
        predict_aspects(LinearModel(0.0, [1.0] * 6), table, table.row(0), 10**400, N=300)


def test_an_unknown_correlation_method_is_rejected_before_any_model_call():
    # singleton groups never need a correlation, and a partition's multi-
    # column group once needed it only after the model calls
    table, _ = make_six_variable()
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    pairs = AspectPartition((("ab", (0, 1)), ("cd", (2, 3)), ("e", (4,)), ("f", (5,))))
    for grouping in (0.5, singletons(table.column_names), pairs):
        with pytest.raises(AspectraError, match="correlation method"):
            predict_aspects(model, table, table.row(0), grouping, N=300, method="kendall")
    assert model.calls == 0
    assert CORRELATION_METHODS == ("pearson", "spearman")

def test_a_constant_column_in_a_multi_column_aspect_fails_before_any_model_call():
    # the whole design was once scored before the correlation summaries
    # found the constant column
    table, _ = make_six_variable()
    values = table.values.copy()
    values[:, 4] = 1.5
    table = table.with_values(values)
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    pairs = AspectPartition((("ab", (0, 1)), ("ce", (2, 4)), ("d", (3,)), ("f", (5,))))
    with pytest.raises(ZeroVarianceColumn, match="'e' has zero variance"):
        predict_aspects(model, table, table.row(0), pairs, N=300)
    assert model.calls == 0
    # as singletons the constant column needs no correlation
    predict_aspects(model, table, table.row(0), singletons(table.column_names), N=300)
    assert model.calls > 0


def test_numpy_integer_arguments_are_stored_as_int():
    table, _ = make_six_variable()
    model = LinearModel(0.0, [1.0] * 6)
    ours = predict_aspects(model, table, table.row(0), 0.5, N=np.int64(300), seed=np.uint8(2),
                           limit=np.int32(1))
    assert type(ours.N) is int and type(ours.seed) is int
    assert ours.to_json() == predict_aspects(model, table, table.row(0), 0.5, N=300, seed=2,
                                             limit=1).to_json()


def test_explanation_serialization_roundtrip():
    t = uniform_table(12)
    model = LinearModel(0.0, [1.0, 2.0, 3.0, 4.0])
    expl = predict_aspects(model, t, t.row(0), singleton_partition(t), N=1000, seed=5)

    tsv = expl.to_tsv()
    body = [l for l in tsv.splitlines() if not l.startswith("#")]
    assert body[0].split("\t")[0] == "aspect"
    assert len(body) == 1 + 4

    doc = json.loads(expl.to_json())
    doc["metadata"]["unknown"] = "ignored"
    # a document of another JSON type once raised a bare AttributeError
    for other in ([], "aspects", None, 5):
        with pytest.raises(AspectraError, match="^malformed aspect document: document must be dict"):
            AspectExplanation.from_json_doc(other)
    back = AspectExplanation.from_json_doc(doc)
    assert back == expl
    assert back.N == expl.N and back.seed == expl.seed and back.lam == expl.lam
    assert [a.name for a in back.aspects] == [a.name for a in expl.aspects]
    assert [a.contribution for a in back.aspects] == [a.contribution for a in expl.aspects]


def test_same_seed_same_explanation():
    t = uniform_table(13)
    model = LinearModel(0.0, [1.0, -1.0, 2.0, 0.0])
    e1 = predict_aspects(model, t, t.row(5), singleton_partition(t), N=800, seed=9)
    e2 = predict_aspects(model, t, t.row(5), singleton_partition(t), N=800, seed=9)
    assert e1.to_json() == e2.to_json()
