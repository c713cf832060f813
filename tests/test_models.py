import gc
import math
import re
import subprocess
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    PermutationConfig,
    SchemaMismatch,
    SubprocessFailure,
    SubprocessModel,
    fit_knn,
    fit_linear,
    group_importance,
    predict_aspects,
)
from aspectra import models
from aspectra.errors import (
    AspectraError,
    BadK,
    LengthMismatch,
    NonFiniteDistance,
    NonFiniteLoss,
    RankDeficient,
)
from aspectra.models import (
    KnnModel,
    LinearModel,
    _row_losses,
    _stacked_predictions,
    loss,
    predict,
)

from conftest import RecordingModel, child_cmd


def table_of(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"x{i}" for i in range(values.shape[1]))
    return NumericTable(tuple(names), values)


# ------------------------------------------------------------ linear + knn


def test_linear_model_predicts_affine():
    m = LinearModel(1.0, [2.0, -3.0])
    t = table_of([[1.0, 1.0], [0.0, 2.0]])
    assert m.predict(t).tolist() == [0.0, -5.0]


@pytest.mark.parametrize("p", [1, 3, 6, 24])
def test_linear_model_row_does_not_depend_on_its_batch_position(p):
    # BLAS may round the last n mod 4 rows of a batch differently; predict
    # scores those through the 4-row kernel too
    rng = np.random.default_rng(p)
    X = rng.standard_normal((41, p))
    m = LinearModel(0.25, rng.standard_normal(p))
    whole = m.predict(table_of(X))
    for i in range(X.shape[0]):
        assert m.predict(table_of(X[i:i + 1])).tobytes() == whole[i:i + 1].tobytes()
    for n in range(1, 12):
        rows = rng.choice(X.shape[0], n)
        assert m.predict(table_of(X[rows])).tobytes() == whole[rows].tobytes()


def test_fit_linear_recovers_coefficients():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100, 3))
    y = 0.5 + X @ np.array([1.0, -2.0, 3.0])
    m = fit_linear(table_of(X), y)
    assert m.intercept == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(m.coefficients, [1.0, -2.0, 3.0], atol=1e-10)


def test_fit_linear_matches_lstsq_oracle():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    m = fit_linear(table_of(X), y)
    ref, *_ = np.linalg.lstsq(np.column_stack([np.ones(60), X]), y, rcond=None)
    assert m.intercept == pytest.approx(ref[0], abs=1e-12)
    assert np.allclose(m.coefficients, ref[1:], atol=1e-12)


def test_fit_linear_rank_deficient():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        fit_linear(table_of(np.column_stack([x, 2 * x])), np.ones(10))
    with pytest.raises(RankDeficient):
        fit_linear(table_of(np.ones((3, 3))), np.ones(3))  # n <= p


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e200])
def test_fit_linear_of_a_huge_column_fits_like_the_unscaled_table(scale):
    # lstsq's rank tolerance grows with the largest singular value, so the
    # raw design reads rank 1; the retry on power-of-two-scaled columns fits
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = X @ np.array([3.0, -2.0, 0.5])
    ref = fit_linear(table_of(X), y)
    huge = X * [scale, 1.0, 1.0]
    m = fit_linear(table_of(huge), y)
    assert m.intercept == pytest.approx(ref.intercept, abs=1e-12)
    assert np.allclose(m.coefficients * [scale, 1.0, 1.0], ref.coefficients, rtol=1e-12, atol=0.0)
    assert np.allclose(m.predict(table_of(huge)), ref.predict(table_of(X)), rtol=1e-12, atol=1e-12)
    with pytest.raises(RankDeficient):
        fit_linear(table_of(np.column_stack([huge, huge[:, 1]])), y)


def test_fit_linear_of_a_subnormal_column_raises_without_a_warning():
    # the retry fits, but a's coefficient, near 3e310, is past the float64 range
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = X @ np.array([3.0, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient, match="past the float64 range"):
            fit_linear(table_of(X * [1e-310, 1.0, 1.0]), y)


def test_fit_linear_length_mismatch():
    with pytest.raises(LengthMismatch):
        fit_linear(table_of(np.ones((5, 1))), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_linear_rejects_non_finite_target(bad):
    X = np.arange(10.0).reshape(5, 2) ** 2
    y = np.arange(5.0)
    y[3] = bad
    with pytest.raises(AspectraError, match=r"target y\[3\] is not a finite number"):
        fit_linear(table_of(X), y)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    train = rng.standard_normal((80, 3))
    y = rng.standard_normal(80)
    query = rng.standard_normal((20, 3))
    m = KnnModel(7, train, y)
    got = m.predict(table_of(query))
    D = cdist(query, train)
    for i in range(20):
        order = np.argsort(D[i], kind="stable")[:7]
        assert got[i] == pytest.approx(float(np.mean(y[order])), abs=1e-10)


def test_knn_k1_on_training_row_returns_target():
    rng = np.random.default_rng(3)
    train = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    m = fit_knn(table_of(train), y, 1)
    assert m.predict(table_of(train[4:5])).tolist() == [y[4]]


def test_knn_distance_ties_take_lower_row():
    train = np.array([[0.0], [1.0], [-1.0]])
    y = np.array([10.0, 20.0, 30.0])
    m = KnnModel(2, train, y)
    # query at 0: neighbors are row 0 (d=0) and then row 1 (d=1 ties row 2)
    assert m.predict(table_of([[0.0]])).tolist() == [15.0]


def test_bad_k():
    t = np.ones((4, 1))
    with pytest.raises(BadK):
        KnnModel(0, t, np.ones(4))
    with pytest.raises(BadK):
        KnnModel(5, t, np.ones(4))


@pytest.mark.parametrize("k", [2.5, 2.0, True, "3", None])
def test_a_k_that_is_not_an_integer_is_rejected(k):
    # int() once ran k = 2.5 as 2, True as 1 and "3" as 3
    table = table_of(np.arange(8.0).reshape(4, 2))
    for build in (lambda: KnnModel(k, table.values, np.ones(4)),
                  lambda: fit_knn(table, np.ones(4), k)):
        with pytest.raises(AspectraError, match="k must be an integer"):
            build()


def test_a_numpy_integer_k_is_stored_as_an_int():
    table = table_of(np.arange(8.0).reshape(4, 2))
    for k in (np.int64(2), np.uint8(2)):
        model = fit_knn(table, np.arange(4.0), k)
        assert type(model.k) is int and model.label == "knn(k=2)"


def test_knn_rejects_a_target_count_unlike_the_rows():
    t = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(LengthMismatch):
        KnnModel(1, t, [5.0, 6.0])
    with pytest.raises(LengthMismatch):
        KnnModel(1, t[:2], [5.0, 6.0, 7.0])


@pytest.mark.parametrize("train, targets", [
    (np.zeros(3), np.ones(3)),
    (np.zeros((3, 1, 1)), np.ones(3)),
    (np.zeros((3, 0)), np.ones(3)),
    ([[0.0], [np.nan], [2.0]], np.ones(3)),
    ([[0.0], [np.inf], [2.0]], np.ones(3)),
    (np.zeros((3, 1)), [1.0, np.nan, 2.0]),
    (np.zeros((3, 1)), [1.0, -np.inf, 2.0]),
    ([["0"], ["1"], ["2"]], np.ones(3)),
    (np.zeros((3, 1)), ["1.5"] * 3),
], ids=["1-d", "3-d", "no-columns", "nan-row", "inf-row", "nan-target", "inf-target",
        "str-row", "str-target"])
def test_knn_rejects_bad_training_data(train, targets):
    with pytest.raises(AspectraError):
        KnnModel(1, train, targets)


def test_knn_keeps_its_own_copy_of_the_training_data():
    train = np.array([[0.0], [1.0], [2.0]])
    targets = np.array([1.0, 2.0, 3.0])
    m = KnnModel(1, train, targets)
    train[1, 0] = np.nan
    targets[1] = 20.0
    assert m.predict(table_of([[1.0]])).tolist() == [2.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1.7e308])
def test_knn_distances_past_the_float64_range_are_an_error(scale):
    # squared distances this large overflow to inf, and a stable sort breaks
    # their ties by row index: every prediction came out wrong, silently
    rng = np.random.default_rng(6)
    X = rng.uniform(-1.0, 1.0, (40, 3)) * scale
    m = KnnModel(5, X, rng.standard_normal(40))
    with pytest.raises(NonFiniteDistance):
        predict(m, table_of(X))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("targets", [[1.7e308, 1.7e308, 0.0, 0.0],  # the sum overflows
                                     [1.7e308, 1.7e308, -1.7e308, -1.7e308]])  # both ways
def test_knn_target_mean_past_the_float64_range_is_an_error(targets):
    m = KnnModel(4, [[0.0], [1.0], [2.0], [3.0]], targets)
    with pytest.raises(AspectraError, match="non-finite predictions"):
        predict(m, table_of([[0.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [3, 40], ids=["tail-block", "product"])
def test_linear_predictions_past_the_float64_range_are_an_error(n):
    values = np.random.default_rng(7).uniform(-1.0, 1.0, (n, 3)) * 1.7e308
    with pytest.raises(AspectraError, match="non-finite predictions"):
        predict(LinearModel(0.5, [1.0, -2.0, 0.5]), table_of(values))


def test_constant_model():
    m = ConstantModel(2.5)
    assert m.predict(table_of(np.zeros((3, 2)))).tolist() == [2.5, 2.5, 2.5]
    for value in ("3", True, None, math.nan):  # float() once took "3" and True
        with pytest.raises(AspectraError, match="value must be a real number"):
            ConstantModel(value)
    # NaN once read "must be in [-inf, inf], got non-finite nan"
    with pytest.raises(AspectraError, match="^intercept must be a real number, got nan$"):
        LinearModel(math.nan, [1.0, 2.0])
    # "ab" was once taken as the columns a and b
    for build in (ConstantModel, lambda value, **names: LinearModel(value, [1.0, 2.0], **names)):
        with pytest.raises(AspectraError, match="column_names must be list or tuple, got str"):
            build(1.0, column_names="ab")


# -------------------------------------------------------------------- loss


def test_loss_oracles():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.array([2.0, 2.0, 1.0])
    assert loss("rmse", y, yhat) == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-15)
    assert loss("mae", y, yhat) == pytest.approx(1.0, abs=1e-15)
    assert loss("rmse", y, y) == 0.0


def _oracle_loss(kind, y, yhat):
    """loss as it was before it reduced rows: a 1-d mean."""
    err = y - yhat
    if kind == "rmse":
        return float(np.sqrt(np.mean(err * err)))
    return float(np.mean(np.abs(err)))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["rmse", "mae"]),
    k=st.integers(1, 8),
    n=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_row_losses_equal_loss_bit_for_bit(kind, k, n, seed, ties):
    rng = np.random.default_rng(seed)
    if ties:
        y, yhat = rng.integers(-3, 4, size=n) / 2.0, rng.integers(-3, 4, size=(k, n)) / 2.0
    else:
        # magnitudes over six decades, so the sums round
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, size=n)
        yhat = y + rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, n))
    got = _row_losses(kind, y, yhat)
    assert got.shape == (k,)
    for r in range(k):
        assert got[r] == loss(kind, y, yhat[r]) == _oracle_loss(kind, y, yhat[r])


def test_loss_validation():
    with pytest.raises(AspectraError):
        loss("mse", np.ones(2), np.ones(2))
    with pytest.raises(LengthMismatch):
        loss("rmse", np.ones(2), np.ones(3))
    for kind in ("rmse", "mae"):
        with pytest.raises(LengthMismatch, match="expected 1, got 0"):
            loss(kind, np.ones(0), np.ones(0))


@pytest.mark.parametrize("kind, y, yhat", [
    ("rmse", [1e200, 0.0], [0.0, 0.0]),  # the squared error passes the float64 range
    ("mae", [1e308, 0.0], [-1e308, 0.0]),  # the error itself does
])
def test_overflowing_loss_is_an_error(kind, y, yhat):
    with pytest.raises(NonFiniteLoss, match=f"the {kind} loss overflows"):
        loss(kind, np.array(y), np.array(yhat))


# ----------------------------------------------------------------- predict


def test_predict_checks_schema():
    m = LinearModel(0.0, [1.0], column_names=("a",))
    with pytest.raises(SchemaMismatch):
        predict(m, table_of(np.ones((2, 1)), names=("b",)))
    with pytest.raises(SchemaMismatch):
        predict(LinearModel(0.0, [1.0, 2.0]), table_of(np.ones((2, 1))))


def test_a_model_with_only_predict_explains_like_its_adapter():
    # column_names, expected_p() and label are optional: a class with only a
    # callable predict is a model, and zeros from it explain the same as
    # ConstantModel(0.0); its messages name it 'model'
    class Zeros:
        def predict(self, table):
            return np.zeros(table.n)

    class Nans:
        def predict(self, table):
            return np.full(table.n, np.nan)

    rng = np.random.default_rng(2)
    table = table_of(rng.standard_normal((30, 3)))
    y = rng.standard_normal(30)
    part = AspectPartition((("a", (0, 1)), ("b", (2,))))

    def documents(model):
        return (predict_aspects(model, table, table.row(0), 0.5, N=50).to_json(),
                group_importance(model, table, y, part, PermutationConfig("rmse", B=2)).to_json())

    assert documents(Zeros()) == documents(ConstantModel(0.0))
    with pytest.raises(AspectraError, match="model 'model' returned non-finite"):
        predict(Nans(), table)


def test_predict_rejects_non_finite_output():
    class Bad(ConstantModel):
        def predict(self, table):
            return np.full(table.n, np.nan)

    with pytest.raises(AspectraError):
        predict(Bad(0.0), table_of(np.ones((2, 1))))


def _returning(raw):
    class Fixed(ConstantModel):
        def predict(self, table):
            return raw

    return Fixed(0.0, label="fixed-output")


@pytest.mark.parametrize("raw", [
    ["1.5", "oops"],
    {"a": 1.0, "b": 2.0},
    np.array([1.0 + 2.0j, 3.0 + 0.0j]),
    [[1.0, 2.0], [3.0]],
], ids=["str", "dict", "complex", "ragged"])
def test_predict_rejects_output_that_is_not_real_numbers(raw):
    # a complex array would otherwise lose its imaginary part with only a
    # ComplexWarning, and the rest would escape as raw numpy errors
    with pytest.raises(AspectraError, match="fixed-output"):
        predict(_returning(raw), table_of(np.ones((2, 1))))


@pytest.mark.parametrize("raw", [[True, False], np.array([3, -1], dtype=np.int8)],
                         ids=["bool", "int8"])
def test_predict_converts_booleans_and_integers(raw):
    out = predict(_returning(raw), table_of(np.ones((2, 1))))
    assert out.dtype == np.float64
    assert out.tolist() == np.asarray(raw, dtype=np.float64).tolist()



@pytest.mark.parametrize("raw, shape", [
    (np.ones((2, 2)), "(2, 2)"),
    (np.ones((1, 4)), "(1, 4)"),
    (np.ones((4, 1, 1)), "(4, 1, 1)"),
    (np.ones(3), "(3,)"),
    (np.float64(1.0), "()"),
], ids=["square", "row", "3d-column", "short", "scalar"])
def test_predict_rejects_output_of_another_shape(raw, shape):
    # the right number of values in the wrong shape is not one value per row
    with pytest.raises(SchemaMismatch, match=re.escape(f"shape {shape} for 4 rows")):
        predict(_returning(raw), table_of(np.ones((4, 1))))


def test_predict_takes_a_vector_or_a_column():
    for raw in (np.arange(4.0), np.arange(4.0).reshape(4, 1), [[0.0], [1.0], [2.0], [3.0]]):
        out = predict(_returning(raw), table_of(np.ones((4, 1))))
        assert out.shape == (4,) and out.tolist() == [0.0, 1.0, 2.0, 3.0]


# -------------------------------------------------------------- subprocess


def test_subprocess_echo_column_1():
    with SubprocessModel(child_cmd("first")) as m:
        out = m.predict(table_of([[7.0], [8.0]]))
    assert out.tolist() == [7.0, 8.0]


def test_subprocess_sum_bit_exact():
    # the shortest repr of each double must round-trip it exactly
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3))
    with SubprocessModel(child_cmd("sum")) as m:
        out = m.predict(table_of(X))
    expected = [float(sum(row.tolist())) for row in X]
    assert out.tolist() == expected


def test_subprocess_first_echoes_edge_doubles_bit_for_bit():
    X = [[-0.0, 1.0], [5e-324, 1.0], [1.7976931348623157e308, 1.0], [0.1, 1.0], [1 / 3, 1.0],
         [0.0, 1.0]]
    with SubprocessModel(child_cmd("first")) as m:
        out = m.predict(table_of(X))
    expected = np.array([row[0] for row in X])
    assert out.tobytes() == expected.tobytes()  # bit for bit, the sign of zero too
    assert np.signbit(out).tolist() == [True, False, False, False, False, False]


def test_subprocess_serves_multiple_batches():
    with SubprocessModel(child_cmd("constant")) as m:
        a = m.predict(table_of([[1.0]]))
        b = m.predict(table_of([[2.0], [3.0]]))
    assert a.tolist() == [3.25]
    assert b.tolist() == [3.25, 3.25]


def test_subprocess_large_batch_no_deadlock():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20_000, 8))  # well past a pipe buffer
    with SubprocessModel(child_cmd("first")) as m:
        out = m.predict(table_of(X))
    assert np.array_equal(out, X[:, 0])


def _predict_in_time(m, table, timeout=60):
    """m.predict(table), failing the test if it takes longer than `timeout` s.

    The call runs in a helper thread; a call that hangs, say because the
    request and the answers block each other, has its child killed, which
    ends it, instead of hanging the suite.
    """
    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(m.predict, table)
        try:
            return future.result(timeout)
        except FutureTimeout:
            m._proc.kill()  # ends the blocked read and write, so the call returns
            pytest.fail(f"predict did not finish within {timeout} s")


def test_subprocess_request_bytes_match_one_formatted_string(tmp_path):
    # a batch of several chunks and a partial one; the streamed request must
    # be the bytes of the header plus every row formatted as one string
    edges = [-0.0, 5e-324, 1e-300, 1e16, 0.1, -1.5e308]
    n = 3 * models._CHUNK_ROWS + 5
    X = [[edges[(i + j) % 6] for j in range(6)] + [i / 7] for i in range(n)]
    record = tmp_path / "request.bin"
    with SubprocessModel(child_cmd("record") + [str(record)]) as m:
        out = _predict_in_time(m, table_of(X))
    assert out.tolist() == [sum(row) for row in X]
    expected = (f"PREDICT {n} 7\nx0,x1,x2,x3,x4,x5,x6\n"
                + "\n".join(",".join(map(repr, row)) for row in X) + "\n")
    assert record.read_bytes() == expected.encode()


def test_subprocess_streaming_child_large_batch_no_deadlock():
    # the child answers each row as it reads it, so its answers (~80 kB)
    # fill the output pipe while the ~2.5 MB request is still being written
    X = np.random.default_rng(6).standard_normal((4000, 32))
    with SubprocessModel(child_cmd("stream")) as m:
        out = _predict_in_time(m, table_of(X))
    assert out.tolist() == [sum(row) for row in X.tolist()]


def test_subprocess_child_starts_when_the_model_is_built():
    with SubprocessModel(child_cmd("sum")) as m:
        proc = m._proc
        assert proc.poll() is None  # running before any predict
    assert proc.returncode is not None  # closing reaped it
    assert proc.stdout.closed
    assert m._proc is None


def test_subprocess_child_dies():
    with SubprocessModel(child_cmd("die")) as m:
        with pytest.raises(SubprocessFailure):
            m.predict(table_of([[1.0]]))


def test_subprocess_short_output():
    with SubprocessModel(child_cmd("short")) as m:
        with pytest.raises(SubprocessFailure, match="got 1 before EOF"):
            m.predict(table_of([[1.0], [2.0]]))


def test_subprocess_garbage_output():
    with SubprocessModel(child_cmd("garbage")) as m:
        with pytest.raises(SubprocessFailure, match="non-numeric"):
            m.predict(table_of([[1.0]]))


def test_subprocess_nan_answer_fails_the_batch():
    # "nan" parses as a float, so only the finiteness check catches it
    with SubprocessModel(child_cmd("nan")) as m:
        with pytest.raises(SubprocessFailure, match="non-finite prediction value"):
            m.predict(table_of([[1.0], [2.0]]))
        with pytest.raises(SubprocessFailure, match="stopped after a failed batch: non-finite"):
            m.predict(table_of([[0.0]]))


@pytest.mark.parametrize("mode", ["garbage-first", "garbage", "short", "die"])
def test_subprocess_failed_batch_stops_the_child(mode):
    # garbage-first leaves the answers 20.0 and 200.0 in the pipe; a later
    # call must fail instead of returning them as its own predictions
    with SubprocessModel(child_cmd(mode)) as m:
        with pytest.raises(SubprocessFailure):
            m.predict(table_of([[1.0], [20.0], [200.0]]))
        with pytest.raises(SubprocessFailure, match="stopped after a failed batch"):
            m.predict(table_of([[0.0], [0.0]]))


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
def test_subprocess_rejects_protocol_breaking_column_names(name):
    with SubprocessModel(child_cmd("first")) as m:
        with pytest.raises(SchemaMismatch, match="line protocol"):
            m.predict(table_of([[7.0]], names=(name,)))
        # rejected before anything was sent: the child is still alive and
        # in step, so the next batch gets its own answer
        assert m._proc.poll() is None
        assert m._stop_reason is None
        assert m.predict(table_of([[7.0]])).tolist() == [7.0]


def test_subprocess_close_kills_a_child_that_ignores_eof(monkeypatch):
    monkeypatch.setattr(models, "_CLOSE_TIMEOUT_S", 0.5)
    m = SubprocessModel(child_cmd("linger"))
    assert m.predict(table_of([[1.0, 2.0]])).tolist() == [3.0]
    proc = m._proc
    with pytest.raises(SubprocessFailure, match="killed"):
        m.close()
    assert proc.poll() is not None  # killed and reaped, not left running
    assert proc.stdout.closed
    assert m._proc is None
    m.close()  # nothing left to close


def test_subprocess_bad_line_while_the_request_is_still_being_written():
    # ~3 MB of rows fill the pipe many times over and the child reads one,
    # so the writer thread is blocked in a write when "garbage" arrives: the
    # failed batch must kill the child before it waits for the writer
    X = np.random.default_rng(7).standard_normal((20_000, 8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with SubprocessModel(child_cmd("partial-then-garbage")) as m:
            proc = m._proc
            with pytest.raises(SubprocessFailure, match="non-numeric prediction line: 'garbage'"):
                _predict_in_time(m, table_of(X))
            assert proc.returncode is not None
            assert proc.stdin.closed and proc.stdout.closed
            with pytest.raises(SubprocessFailure, match="stopped after a failed batch") as failure:
                m.predict(table_of(X[:2]))
            assert str(failure.value).count("external model failed:") == 1
        del m, proc, failure
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_subprocess_request_the_child_never_reads_is_a_write_failure():
    # all n answers arrive, but the child exits with ~1 MB of the request,
    # far more than a pipe holds, still unwritten: the batch fails
    X = np.random.default_rng(8).standard_normal((6000, 8))
    with SubprocessModel(child_cmd("answer-unread")) as m:
        with pytest.raises(SubprocessFailure, match="write failed: .*Broken pipe"):
            _predict_in_time(m, table_of(X))
        with pytest.raises(SubprocessFailure, match="stopped after a failed batch: write failed"):
            m.predict(table_of(X[:1]))


def test_subprocess_with_block_left_by_an_exception_after_close():
    with pytest.raises(RuntimeError, match="after close"):
        with SubprocessModel(child_cmd("sum")) as m:
            m.close()
            raise RuntimeError("after close")
    assert m._proc is None
    with pytest.raises(SubprocessFailure, match="the model is closed"):
        m.predict(table_of([[1.0]]))


def test_subprocess_close_waits_for_a_slow_child_and_kills_nothing(popens):
    # the child exits 0 a pause after its input ends; close must wait for
    # that exit, and then end it without a kill
    with SubprocessModel(child_cmd("slow")) as m:
        assert m.predict(table_of([[1.0, 2.0]])).tolist() == [3.0]
    assert popens[0].returncode == 0
    assert popens[0].stdout.closed and popens[0].stdin.closed


def test_subprocess_missing_binary():
    with pytest.raises(SubprocessFailure, match="cannot start"):
        SubprocessModel(["/no/such/binary"])  # fails when built, not at the first predict


@pytest.fixture
def popens(monkeypatch):
    """Every process that subprocess.Popen starts during the test."""
    started = []
    real = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(models.subprocess, "Popen", recording)
    return started


@pytest.mark.parametrize("end, mode, message", [
    ("close", "sum", "the model is closed"),
    ("failed batch", "garbage", "stopped after a failed batch: non-numeric prediction line"),
    ("child exit", "once",
     "stopped after a failed batch: expected 1 prediction lines, got 0 before EOF"),
])
def test_subprocess_never_starts_a_second_child(end, mode, message, popens):
    with SubprocessModel(child_cmd(mode)) as m:
        if end == "failed batch":
            with pytest.raises(SubprocessFailure):
                m.predict(table_of([[1.0, 2.0]]))
        else:
            assert m.predict(table_of([[1.0, 2.0]])).tolist() == [3.0]
        if end == "close":
            m.close()
        elif end == "child exit":  # the child answered one batch and exited 0
            with pytest.raises(SubprocessFailure, match="got 0 before EOF"):
                m.predict(table_of([[1.0, 2.0]]))
        for _ in range(2):
            with pytest.raises(SubprocessFailure, match=message) as failure:
                m.predict(table_of([[1.0, 2.0]]))
            assert str(failure.value).count("external model failed:") == 1
    assert len(popens) == 1
    assert popens[0].returncode is not None  # reaped
    assert popens[0].stdout.closed and popens[0].stdin.closed


def test_subprocess_an_error_in_its_with_block_kills_the_child_at_once(popens):
    assert models._CLOSE_TIMEOUT_S >= 2  # a close would wait longer than the bound below
    start = time.perf_counter()
    with pytest.raises(KeyError):
        with SubprocessModel(child_cmd("linger")) as m:
            assert m.predict(table_of([[1.0, 2.0]])).tolist() == [3.0]
            raise KeyError("the caller's own error")
    assert time.perf_counter() - start < 2
    assert len(popens) == 1
    assert popens[0].returncode is not None
    assert popens[0].stdout.closed and popens[0].stdin.closed
    with pytest.raises(SubprocessFailure, match="the model is closed"):
        m.predict(table_of([[1.0, 2.0]]))


def test_subprocess_rejects_shell_string():
    with pytest.raises(AspectraError):
        SubprocessModel("python3 child.py sum")
    # an argument that is not a str once raised a bare TypeError from the label's join
    for command in ([5], ["/bin/true", 3]):
        with pytest.raises(AspectraError, match=r"command\[\d\] must be str, got int"):
            SubprocessModel(command)


def test_subprocess_rejects_an_empty_argv():
    with pytest.raises(AspectraError, match="empty argv"):
        SubprocessModel([])


# ------------------------------------------------------ stacked model calls


def stack(count, budget):
    """Run `_stacked_predictions` over rows 0 ... count - 1, row r being
    (r, r mod 3), under a model scoring 1000 r + r mod 3. Returns the model,
    each write's start and row count, and each call's start and a copy of
    its predictions."""
    model = RecordingModel(LinearModel(0.0, [1000.0, 1.0]))
    buffer = np.empty((budget, 2))
    writes = []

    def write(start, out):
        # the buffer's first rows, C-contiguous
        assert out.flags.c_contiguous and out.dtype == np.float64
        assert out.base is buffer and out.ctypes.data == buffer.ctypes.data
        writes.append((start, out.shape[0]))
        rows = np.arange(start, start + out.shape[0])
        out[:, 0], out[:, 1] = rows, rows % 3

    calls = [(start, scored.copy()) for start, scored
             in _stacked_predictions(model, ("r", "m"), buffer, count, write)]
    return model, writes, calls


@pytest.mark.parametrize("seed", range(20))
def test_stacking_never_splits_an_item_and_fills_each_call(seed):
    rng = np.random.default_rng(seed)
    budget = int(rng.integers(1, 9))
    # every third seed takes fewer rows than a budget of at least 2, the
    # next an exact multiple of the budget, the next any count
    if seed % 3 == 0:
        budget = int(rng.integers(2, 9))
        count = int(rng.integers(1, budget))
    elif seed % 3 == 1:
        count = budget * int(rng.integers(1, 5))
    else:
        count = int(rng.integers(1, 40))
    model, writes, calls = stack(count, budget)
    n_calls = -(-count // budget)
    assert len(calls) == len(writes) == model.calls == n_calls
    # every call but the last holds exactly the budget, and the last the rest
    sizes = [budget] * (n_calls - 1) + [count - budget * (n_calls - 1)]
    assert writes == [(k * budget, size) for k, size in enumerate(sizes)]
    assert [start for start, _ in calls] == [k * budget for k in range(n_calls)]
    assert [table.shape[0] for table in model.tables] == sizes
    # the calls concatenate to rows 0 ... count - 1, in order, and each
    # call's predictions follow its rows
    rows = np.arange(count)
    np.testing.assert_array_equal(np.concatenate(model.tables),
                                  np.column_stack([rows, rows % 3]))
    np.testing.assert_array_equal(np.concatenate([got for _, got in calls]),
                                  1000.0 * rows + rows % 3)
