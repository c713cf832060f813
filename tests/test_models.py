import numpy as np
import pytest
from scipy.spatial.distance import cdist

from aspectra import (
    ConstantModel,
    NumericTable,
    SchemaMismatch,
    SubprocessFailure,
    SubprocessModel,
    fit_knn,
    fit_linear,
)
from aspectra import models
from aspectra.errors import AspectraError, BadK, LengthMismatch, RankDeficient
from aspectra.models import KnnModel, LinearModel, loss, predict

from conftest import child_cmd


def table_of(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"x{i}" for i in range(values.shape[1]))
    return NumericTable(tuple(names), values)


# ------------------------------------------------------------ linear + knn


def test_linear_model_predicts_affine():
    m = LinearModel(1.0, [2.0, -3.0])
    t = table_of([[1.0, 1.0], [0.0, 2.0]])
    assert m.predict(t).tolist() == [0.0, -5.0]


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


def test_fit_linear_length_mismatch():
    with pytest.raises(LengthMismatch):
        fit_linear(table_of(np.ones((5, 1))), np.ones(4))


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
], ids=["1-d", "3-d", "no-columns", "nan-row", "inf-row", "nan-target", "inf-target"])
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


def test_constant_model():
    m = ConstantModel(2.5)
    assert m.predict(table_of(np.zeros((3, 2)))).tolist() == [2.5, 2.5, 2.5]


# -------------------------------------------------------------------- loss


def test_loss_oracles():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.array([2.0, 2.0, 1.0])
    assert loss("rmse", y, yhat) == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-15)
    assert loss("mae", y, yhat) == pytest.approx(1.0, abs=1e-15)
    assert loss("rmse", y, y) == 0.0


def test_loss_validation():
    with pytest.raises(AspectraError):
        loss("mse", np.ones(2), np.ones(2))
    with pytest.raises(LengthMismatch):
        loss("rmse", np.ones(2), np.ones(3))


# ----------------------------------------------------------------- predict


def test_predict_checks_schema():
    m = LinearModel(0.0, [1.0], column_names=("a",))
    with pytest.raises(SchemaMismatch):
        predict(m, table_of(np.ones((2, 1)), names=("b",)))
    with pytest.raises(SchemaMismatch):
        predict(LinearModel(0.0, [1.0, 2.0]), table_of(np.ones((2, 1))))


def test_predict_check_determinism_passes_for_pure_model():
    m = LinearModel(0.0, [1.0])
    t = table_of(np.ones((3, 1)))
    assert predict(m, t, check_determinism=True).tolist() == [1.0, 1.0, 1.0]


def test_predict_rejects_non_finite_output():
    class Bad(ConstantModel):
        def predict(self, table):
            return np.full(table.n, np.nan)

    with pytest.raises(AspectraError):
        predict(Bad(0.0), table_of(np.ones((2, 1))))


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


def test_subprocess_child_dies():
    with SubprocessModel(child_cmd("die")) as m:
        with pytest.raises(SubprocessFailure):
            m.predict(table_of([[1.0]]))


def test_subprocess_short_output():
    with SubprocessModel(child_cmd("short")) as m:
        with pytest.raises(SubprocessFailure, match="EOF"):
            m.predict(table_of([[1.0], [2.0]]))


def test_subprocess_garbage_output():
    with SubprocessModel(child_cmd("garbage")) as m:
        with pytest.raises(SubprocessFailure, match="non-numeric"):
            m.predict(table_of([[1.0]]))


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
    m = SubprocessModel(child_cmd("first"))
    with pytest.raises(SchemaMismatch, match="line protocol"):
        m.predict(table_of([[7.0]], names=(name,)))
    assert m._proc is None  # rejected before the child was started
    with m:
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


def test_subprocess_missing_binary():
    m = SubprocessModel(["/no/such/binary"])
    with pytest.raises(SubprocessFailure):
        m.predict(table_of([[1.0]]))


def test_subprocess_rejects_shell_string():
    with pytest.raises(AspectraError):
        SubprocessModel("python3 child.py sum")


def test_subprocess_rejects_an_empty_argv():
    with pytest.raises(AspectraError, match="empty argv"):
        SubprocessModel([])
