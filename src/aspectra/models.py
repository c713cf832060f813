"""Prediction-function contract, reference models, losses and the subprocess bridge.

Any object with a `predict(NumericTable) -> vector` method and a `label`
works as a model; the two reference models here keep the test suite free of
external ML dependencies, and SubprocessModel runs models from any ecosystem
over a line protocol on stdin/stdout.
"""

from __future__ import annotations

import contextlib
import subprocess
import threading

import numpy as np

from . import _kernels
from .data import NumericTable
from .errors import (
    AspectraError,
    BadK,
    LengthMismatch,
    NonFiniteLoss,
    RankDeficient,
    SchemaMismatch,
    SubprocessFailure,
)

LOSS_KINDS = ("rmse", "mae")

# how long close() waits for a child to exit after its stdin is closed
_CLOSE_TIMEOUT_S = 10.0
# rows per write of a request, so the child parses one chunk while the next is formatted
_CHUNK_ROWS = 64


class ModelAdapter:
    """Base contract: deterministic predict, finite real outputs, fixed schema.

    predict is called on batches of rows, and a row's prediction must not
    depend on the other rows in the batch: global importance stacks several
    permuted copies of the table into one call, up to 2**19 values, and a
    local explanation scores each distinct sampled row once and uses that
    prediction for every draw of the row. Likewise it scores each distinct
    (sampled row, replaced columns) pair once, and a local triplot scores
    such a pair at the first tree level that draws it, for every later
    level too. The table is read-only and may be a view of a buffer that
    the caller rewrites for its next call, so a model must neither keep the
    table nor write to it.
    """

    label: str = "model"
    column_names = None  # training schema; None skips the name check

    def predict(self, table: NumericTable) -> np.ndarray:
        raise NotImplementedError

    def expected_p(self):
        return len(self.column_names) if self.column_names is not None else None


class LinearModel(ModelAdapter):
    """Exact linear predictor: intercept + x . coefficients.

    The product is numpy's BLAS matrix-vector product. OpenBLAS (seen with
    0.3.31) computes rows in blocks of 4 and the last n mod 4 rows of an
    n-row table with another kernel, which may round them differently in the
    last bit. So predict scores those last rows again as a zero-padded block
    of 4, and a row's prediction does not depend on its position in the
    batch: a local explanation's distinct rows, and a triplot level's
    predictions taken from an earlier level's call, equal scoring every row
    of the design. A product large enough for OpenBLAS to split across
    threads (seen from 3000 rows of 200 values with two threads) may still
    round a row by its position. Results stay deterministic.
    """

    def __init__(self, intercept, coefficients, column_names=None, label="linear"):
        self.intercept = float(intercept)
        self.coefficients = np.asarray(coefficients, dtype=np.float64).reshape(-1)
        self.column_names = list(column_names) if column_names is not None else None
        self.label = label

    def expected_p(self):
        return self.coefficients.shape[0]

    def predict(self, table: NumericTable) -> np.ndarray:
        values = table.values
        # a product that overflows, or adds infinities of both signs, comes
        # out non-finite, which `predict` rejects
        with np.errstate(over="ignore", invalid="ignore"):
            out = values @ self.coefficients
            tail = values.shape[0] % 4
            if tail:
                block = np.zeros((4, values.shape[1]))
                block[:tail] = values[-tail:]
                out[-tail:] = (block @ self.coefficients)[:tail]
            out += self.intercept
        return out


class KnnModel(ModelAdapter):
    """k nearest neighbours regression, exhaustive euclidean scan.

    Predicts the mean target of the k training rows nearest to each query
    row; distance ties resolve to the lower training-row index. Query rows
    are scored in blocks: one matrix product of augmented operands and a
    per-row error bound screen out the training rows that cannot be among
    the k nearest, and exact distances are computed only for the rest. A
    row the screen cannot settle (a tie across the k-th place) is scored
    against every training row (see `_kernels.knn_predict`). The result is
    bit-identical to sorting each row's exact distances.
    The training rows must form a non-empty 2-D array of finite values, with
    one finite target per row. A query row whose k nearest squared distances
    pass the float64 range (columns spread by more than about 1e154) cannot
    be ranked and raises NonFiniteDistance; a mean of the k targets that
    overflows comes out infinite, which `predict` rejects.
    """

    def __init__(self, k, train_values, train_targets, column_names=None, label=None):
        self.k = int(k)
        # copies, so a caller's later writes cannot undo the checks below
        self.train_values = np.array(train_values, dtype=np.float64)
        self.train_targets = np.array(train_targets, dtype=np.float64).reshape(-1)
        if self.train_values.ndim != 2 or self.train_values.shape[1] < 1:
            raise AspectraError(
                f"training values must be a 2-D array with at least one column, "
                f"got shape {self.train_values.shape}"
            )
        if self.train_targets.shape[0] != self.train_values.shape[0]:
            raise LengthMismatch(self.train_values.shape[0], self.train_targets.shape[0])
        if not np.all(np.isfinite(self.train_values)):
            raise AspectraError("training values must be finite")
        if not np.all(np.isfinite(self.train_targets)):
            raise AspectraError("training targets must be finite")
        if not 1 <= self.k <= self.train_values.shape[0]:
            raise BadK(self.k, self.train_values.shape[0])
        self.column_names = list(column_names) if column_names is not None else None
        self.label = label or f"knn(k={self.k})"

    def expected_p(self):
        return self.train_values.shape[1]

    def predict(self, table: NumericTable) -> np.ndarray:
        return _kernels.knn_predict(self.train_values, self.train_targets, table.values, self.k)


class ConstantModel(ModelAdapter):
    """Predicts one fixed value for every row; handy for tests and baselines."""

    def __init__(self, value, column_names=None, label="constant"):
        self.value = float(value)
        self.column_names = list(column_names) if column_names is not None else None
        self.label = label

    def predict(self, table: NumericTable) -> np.ndarray:
        return np.full(table.n, self.value)


class SubprocessModel(ModelAdapter):
    """Bridge to an external model over a batched stdin/stdout line protocol.

    Per predict call the parent writes:
        PREDICT <n> <p>
        <comma-joined column names>
        <n lines of comma-joined decimal values>
    then flushes; the child must answer with exactly n lines, one decimal
    prediction each, and flush. The rows are written in chunks of 64 lines,
    so the child can parse the first rows while later ones are formatted.
    A column name holding a comma or a line break would corrupt the header,
    so such a table raises SchemaMismatch before anything is sent. Short or
    non-numeric output raises SubprocessFailure, never a silent coercion. A
    failed batch kills the child, because its pipe may still hold answers
    that a later call would read as its own. One child process serves all
    calls, so treat each instance as exclusive-access.

    The child starts when the model is built, so that it boots while the
    caller does other work; a command that cannot start raises
    SubprocessFailure there. Build the model in a `with` block or call
    close(). Once the model is closed or its child killed, predict raises
    SubprocessFailure; no second child is ever started. close() ends the
    child's input and waits 10 s for it to exit; a child still running then
    is killed, and close() raises SubprocessFailure. Leaving the `with`
    block by an exception kills the child at once.
    """

    def __init__(self, command, label=None):
        if isinstance(command, str):
            raise AspectraError("SubprocessModel takes an argv list, not a shell string")
        self.command = list(command)
        if not self.command:
            raise AspectraError("SubprocessModel needs a command, got an empty argv")
        self.label = label or " ".join(self.command)
        self.column_names = None
        self._stop_reason = None  # why predict raises, once the child no longer runs
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as e:
            raise SubprocessFailure(f"cannot start {self.command!r}: {e}") from None

    def predict(self, table: NumericTable) -> np.ndarray:
        for name in table.column_names:
            if any(c in name for c in ",\n\r"):
                raise SchemaMismatch(
                    f"column name {name!r} contains a comma or a line break, "
                    "which the line protocol cannot carry"
                )
        proc = self._proc
        if proc is None:
            raise SubprocessFailure(self._stop_reason)
        header = f"PREDICT {table.n} {table.p}\n" + ",".join(table.column_names) + "\n"
        rows = table.values.tolist()

        # Writer thread avoids a pipe-buffer deadlock with children that
        # stream output before consuming all input. The pipe is line
        # buffered, so each chunk reaches the child as soon as it is written.
        write_error = []

        def _write():
            try:
                proc.stdin.write(header)
                for start in range(0, len(rows), _CHUNK_ROWS):
                    # repr is the shortest string that parses back to the same double
                    proc.stdin.write("".join(
                        ",".join(map(repr, row)) + "\n"
                        for row in rows[start:start + _CHUNK_ROWS]
                    ))
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as e:
                write_error.append(e)

        writer = threading.Thread(target=_write)
        writer.start()
        try:
            out = np.empty(table.n)
            for i in range(table.n):
                line = proc.stdout.readline()
                if line == "":
                    raise SubprocessFailure(
                        f"expected {table.n} prediction lines, got {i} before EOF"
                    )
                try:
                    out[i] = float(line.strip())
                except ValueError:
                    raise SubprocessFailure(
                        f"non-numeric prediction line: {line.strip()!r}"
                    ) from None
            writer.join()
            if write_error:
                raise SubprocessFailure(f"write failed: {write_error[0]}")
            if not np.all(np.isfinite(out)):
                raise SubprocessFailure("non-finite prediction value")
        except BaseException as exc:
            # an interrupt mid-batch leaves the pipe in the same unknown state
            proc.kill()
            writer.join()  # the kill ends a blocked write; only then may the pipes close
            detail = exc.detail if isinstance(exc, SubprocessFailure) else str(exc)
            self._stop(f"child was stopped after a failed batch: {detail or type(exc).__name__}")
            raise
        return out

    def _stop(self, reason):
        """Kill the child, reap it and close its pipes; later predicts raise `reason`.

        This is the one place a child ends. A child already reaped gets no
        signal, so one that exited on its own keeps its exit code.
        """
        proc, self._proc = self._proc, None
        self._stop_reason = reason
        if proc is None:
            return
        proc.kill()
        proc.wait()
        with contextlib.suppress(OSError):  # the flush of a write the kill cut short
            proc.stdin.close()
        proc.stdout.close()

    def close(self):
        proc = self._proc
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()  # the end of its input asks the child to exit
        # Popen.wait with a timeout sleep-polls, which adds up to the last
        # sleep to every close; a blocking wait in a thread returns at the
        # exit, and the join bounds it
        waiter = threading.Thread(target=proc.wait, daemon=True)
        waiter.start()
        waiter.join(_CLOSE_TIMEOUT_S)
        timed_out = waiter.is_alive()
        self._stop("the model is closed")
        if timed_out:
            raise SubprocessFailure(
                f"child did not exit within {_CLOSE_TIMEOUT_S:g} s of its input "
                "closing, so it was killed"
            )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._stop("the model is closed")


def _finite_targets(y, n: int) -> np.ndarray:
    """y as a float64 vector of n finite values; raise otherwise."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != n:
        raise LengthMismatch(n, y.shape[0])
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise AspectraError(f"target y[{bad[0]}] is not a finite number: {y[bad[0]]!r}")
    return y


def fit_linear(table: NumericTable, y) -> LinearModel:
    """Ordinary least squares with intercept, via orthogonal decomposition.

    lstsq's rank tolerance grows with the largest singular value, so one
    column far larger than the others makes a full-rank design look short.
    Such a design is solved again with each column scaled by the power of
    two that brings its largest |x| into [1/2, 1), and the coefficients are
    scaled back; only a rank short there too, or a coefficient scaled back
    past the float64 range, raises RankDeficient.
    """
    y = _finite_targets(y, table.n)
    if table.n <= table.p:
        raise RankDeficient(f"need n > p rows, got n={table.n}, p={table.p}")
    design = np.column_stack([np.ones(table.n), table.values])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < table.p + 1:
        exponents = np.frexp(np.max(np.abs(design), axis=0))[1]
        coef, _, rank, _ = np.linalg.lstsq(np.ldexp(design, -exponents), y, rcond=None)
        with np.errstate(over="ignore"):  # rejected below
            coef = np.ldexp(coef, -exponents)
    if rank < table.p + 1:
        raise RankDeficient(f"design rank {rank} < {table.p + 1} columns")
    if not np.all(np.isfinite(coef)):
        raise RankDeficient("a coefficient is past the float64 range")
    return LinearModel(coef[0], coef[1:], column_names=table.column_names)


def fit_knn(table: NumericTable, y, k: int) -> KnnModel:
    return KnnModel(k, table.values, y, column_names=table.column_names)


def loss(kind: str, y, yhat) -> float:
    """rmse = sqrt(mean((y - yhat)^2)); mae = mean(|y - yhat|)."""
    if kind not in LOSS_KINDS:
        raise AspectraError(f"loss must be one of {LOSS_KINDS}, got {kind!r}")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if y.shape[0] != yhat.shape[0]:
        raise LengthMismatch(y.shape[0], yhat.shape[0])
    if y.shape[0] < 1:
        raise LengthMismatch(1, 0)
    return float(_row_losses(kind, y, yhat.reshape(1, -1))[0])


def _row_losses(kind: str, y: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    """The loss of each row of the (k, n) predictions `yhat` against the n targets `y`.

    Each row is reduced on its own, so a row's loss is the same for every k.
    `kind`, the shapes and the float64 dtype are the caller's to check. A
    loss that overflows, such as an RMSE whose squared errors pass the
    float64 range, raises NonFiniteLoss.
    """
    with np.errstate(over="ignore"):
        err = y - yhat
        if kind == "rmse":
            losses = np.sqrt(np.mean(err * err, axis=1))
        else:
            losses = np.mean(np.abs(err), axis=1)
    return _finite_losses(kind, losses)


def _finite_losses(kind: str, losses: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(losses)):
        raise NonFiniteLoss(kind)
    return losses


def predict(model: ModelAdapter, table: NumericTable) -> np.ndarray:
    """Call the model with schema and output-contract checks."""
    if model.column_names is not None and list(model.column_names) != list(table.column_names):
        raise SchemaMismatch(
            f"model was trained on columns {model.column_names}, got {table.column_names}"
        )
    expected = model.expected_p()
    if expected is not None and expected != table.p:
        raise SchemaMismatch(f"model expects p={expected} columns, got p={table.p}")
    raw = model.predict(table)
    try:
        out = np.asarray(raw)
    except ValueError as e:  # a ragged list
        raise AspectraError(f"model {model.label!r} returned unreadable predictions: {e}") from None
    # booleans and integers convert; strings, complex numbers and objects do not
    if out.dtype.kind not in "biuf":
        raise AspectraError(
            f"model {model.label!r} returned predictions of dtype {out.dtype}, not real numbers"
        )
    # one value per row, as a vector or a column; a flattened (2, 2) would
    # pass for 4 rows
    if out.shape not in ((table.n,), (table.n, 1)):
        raise SchemaMismatch(
            f"model {model.label!r} returned predictions of shape {out.shape} for {table.n} rows"
        )
    out = out.astype(np.float64, copy=False).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise AspectraError(f"model {model.label!r} returned non-finite predictions")
    return out
