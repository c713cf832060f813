"""Exception hierarchy for aspectra.

Every error raised by the library derives from AspectraError so callers
(and the CLI) can distinguish computation failures from genuine bugs.
"""


class AspectraError(Exception):
    """Base class for all aspectra errors."""


# --- dataset ingestion ---------------------------------------------------


class NonNumericCell(AspectraError):
    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"cell at data row {row}, column {column!r} is not a finite number: {value!r}"
        )


class DuplicateColumn(AspectraError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate column name: {name!r}")


class MissingTarget(AspectraError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"target column {name!r} not found in header")


class EmptyTable(AspectraError):
    def __init__(self, detail: str = "table has no rows or no columns"):
        super().__init__(detail)


# --- partitions ----------------------------------------------------------


class OverlappingGroups(AspectraError):
    def __init__(self, indices):
        self.indices = sorted(indices)
        super().__init__(f"column indices appear in more than one group: {self.indices}")


class NotCovering(AspectraError):
    def __init__(self, indices):
        self.indices = sorted(indices)
        super().__init__(f"column indices missing from every group: {self.indices}")


class EmptyGroup(AspectraError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"group {name!r} has no members")


class UnknownColumn(AspectraError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown column name: {name!r}")


# --- correlation / clustering --------------------------------------------


class ZeroVarianceColumn(AspectraError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} has zero variance; correlation is undefined")


# --- models ----------------------------------------------------------------


class RankDeficient(AspectraError):
    def __init__(self, detail: str = "design matrix is rank deficient"):
        super().__init__(detail)


class BadK(AspectraError):
    def __init__(self, k: int, n: int):
        super().__init__(f"k must satisfy 1 <= k <= n rows; got k={k}, n={n}")


class SchemaMismatch(AspectraError):
    def __init__(self, detail: str):
        super().__init__(detail)


class SubprocessFailure(AspectraError):
    def __init__(self, detail: str):
        super().__init__(f"external model failed: {detail}")
        self.detail = detail


class LengthMismatch(AspectraError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"vector length mismatch: expected {expected}, got {got}")


# --- importance ------------------------------------------------------------


class BadIndex(AspectraError):
    def __init__(self, index: int, p: int):
        super().__init__(f"column index {index} out of range for p={p}")


class SingularDesign(AspectraError):
    def __init__(self, detail: str):
        super().__init__(
            f"surrogate design is singular ({detail}); increase the sample size N "
            "or revisit the aspect partition"
        )


class NonFiniteLoss(AspectraError):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(
            f"the {kind} loss overflows to a non-finite number; "
            "rescale the target and the model's predictions"
        )


class NonFiniteDistance(AspectraError):
    def __init__(self):
        super().__init__(
            "a squared k-NN distance overflows to a non-finite number, so the nearest "
            "neighbours cannot be ranked; rescale the columns"
        )


class NonFiniteShift(AspectraError):
    def __init__(self):
        super().__init__(
            "the prediction shifts f(A') - f(A) or their sums overflow to a non-finite "
            "number; rescale the model's predictions"
        )


class LassoNotConverged(AspectraError):
    def __init__(self, lam: float, sweeps: int):
        self.lam = lam
        self.sweeps = sweeps
        super().__init__(
            f"lasso coordinate descent did not converge at lambda={lam!r} "
            f"within {sweeps} sweeps"
        )
