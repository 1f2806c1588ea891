"""Exception types shared across the package."""


class HomconeError(Exception):
    """Base class for all package errors."""


class PatternError(HomconeError):
    """Invalid sparsity pattern (self-loop, duplicate edge, bad index)."""


class OrderingError(HomconeError):
    """Ordering is not a bijection, wrong size, or violates a precondition."""


class StructuralError(HomconeError):
    """Matrix entry or operation outside the sparsity pattern."""


class NotPositiveDefinite(HomconeError):
    """Cholesky pivot failed; the matrix is not in the interior of the
    sparse PSD cone.  ``node`` is the 0-based position where it failed."""

    def __init__(self, node: int, value: float = float("nan")):
        self.node = node
        self.value = value
        super().__init__(f"nonpositive pivot {value:.3e} at node {node}")


class NotCompletable(HomconeError):
    """No positive definite completion exists; the matrix is not in the
    interior of the completable cone.  ``node`` is where the test failed."""

    def __init__(self, node: int, value: float = float("nan")):
        self.node = node
        self.value = value
        super().__init__(f"nonpositive Schur complement {value:.3e} at node {node}")


class SingularFactor(HomconeError):
    """Triangular matrix has a zero diagonal entry in ``column``."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"zero diagonal in column {column}")


class NonpositiveCurvature(HomconeError):
    """The primal and dual displacement directions have nonpositive inner
    product, which cannot happen for a genuine interior pair."""


class SingularNormalMatrix(HomconeError):
    """Normal matrix not numerically positive definite; the message says
    whether the constraints are dependent or the iterates degenerated."""


class ParseError(HomconeError):
    """Malformed input file.  Carries a human-readable location."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
