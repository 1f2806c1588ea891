"""Exception types shared across the package."""


class HomconeError(Exception):
    """Base class for all package errors."""


class PatternError(HomconeError):
    """Invalid sparsity pattern (self-loop, duplicate edge, bad index)."""


class OrderingError(HomconeError):
    """Ordering is not a bijection, wrong size, or violates a precondition."""


class StructuralError(HomconeError):
    """Matrix entry or operation outside the sparsity pattern."""


class _NodeFailure(HomconeError):
    """A factorization failed: ``node`` is the 0-based position where it
    failed, ``value`` its nonpositive pivot.  Given ``locate`` in their
    place, a function returning the two, they are found when first read,
    or when the message is: a caller that only tests membership never
    pays for the search."""

    _what = "pivot"

    def __init__(self, node: int = -1, value: float = float("nan"), locate=None):
        super().__init__()
        self._at = None if locate else (node, value)
        self._locate = locate

    def _found(self) -> tuple:
        if self._at is None:
            self._at = self._locate()
        return self._at

    @property
    def node(self) -> int:
        return self._found()[0]

    @property
    def value(self) -> float:
        return self._found()[1]

    def __str__(self) -> str:
        return f"nonpositive {self._what} {self.value:.3e} at node {self.node}"

    def __reduce__(self):
        # ``locate`` may be a closure, which pickle cannot carry
        return type(self), (self.node, self.value)


class NotPositiveDefinite(_NodeFailure):
    """Cholesky pivot failed; the matrix is not in the interior of the
    sparse PSD cone."""


class NotCompletable(_NodeFailure):
    """No positive definite completion exists; the matrix is not in the
    interior of the completable cone.  ``value`` is the Schur complement."""

    _what = "Schur complement"


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
