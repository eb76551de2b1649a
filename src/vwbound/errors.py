"""Exception hierarchy shared across the toolkit.

Every error raised on a user-facing path derives from :class:`VWBoundError`
so callers (and the command line driver) can distinguish toolkit failures
from programming errors.  Errors carry enough context to be actionable:
byte offsets for parse failures, pivot indices for Cholesky breakdowns,
witness points for violated inequalities.
"""

from __future__ import annotations


class VWBoundError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# expression language


class ExprSyntaxError(VWBoundError):
    """Malformed expression text.

    Parameters
    ----------
    message : str
        What was expected.
    offset : int
        Byte offset into the source text where parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.reason = message


class UnknownIdentifier(VWBoundError):
    """Identifier is neither ``t``, a state variable, nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(VWBoundError):
    """Evaluation left the real domain (log/sqrt of a negative number,
    fractional power of a negative base, ...)."""

    def __init__(self, message: str, where: str = ""):
        text = message if not where else f"{message} in {where!r}"
        super().__init__(text)
        self.where = where


class DivisionByZero(VWBoundError):
    """Division by an exactly zero denominator during evaluation."""

    def __init__(self, where: str = ""):
        super().__init__(f"division by zero in {where!r}")
        self.where = where


class AsymmetricMatrix(VWBoundError, ValueError):
    """Mirrored entries ``(row, col)``, ``(col, row)`` (1-based, the first
    such pair) of a matrix declared symmetric differ as expressions."""

    def __init__(self, row: int, col: int):
        super().__init__(
            f"entries ({row}, {col}) and ({col}, {row}) of a symmetric "
            "matrix are not the same expression"
        )
        self.row = row
        self.col = col


class NotDifferentiable(VWBoundError):
    """Time derivative requested through ``abs`` of a time-dependent
    argument."""


# ---------------------------------------------------------------------------
# symmetric pencils


class NotPositiveDefinite(VWBoundError):
    """Cholesky factorization hit a nonpositive pivot; ``index`` is the
    failing matrix's position in a stack (None for a single matrix)."""

    def __init__(
        self,
        pivot: int,
        value: float,
        index: int | None = None,
        where: str | None = None,
    ):
        if where is None:
            where = "matrix" if index is None else f"matrix {index} of the stack"
        super().__init__(
            f"{where} is not positive definite: pivot {pivot} has "
            f"nonpositive value {value:.6g}"
        )
        self.pivot = pivot
        self.value = value
        self.index = index


class DegeneratePencil(VWBoundError):
    """An eigenvalue sits inside the degeneracy tolerance band around zero,
    or the signature changes across a stack, so the positive/negative
    splitting is not well defined; ``index`` is the offending matrix's
    position in a stack (None for a single matrix)."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message += f" (matrix {index} of the stack)"
        super().__init__(message)
        self.index = index


class EmptyPositiveSubspace(VWBoundError):
    """The guiding matrix has no positive eigenvalues, so there is no
    positive subspace to restrict to."""


# ---------------------------------------------------------------------------
# growth-pair calculus


class NoUpperBracket(VWBoundError):
    """The growth integral never reaches the requested value below the
    configured ceiling, so its inverse cannot be bracketed."""

    def __init__(self, z: float, vmax: float, reached: float):
        super().__init__(
            f"growth integral reaches only {reached:.6g} at ceiling "
            f"{vmax:.6g}; cannot invert at {z:.6g}"
        )
        self.z = z
        self.vmax = vmax
        self.reached = reached


class WindowExhausted(VWBoundError):
    """A quantity defined through an integral over the time window never
    reaches the required level inside the window."""


# ---------------------------------------------------------------------------
# certification


class InfeasibleConditionE(VWBoundError):
    """Constant fitting failed: some inequality in the rate-dominance
    condition (e) cannot hold with finite positive constants."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConditionGFailed(VWBoundError):
    """The restricted pencil has no positive characteristic value on the
    trailing part of the window, so the entry disks degenerate."""


class NotRetractable(VWBoundError):
    """The state has (numerically) no component in the positive subspace,
    so the retraction onto the exit shell is undefined."""


# ---------------------------------------------------------------------------
# integration and shooting


class StepSizeUnderflow(VWBoundError):
    """The step controller drove the step below the representable minimum;
    the solution is blowing up (or the problem is pathologically stiff)."""

    def __init__(self, t: float, x):
        super().__init__(f"step size underflow at t = {t:.9g}")
        self.t = t
        self.x = x


class NoSignChange(VWBoundError):
    """Both bracket endpoints exit on the same side of the positive
    subspace, so bisection cannot start.  Usually a sign of a modeling or
    certification inconsistency."""

    def __init__(self, message: str, side: float = 0.0):
        super().__init__(message)
        self.side = side


class BudgetExhausted(VWBoundError):
    """Subdivision search spent its classification budget without finding
    a trapped start.  Says nothing about existence."""


class NotConverged(VWBoundError):
    """The shooting sequence did not stabilize within the schedule."""

    def __init__(self, message: str, xi_sequence=None):
        super().__init__(message)
        self.xi_sequence = xi_sequence if xi_sequence is not None else []


# ---------------------------------------------------------------------------
# problem documents


class DocumentError(VWBoundError):
    """Problem document is malformed or incomplete."""

    def __init__(self, message: str, line: int = 0, key: str = ""):
        parts = [message]
        if line:
            parts.append(f"line {line}")
        if key:
            parts.append(f"key {key!r}")
        super().__init__(" — ".join(parts))
        self.line = line
        self.key = key
