"""Exception types shared across the package."""


class DpoptError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DpoptError):
    """Malformed configuration input; carries line/key context when known."""

    def __init__(self, message, line=None, key=None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if key is not None:
            ctx.append(f"key {key!r}")
        if ctx:
            message = f"{message} ({', '.join(ctx)})"
        super().__init__(message)
        self.line = line
        self.key = key


class ConnectivityError(DpoptError):
    """Graph lacks the connectivity required by the weight constructor."""


class SpectralError(DpoptError):
    """Weight matrix fails a spectral requirement (no contraction)."""


class StructureError(DpoptError):
    """Weight matrix has a degenerate null-space structure."""


class RangeError(DpoptError):
    """A scalar argument is outside the admissible range."""


class ConditionError(DpoptError):
    """A validated precondition on schedules does not hold."""


class DegenerateProblemError(DpoptError):
    """Optimization problem has no unique minimizer."""
