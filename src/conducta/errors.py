"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: configuration and file-format
problems are validation errors (exit 1), solver non-convergence is exit 2.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed phase-config input.  Carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GridFormatError(ValueError):
    """Grid file with a bad magic number, version, or inconsistent sizes."""


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach its target residual.

    The last relative residual and the iteration count are kept so callers
    can report them.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations
