"""Exception types shared across the package.

The CLI maps these onto exit codes: anything that means "your input is
malformed or the operation cannot run" exits 2, while negative mathematical
verdicts (validation failed, not canonical, ...) are ordinary results and
exit 1 without raising.
"""


class GoodsemiError(Exception):
    """Base class for everything raised by this package."""


class DimensionMismatch(GoodsemiError, ValueError):
    """Two lattice objects with different branch counts were combined."""


class FrameError(GoodsemiError, ValueError):
    """A finite ideal representation violates its invariants."""


class NotCertifiedError(GoodsemiError):
    """An operation demanded a validated-good input and did not get one.

    Carries the offending validation report in ``report`` when available.
    """

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class InclusionError(GoodsemiError):
    """A required containment (E subset of F, S subset of S') fails."""


class CapExceededError(GoodsemiError):
    """Chain enumeration grew beyond the configured cap."""


class MetricError(GoodsemiError):
    """Distance requested on a frame without the equal-chain-length property."""


class TruncationError(GoodsemiError):
    """A power-series computation could not be trusted at the working order."""


class ParseError(GoodsemiError, ValueError):
    """A text input failed to parse; carries position info for diagnostics.

    ``filename`` names the input: a file, or a command-line argument such
    as ``argument start``.
    """

    def __init__(self, msg, line=None, col=None, filename=None):
        self.line = line
        self.col = col
        self.filename = filename
        where = filename or "<input>"
        if line is not None:
            where += f":{line}"
            if col is not None:
                where += f":{col}"
        super().__init__(f"{where}: {msg}")
