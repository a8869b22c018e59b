"""Exception types shared across the toolkit."""

from __future__ import annotations


class EpsDeltaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EpsDeltaError):
    """A point lies outside a function's domain, or evaluation blew up there."""


class ParseError(EpsDeltaError):
    """A function spec, expression, or target-set string failed to parse.

    Carries the character position of the failure and, when known, what
    token would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} (at position {position}"
        if expected is not None:
            detail += f", expected {expected}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class EmptyLevelSet(EpsDeltaError):
    """No pair of sample points attains the requested value gap."""


class OutOfRange(EpsDeltaError):
    """A parameter is outside the range where the requested formula holds."""


class UnsupportedFamily(EpsDeltaError):
    """The requested operation has no closed form for this function family."""


class PreconditionViolated(EpsDeltaError):
    """Endpoint values do not satisfy the bracketing requirement."""


class NotSelfMap(EpsDeltaError):
    """A function escapes its own domain; carries a witness point.

    ``witness`` is a ``(x, fx)`` pair with ``fx`` outside the domain.
    """

    def __init__(self, message: str, witness: tuple[float, float]):
        super().__init__(message)
        self.witness = witness


class LevelTooLarge(EpsDeltaError):
    """An input would exceed a supported point budget: 2^MAX_NET_LEVEL + 1
    points for a dyadic net level or a grid resolution, MAX_METRIC_POINTS
    for a distance matrix checked for the triangle inequality, and
    cli.MAX_ENVELOPE_ROWS (2^22 + 1) rows for an envelope the CLI prints."""
