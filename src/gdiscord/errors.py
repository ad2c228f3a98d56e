"""Exception types shared across the package."""


class GDiscordError(Exception):
    """Base class for every error raised by this library."""


class DomainError(GDiscordError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalFailure(GDiscordError):
    """A computation lost enough precision that its result cannot be trusted."""


class InvalidChannelParams(GDiscordError):
    """Channel parameters violate complete positivity (requires eta >= |1 - tau|)."""


class OutOfFamily(GDiscordError):
    """No EPR-plus-local-channel decomposition exists for the given state."""


class ValidationError(GDiscordError):
    """Malformed or inconsistent user input (JSON payloads, CLI values)."""
