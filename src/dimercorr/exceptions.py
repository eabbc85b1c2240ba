"""Exception types shared across the package.

Both derive from ValueError so callers that only care about "bad input"
can catch one class; the CLI maps them to distinct exit codes.
"""


class ValidationError(ValueError):
    """A matrix failed a physical-contract check (Hermiticity, trace, positivity)."""


class DomainError(ValueError):
    """A parameter lies outside the supported physical domain."""

