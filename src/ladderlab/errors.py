"""Exception types shared across the package."""


class LadderError(Exception):
    """Base class for all domain errors raised by ladderlab."""


class DomainTooLarge(LadderError):
    """An exhaustive sweep was requested over a modulus above the guard."""


class NoConstantExists(LadderError):
    """No suitable ladder constant exists (or sampling gave up) for (a, n)."""


class NotCoprime(LadderError):
    """An argument required to be a unit modulo p is not."""


class NotOnCurve(LadderError):
    """A point handed to the group law does not satisfy the curve equation."""


class InvalidCoefficient(LadderError):
    """A ladder coefficient violates its invertibility/exclusion constraints."""


class Coincidence(LadderError):
    """An injected fault left every register unchanged after the retry budget."""
