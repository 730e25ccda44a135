"""Exception types shared across the package."""


class UnitprodError(Exception):
    """Base class for all package-specific errors."""


class NotCoprime(UnitprodError):
    """An operation required coprime arguments and did not get them."""


class ModuliNotCoprime(UnitprodError):
    """Congruences were combined whose moduli share a factor."""


class SearchExhausted(UnitprodError):
    """A prime search hit its step cap before finding a prime."""


class InputTooLarge(UnitprodError):
    """An exact computation would exceed its scan budget."""


class NoCandidate(UnitprodError):
    """No admissible fraction exists for the given constraints."""


class EscalationExhausted(UnitprodError):
    """Chain construction failed at the faithful floor, where no step can fail."""


class CongruenceViolated(UnitprodError):
    """A lift was attempted at a prime outside the required residue class."""


class BudgetExceeded(UnitprodError):
    """An enumeration would produce more points than the budget allows."""


class CertificateFormatError(UnitprodError):
    """A certificate document could not be parsed."""
