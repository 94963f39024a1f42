"""Exception types shared across the package."""


class NormfreqError(Exception):
    """Base class for all package-specific errors."""


class NotCoprimeError(NormfreqError):
    """Multiplicative order requested for a base not coprime to the modulus."""


class DegenerateInputError(NormfreqError):
    """A fit was requested on data that cannot support one."""


class CapacityError(NormfreqError):
    """A sieve or table would exceed the configured memory budget."""


class UnknownFunctionError(NormfreqError):
    """A composition-chain token does not name a known base function."""
