"""Exception types shared across the package."""


class FplabError(Exception):
    """Base class for all package errors."""


# -- field construction ------------------------------------------------------

class NotPrimeError(FplabError):
    pass


class TooSmallError(FplabError):
    pass


class TooLargeError(FplabError):
    pass


class IndexOutOfRangeError(FplabError):
    pass


# -- set construction --------------------------------------------------------

class LengthOutOfRangeError(FplabError):
    pass


class NotADivisorError(FplabError):
    pass


class SizeOutOfRangeError(FplabError):
    pass


class FieldMismatchError(FplabError):
    pass


# -- character sums ----------------------------------------------------------

class SupportMismatchError(FplabError):
    pass


class InadmissibleYZError(FplabError):
    pass


class ZeroDenominatorError(FplabError):
    pass


# -- bound evaluators --------------------------------------------------------

class DomainViolationError(FplabError):
    pass


class PreconditionViolatedError(FplabError):
    pass


class InsufficientDataError(FplabError):
    pass


# -- cli ----------------------------------------------------------------------

class ConfigError(FplabError):
    pass


class UsageError(FplabError):
    pass
