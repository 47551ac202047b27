"""Exception types shared across the package."""


class DiskEdsError(Exception):
    """Base class for all package errors."""


class MalformedSyntax(DiskEdsError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownVariable(DiskEdsError):
    pass


class NegativeOrNonIntegerExponent(DiskEdsError):
    pass


class DimensionMismatch(DiskEdsError):
    pass


class NotComplexifiedMode(DiskEdsError):
    pass


class NotRealCoefficients(DiskEdsError):
    pass


class ZeroB(DiskEdsError):
    pass


class SingularD(DiskEdsError):
    pass


class CrossCheckMismatch(DiskEdsError):
    """An internal identity failed; signals an implementation bug, never user error."""


class WrongDimension(DiskEdsError):
    pass


class InadmissibleFlag(DiskEdsError):
    pass


class ProbeViolatesStratum(DiskEdsError):
    pass


class SchemaViolation(DiskEdsError):
    pass
