"""Exception hierarchy shared by all soma_kit modules."""


class SomaKitError(Exception):
    """Base class for all errors raised by soma_kit."""


class UnknownId(SomaKitError):
    pass


class CycleError(SomaKitError):
    pass


class KindMismatch(SomaKitError):
    pass


class BranchViolation(SomaKitError):
    pass


class StoreFrozen(SomaKitError):
    pass


class DegenerateInterval(SomaKitError):
    pass


class UnknownVariable(SomaKitError):
    pass


class StaleNetwork(SomaKitError):
    pass


class TemporallyInconsistent(SomaKitError):
    pass


class NegativeDuration(SomaKitError):
    pass


class DanglingReference(SomaKitError):
    pass


class UnknownRole(SomaKitError):
    pass


class ParseError(SomaKitError):
    """Document could not be parsed; message carries the position."""


class VersionMismatch(SomaKitError):
    pass


class ValidationFailed(SomaKitError):
    """Raised by loaders when a document fails validation.

    Carries the full issue list so callers can report everything at once.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))
