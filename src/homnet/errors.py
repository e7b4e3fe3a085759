"""Exception hierarchy shared by every homnet module."""


class HomnetError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(HomnetError):
    pass


class UnknownLabel(HomnetError):
    pass


class SelfLoopBranch(HomnetError):
    pass


class NonClosingFace(HomnetError):
    pass


class DimensionMismatch(HomnetError):
    pass


class ModuleMismatch(HomnetError):
    pass


class EmptyChain(HomnetError):
    pass


class UnverifiedSpec(HomnetError):
    pass


class PairingUndefined(HomnetError):
    pass


class NotACycle(HomnetError):
    pass


class InternalMismatch(HomnetError):
    """An internal cross-check failed; indicates an engine bug, not bad input."""


class CoincidentNodes(HomnetError):
    pass


class UnsupportedDimension(HomnetError):
    pass


class NodeCountMismatch(HomnetError):
    pass


class SnapshotMismatch(HomnetError):
    pass


class TooFewSamples(HomnetError):
    pass


class KindMismatch(HomnetError):
    pass


class DegenerateBranch(HomnetError):
    pass


class NonConvectiveMomentum(HomnetError):
    pass


class RangeError(HomnetError):
    pass


class HypothesesUnmet(HomnetError):
    pass


class InvalidPartition(HomnetError):
    pass




class MissingData(HomnetError):
    def __init__(self, attribute, message=None):
        super().__init__(message or f"missing required attribute: {attribute}")
        self.attribute = attribute


class UnknownCommand(HomnetError):
    pass


class UnreadableInput(HomnetError):
    """An input path that cannot be read, or a document whose bytes are not
    UTF-8."""


class DocumentSyntaxError(HomnetError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(HomnetError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
