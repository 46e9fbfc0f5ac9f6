"""Exception types shared across the toolkit.

Every error that user input can trigger derives from SftError so the CLI
can map them to exit codes uniformly.
"""


class SftError(Exception):
    pass


class ZeroRowOrColumn(SftError):
    def __init__(self, kind, index):
        self.kind = kind  # "row" or "column"
        self.index = index
        super().__init__(f"{kind} {index} of the adjacency matrix is zero")


class EmptyShift(SftError):
    pass


class SinkOrSourceAfterPruning(SftError):
    pass


class InadmissibleWord(SftError):
    pass


class NegativeShiftOneSided(SftError):
    pass


class NotPeriodic(SftError):
    pass


class WordTooShort(SftError):
    pass


class InvalidCode(SftError):
    pass


class InvalidVertexMap(InvalidCode):
    """A vertex map that is not a graph isomorphism onto the codomain."""


class NotTailEquivalent(SftError):
    pass


class DegreeImpossible(SftError):
    pass


class NotComposable(SftError):
    pass


class InvalidElement(SftError):
    pass


class NotInSource(SftError):
    pass


class CocycleInconsistent(SftError):
    pass


class FloorOutOfRange(SftError):
    pass


class ZeroFloorValue(SftError):
    pass


class NotInCrossSection(SftError):
    pass


class InvalidPartition(SftError):
    pass


class NotClosed(SftError):
    pass


class NotPositiveClass(SftError):
    """Raised when a positive decomposition is requested for a class that is
    not positive; carries the negative-cycle witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"class is not positive: {witness}")


class DegenerateN(SftError):
    pass


class VerificationFailed(SftError):
    """A constructed object failed the exact check it must pass."""


class LeastPeriodViolation(SftError):
    def __init__(self, witnesses):
        self.witnesses = witnesses
        super().__init__(f"cocycle pair is not least-period preserving: {witnesses}")


class ParseError(SftError):
    def __init__(self, source, line, message):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class NeedDepth(Exception):
    """Internal signal: a symbolic computation needs a longer cylinder word."""
