"""Exception types shared across the toolkit."""


class RmcError(Exception):
    """Base class for all toolkit errors."""


class AlphabetMismatch(RmcError):
    """Two automata were combined but their alphabets differ."""


class SymbolNotInAlphabet(RmcError):
    """A word contains a symbol outside the relevant alphabet."""


class CapExceeded(RmcError):
    """A construction or enumeration grew past its configured cap."""


class StateCapExceeded(CapExceeded):
    """A subset construction grew past the configured state cap."""


class SuccessorCapExceeded(CapExceeded):
    """A configuration has more successors than the enumeration cap."""


class MissingRelation(RmcError):
    """The requested check needs a reach/preach relation the system lacks."""


class NotLengthPreserving(RmcError):
    """The operation is only defined for length-preserving systems."""


class PaddingViolation(RmcError):
    """A transducer places a real symbol after padding on the same track."""


class DeterminismViolation(RmcError):
    """A transducer declared deterministic has nondeterministic structure."""


class ParseError(RmcError):
    """A text-format automaton or bundle failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BundleValidationError(RmcError):
    """A loaded system bundle failed its structural validation checks.

    Carries the full validation report so callers can surface every
    failing check, not just the first.
    """

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.name for c in report.failed)
        super().__init__(f"bundle validation failed: {failed}")
