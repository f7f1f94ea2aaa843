"""Exception types shared across the kernel and the CLI."""


class WeilJetsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(WeilJetsError):
    """Operands live in different ambient spaces or variable counts."""


class EmptyQuotientError(WeilJetsError):
    """The requested ideal contains a unit, so the quotient collapses."""


class HintTooSmallError(WeilJetsError):
    """Order detection hit the truncation ceiling; retry with a larger hint."""


class NotAnIdealError(WeilJetsError):
    """A subspace is not closed under multiplication by the generators."""


class NotEpimorphismError(WeilJetsError):
    """An A-point is no epimorphism from the free truncated algebra asked for:
    its base point is not the origin, its algebra's order is above the
    source's, or it is not regular (its evaluation is not onto)."""


class WindowTooLargeError(WeilJetsError):
    """A monomial window is larger than the package will allocate."""


class OutOfMemoryError(WeilJetsError):
    """A command ran out of memory; the session goes on with the next one."""


class InternalCheckError(WeilJetsError):
    """An identity the construction guarantees failed to verify; a bug."""


class SessionError(WeilJetsError):
    """Base class for session-file problems."""


class SessionParseError(SessionError):
    """The session text is not valid against the documented schema."""


class UnknownNameError(SessionParseError):
    """A binding or command referenced a name that was never bound."""
