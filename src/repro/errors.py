"""Exception hierarchy shared by every Jrpm subsystem."""


class JrpmError(Exception):
    """Base class for all errors raised by this package."""


class CompileError(JrpmError):
    """Raised by the MiniJava frontend for syntax or type errors."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class VerifyError(JrpmError):
    """Raised by the bytecode verifier for malformed bytecode."""


class JitError(JrpmError):
    """Raised by the microJIT compiler for untranslatable bytecode."""


class DivergenceError(JrpmError):
    """Raised when a speculative run's output differs from the
    sequential baseline's (an adaptive epoch checked with
    ``verify=True``)."""


class VMError(JrpmError):
    """Raised by the runtime for machine-level faults (bad address, ...)."""


class GuestException(JrpmError):
    """A runtime exception raised *inside* the guest program.

    These follow Java semantics: they propagate up the guest call stack
    and, if uncaught, abort guest execution.  During speculation a guest
    exception is deferred until the raising thread becomes the head
    thread (paper section 5.1).
    """

    def __init__(self, kind, detail=""):
        self.kind = kind
        self.detail = detail
        super().__init__("%s: %s" % (kind, detail) if detail else kind)


class NullPointerException(GuestException):
    def __init__(self, detail=""):
        super().__init__("NullPointerException", detail)


class ArrayIndexException(GuestException):
    def __init__(self, detail=""):
        super().__init__("ArrayIndexOutOfBoundsException", detail)


class ArithmeticException(GuestException):
    def __init__(self, detail=""):
        super().__init__("ArithmeticException", detail)


class OutOfMemoryException(GuestException):
    def __init__(self, detail=""):
        super().__init__("OutOfMemoryError", detail)
