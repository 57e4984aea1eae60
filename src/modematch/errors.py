"""Exception types shared across the package, and the input-file reader
that turns a bad byte into one of them."""


class DomainError(ValueError):
    """Input outside the validity range of a model or routine."""


class ParseError(ValueError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class PhysicalityError(ValueError):
    """A computed quantity violates a physical bound beyond tolerance."""


class InfeasibleError(ValueError):
    """A requested target cannot be met within the allowed model range."""


class NumericalError(RuntimeError):
    """A convergence or stability check failed."""


def read_ascii(path):
    """Text of an ASCII input file, with newlines translated as in text mode.

    A byte outside ASCII is a ParseError at its line, not a decode error.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        before = exc.object[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError("non-ASCII byte 0x%02x" % exc.object[exc.start],
                         line=before.count(b"\n") + 1) from None
