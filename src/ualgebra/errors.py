"""Exception hierarchy shared by the whole package, and the decimal-digit rules ``is_decimal`` and ``decimal``."""


class UAlgError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(UAlgError):
    """Malformed input text; carries the character position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class FormatError(UAlgError, ValueError):
    """Malformed algebra or signature data; JSON booleans are not integers."""


class ArgumentError(UAlgError, ValueError):
    """A library function got an argument outside its domain."""


class DuplicateSymbolError(UAlgError):
    pass


class UnknownSymbolError(UAlgError):
    pass


class ArityMismatchError(UAlgError):
    def __init__(self, symbol: str, expected: int, found: int):
        self.symbol = symbol
        self.expected = expected
        self.found = found
        super().__init__(f"symbol '{symbol}' expects {expected} argument(s), got {found}")


class UnboundVariableError(UAlgError):
    pass


class SignatureMismatchError(UAlgError):
    pass


class OutOfCarrierError(UAlgError):
    pass


class SizeMismatchError(UAlgError):
    pass


class SizeCapError(UAlgError):
    """An exhaustive routine would exceed its configured cap."""


class PartitionError(UAlgError):
    """Malformed partition: duplicate, missing, or out-of-range elements."""


class NotACongruenceError(UAlgError):
    """Carries the violating (translation, pair) witness."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__("partition is not a congruence")


class NotAGroupError(UAlgError):
    pass


class MismatchedBaseError(UAlgError):
    """Two factorizations do not factor the same map."""


def is_decimal(text: str) -> bool:
    """Whether ``text`` is one or more ASCII decimal digits."""
    return text.isascii() and text.isdigit()


def decimal(digits: str, error: type[UAlgError], what: str) -> int:
    """``int(digits)``; past Python's integer-string limit it raises ``error``."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"{what} has {len(digits)} digits, past Python's integer-string limit") from None
