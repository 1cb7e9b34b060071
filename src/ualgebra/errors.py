"""Exception hierarchy shared by the whole package, the decimal-digit rules ``is_decimal`` and ``decimal``,
and the integer rules ``is_element``, ``is_positive`` and ``is_count``."""


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

    @classmethod
    def found(cls, count: int, things: str, cap: int, flag: str) -> "SizeCapError":
        """The refusal of a closure that found ``count`` ``things``, past the ``cap`` that option ``flag`` sets."""
        return cls(f"{count} {things} found, cap {cap} ({flag})")


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


def is_element(x, size: int) -> bool:
    """Whether ``x`` lies in the carrier {0, ..., size-1}: an ``int`` proper, so no ``bool`` or ``float``."""
    return type(x) is int and 0 <= x < size


def is_positive(n) -> bool:
    """Whether ``n`` is a positive ``int`` (not a ``bool``): a nonempty carrier's size, or a variable index."""
    return type(n) is int and n > 0


def is_count(n) -> bool:
    """Whether ``n`` is a non-negative ``int`` (not a ``bool``): an arity, or a map's or partition's size."""
    return type(n) is int and n >= 0


def decimal(digits: str, error: type[UAlgError], what: str) -> int:
    """``int(digits)``; past Python's integer-string limit it raises ``error``."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"{what} has {len(digits)} digits, past Python's integer-string limit") from None
