"""Terms over a signature: syntax trees, parsing, occurrence counts, evaluation.

Variables are written ``v1, v2, ...`` (indices start at 1).  Term text is
fully parenthesized prefix form, e.g. ``m(v1,i(v2))``; a bare name denotes
an arity-0 symbol.  ``parse_term(format_term(t), sig)`` returns ``t``.
"""

import enum
import re
from typing import Mapping, NamedTuple, Sequence, Union

from .check import Checked
from .errors import (
    ArgumentError,
    ArityMismatchError,
    OutOfCarrierError,
    ParseError,
    SignatureMismatchError,
    UnboundVariableError,
    decimal,
    is_element,
    is_positive,
)
from .signature import _NAME_RE, _VAR_RE, Signature

# Nested argument lists parse_term accepts.  Printing, evaluating and
# classifying a term recurse once or twice per level, so much deeper terms
# would overflow Python's stack (about 1000 frames) in those routines.
MAX_TERM_DEPTH = 200


class _VariableFields(NamedTuple):
    index: int  # positive


class Variable(Checked, _VariableFields):
    __slots__ = ()

    def __new__(cls, index: int):
        if not is_positive(index):
            raise ArgumentError(f"variable index must be a positive integer, got {index!r}")
        return super().__new__(cls, index)


class Constant(NamedTuple):
    symbol: str


class Apply(NamedTuple):
    symbol: str
    children: tuple["Term", ...]


Term = Union[Variable, Constant, Apply]


class PreservationClass(enum.Enum):
    """Occurrence-count class of an identity, strongest first."""

    LINEAR = "Linear"
    LINEAR_QUADRATIC = "LinearQuadratic"
    UNCLASSIFIED = "Unclassified"


# ---------------------------------------------------------------------------
# parsing / printing


# A name, one punctuation mark, or any other non-space character, which is an error.
_TOKEN_RE = re.compile(rf"({_NAME_RE.pattern})|([(),])|\S")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        name, mark = m.groups()
        if name:
            tokens.append(("name", name, m.start()))
        elif mark:
            tokens.append((mark, mark, m.start()))
        else:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
    return tokens


def parse_term(text: str, sig: Signature) -> Term:
    """Parse fully parenthesized prefix term text over ``sig``."""
    tokens = _tokenize(text)
    term, nxt = _parse_term(tokens, 0, sig, 0)
    if nxt != len(tokens):
        raise ParseError("unexpected trailing input", tokens[nxt][2])
    return term


def _parse_term(tokens, i, sig, depth):
    if i >= len(tokens):
        raise ParseError("unexpected end of input")
    kind, value, pos = tokens[i]
    if kind != "name":
        raise ParseError(f"expected a term, found {value!r}", pos)
    var = _VAR_RE.fullmatch(value)
    if var is not None:
        return Variable(decimal(var.group(1), ParseError, "variable index")), i + 1
    if i + 1 < len(tokens) and tokens[i + 1][0] == "(":
        if depth == MAX_TERM_DEPTH:
            raise ParseError(f"term nests deeper than {MAX_TERM_DEPTH} levels", tokens[i + 1][2])
        children = []
        j = i + 2
        if j < len(tokens) and tokens[j][0] == ")":
            raise ParseError("empty argument list", tokens[j][2])
        while True:
            child, j = _parse_term(tokens, j, sig, depth + 1)
            children.append(child)
            if j >= len(tokens):
                raise ParseError("unterminated argument list")
            kind2, value2, pos2 = tokens[j]
            if kind2 == ",":
                j += 1
                continue
            if kind2 == ")":
                j += 1
                break
            raise ParseError(f"expected ',' or ')', found {value2!r}", pos2)
        expected = sig.arity(value)
        if expected != len(children):
            raise ArityMismatchError(value, expected, len(children))
        return Apply(value, tuple(children)), j
    # bare name: must be an arity-0 symbol
    expected = sig.arity(value)
    if expected != 0:
        raise ArityMismatchError(value, expected, 0)
    return Constant(value), i + 1


def format_term(t: Term) -> str:
    """Canonical text: prefix notation, no spaces."""
    if isinstance(t, Variable):
        return f"v{t.index}"
    if isinstance(t, Constant):
        return t.symbol
    return f"{t.symbol}({','.join(format_term(c) for c in t.children)})"


# ---------------------------------------------------------------------------
# variables and occurrence counts


def occurrence_profile(t: Term) -> dict[int, int]:
    """Variable index -> number of occurrences in ``t``, as a fresh dict."""
    if isinstance(t, Variable):
        return {t.index: 1}
    if isinstance(t, Constant):
        return {}
    counts: dict[int, int] = {}
    for child in t.children:
        for v, n in occurrence_profile(child).items():
            counts[v] = counts.get(v, 0) + n
    return counts


def vars_of(t: Term) -> frozenset[int]:
    """The set of variable indices occurring in ``t``."""
    return frozenset(occurrence_profile(t))


def occurrences(t: Term, v: int) -> int:
    """Number of occurrences of variable ``v`` in ``t``."""
    return occurrence_profile(t).get(v, 0)


# ---------------------------------------------------------------------------
# evaluation


def term_table(t: Term, algebra, env: Mapping[int, Sequence[int]]) -> Sequence[int]:
    """Values of ``t`` in ``algebra`` under many assignments at once.

    ``env`` maps each variable of ``t`` to a table of carrier elements, all
    tables of one length n (n is 1 when ``env`` is empty).  Entry j of the
    result is the value of ``t`` when every variable takes entry j of its
    table.  Every symbol of ``t`` must exist in the algebra's signature with
    matching arity.  With ``bytes`` variable tables a constant's table is
    ``bytes`` too, so the result is ``bytes`` wherever
    ``algebra.apply_tables`` keeps them.
    """
    sig = algebra.sig
    sample = next(iter(env.values()), ())
    n = len(sample) if env else 1
    as_table = bytes if type(sample) is bytes else tuple

    def table(u):
        if isinstance(u, Variable):
            try:
                return env[u.index]
            except KeyError:
                raise UnboundVariableError(f"no value for variable v{u.index}") from None
        children = u.children if isinstance(u, Apply) else ()
        if u.symbol not in sig or sig.arity(u.symbol) != len(children):
            raise SignatureMismatchError(
                f"algebra signature has no {len(children)}-ary symbol '{u.symbol}'"
            )
        if not children:
            return as_table(algebra.apply_tables(u.symbol, ())) * n
        return algebra.apply_tables(u.symbol, [table(c) for c in children])

    return table(t)


def evaluate(t: Term, algebra, assignment: Mapping[int, int]) -> int:
    """Value of ``t`` in ``algebra`` under ``assignment`` (variable index -> element).

    Every variable of ``t`` must be assigned; every symbol of ``t`` must exist
    in the algebra's signature with matching arity.
    """
    env = {}
    for v in sorted(vars_of(t)):
        if v in assignment:
            value = assignment[v]
            if not is_element(value, algebra.size):
                raise OutOfCarrierError(f"v{v} assigned {value!r}, carrier size {algebra.size}")
            env[v] = (value,)
    return term_table(t, algebra, env)[0]


# ---------------------------------------------------------------------------
# identity classification


def _linear(p_count: int, q_count: int) -> bool:
    return p_count <= 1 and q_count <= 1


def _linear_quadratic(p_count: int, q_count: int) -> bool:
    return (p_count <= 1 and q_count <= 2) or (p_count <= 2 and q_count <= 1)


def classify_identity(p: Term, q: Term) -> PreservationClass:
    """Classify the identity ``p ≈ q`` by per-variable occurrence bounds.

    ``LINEAR``: every variable occurs at most once in ``p`` and at most once
    in ``q``.  ``LINEAR_QUADRATIC``: for every variable, one side has at most
    one occurrence and the other at most two (and the pair is not linear).
    The strongest applicable class is reported.
    """
    pp = occurrence_profile(p)
    qp = occurrence_profile(q)
    variables = set(pp) | set(qp)
    if all(_linear(pp.get(v, 0), qp.get(v, 0)) for v in variables):
        return PreservationClass.LINEAR
    if all(_linear_quadratic(pp.get(v, 0), qp.get(v, 0)) for v in variables):
        return PreservationClass.LINEAR_QUADRATIC
    return PreservationClass.UNCLASSIFIED
