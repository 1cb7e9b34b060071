"""Command-line surface.

Algebras are named built-in fixtures (Z2..Z8, V4, SL2, Sinf2..Sinf8) or
paths to algebra JSON files.  Term, map, partition, and seed arguments may
be given inline or as ``@path`` to read from a file.  ``--json`` emits a
versioned machine-readable document (schema 1) whose bytes are stable
across runs.  ``--threads`` is accepted and reserved; it has no effect.
``--max-semigroup`` caps only ``translations``.  ``--max-partitions`` caps
the pairs a < b and the congruences found by the congruence-lattice search
of ``congruences`` and ``factorize --oracle``.  A negative cap is a usage
error.

A plain command line (the command, its positionals, then options spelled
in full with valid values) is read directly, without importing argparse.
Any other, ``-h`` and every usage error included, goes to the argparse
parser, so help and usage errors are argparse's, byte for byte.

Exit codes: 0 success/PASS, 1 semantic FAIL, 2 usage or parse error,
3 cap exceeded, 141 stdout closed by its reader (128 + SIGPIPE).
"""

import errno
import json
import os
import sys
from collections.abc import Callable, Iterable
from itertools import chain
from json.encoder import encode_basestring_ascii
from stat import S_ISREG
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import fixtures
from .algebra import (
    CarrierMap,
    FiniteAlgebra,
    holds,
    is_homomorphism,
    kernel,
    product,
    quotient,
    subalgebra_generated,
)
from .congruences import PARTITION_ENUM_CAP, all_congruences, congruence_generated
from .errors import FormatError, NotACongruenceError, SizeCapError, UAlgError, decimal, is_decimal
from .factorization import enumerate_factorizations, greatest_factorization, least_factorization, precedes
from .malcev import CLONE_CAP, clone_ternary_terms, find_malcev_operations, group_malcev
from .malcev import has_malcev_term, table_is_malcev
from .partitions import Partition
from .signature import _VAR_RE
from .terms import classify_identity, evaluate, format_term, parse_term
from .translations import SEMIGROUP_HARD_CAP, semigroup_tree

if TYPE_CHECKING:
    import argparse

SCHEMA = 1


# The stat errors that mean "no such file", as pathlib's Path.is_file reads them;
# any other (EACCES, say) is raised and reported.
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _algebra(name: str) -> FiniteAlgebra:
    """The built-in fixture ``name``, or the algebra in the JSON file at that path.

    A fixture name wins over a file of the same name (write ``./Z4`` for the
    file).  The path must name a regular file, or a symlink to one: one
    ``os.stat`` checks it before anything is opened, so a missing path, a
    directory or a FIFO is an unknown algebra, refused without opening it.
    Any other stat error (a path that cannot be searched, say) is raised.
    """
    fixture = fixtures.get_fixture(name)
    if fixture is not None:
        return fixture
    try:
        is_file = S_ISREG(os.stat(name).st_mode)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
        if isinstance(exc, OSError) and exc.errno not in _NO_FILE:
            raise
        is_file = False
    if is_file:
        return FiniteAlgebra.from_json_dict(_json(_read_file(name), f"algebra file '{name}'", FormatError))
    raise UAlgError(f"unknown algebra '{name}' (not a fixture name or readable file)")


def _json(text: str, what: str, error: type[UAlgError] = UAlgError):
    """The JSON value of ``text``: malformed JSON is raised as ``error``; JSON nested
    too deeply, or an integer too long for ``int()``, is a FormatError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError(f"bad {what}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise error(f"bad {what}: {exc}") from None
    except ValueError:  # int() past Python's integer-string limit
        raise FormatError(f"bad {what}: an integer has more digits than Python's integer-string limit") from None


def _read_file(path: str) -> str:
    """The text of the file at ``path``, read as UTF-8 with universal newlines.

    One raw ``os.open``, ``os.read`` in 64 KiB chunks until EOF (a FIFO is
    read as a stream, so no size is trusted), and one decode of the whole
    file; then ``\\r\\n`` and a lone ``\\r`` become ``\\n``, as text mode reads
    them.  A BOM is kept.  Bytes that are not UTF-8 are a FormatError naming
    the file and the byte offset in it.  An OSError names ``path`` as given,
    not a normalised form; a directory is an IsADirectoryError.
    """
    if "\0" in path:  # open()'s wording; os.open names itself in it from Python 3.13
        raise ValueError("embedded null byte")
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except IsADirectoryError:  # os.read names no file
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path) from None
    finally:
        os.close(fd)
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"file '{path}' is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        return _read_file(text[1:]).strip()
    return text


def _json_arg(text: str, what: str):
    """The JSON value of an inline or ``@path`` argument; malformed JSON in a file names the file."""
    if text.startswith("@"):
        what = f"{what} file '{text[1:]}'"
    return _json(_read_arg(text), what)


def _parse_int_list(text: str, what: str) -> list[int]:
    data = _json_arg(text, what)
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise UAlgError(f"bad {what}: expected a JSON array of integers")
    return data


def _parse_map(text: str, source_size: int) -> CarrierMap:
    values = _parse_int_list(text, "map")
    if len(values) != source_size:
        raise UAlgError(f"map has {len(values)} entries, algebra has {source_size} elements")
    target = max(values) + 1 if values else 1
    return CarrierMap(source_size, target, tuple(values))


def _parse_assignment(text: str) -> dict[int, int]:
    text = _read_arg(text).strip()
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if "=" not in piece:
            raise UAlgError(f"bad assignment entry {piece!r}, expected 'vN=value'")
        var, value = (part.strip() for part in piece.split("=", 1))
        name = _VAR_RE.fullmatch(var)
        if name is None:
            raise UAlgError(f"bad variable name {var!r} in assignment")
        if not is_decimal(value):
            raise UAlgError(f"bad value in assignment entry {piece!r}, expected decimal digits")
        index = decimal(name.group(1), UAlgError, "variable index")
        if index in out:
            raise UAlgError(f"variable {var} assigned twice in assignment")
        out[index] = decimal(value, UAlgError, "assignment value")
    return out


def _assignment_doc(assignment) -> dict | None:
    if assignment is None:
        return None
    return {f"v{v}": assignment[v] for v in sorted(assignment)}


# ---------------------------------------------------------------------------
# commands


def cmd_check_identity(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    p = parse_term(_read_arg(args.p), X.sig)
    q = parse_term(_read_arg(args.q), X.sig)
    verdict = holds(X, p, q)
    cls = classify_identity(p, q)
    payload = {
        "algebra": args.algebra,
        "p": format_term(p),
        "q": format_term(q),
        "holds": verdict.ok,
        "counterexample": _assignment_doc(verdict.witness),
        "class": cls.value,
    }
    if verdict.ok:
        human = [f"PASS: {payload['p']} ≈ {payload['q']} holds (class {cls.value})"]
        return 0, payload, human
    where = ", ".join(f"v{v}={x}" for v, x in sorted(verdict.witness.items()))
    human = [f"FAIL: {payload['p']} ≈ {payload['q']} fails at {where} (class {cls.value})"]
    return 1, payload, human


def cmd_variety_check(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    results = []
    first_failure = None
    for raw in args.identities:
        raw = _read_arg(raw)
        if "=" not in raw:
            raise UAlgError(f"bad identity {raw!r}, expected 'p=q'")
        p_text, q_text = raw.split("=", 1)
        p = parse_term(p_text, X.sig)
        q = parse_term(q_text, X.sig)
        verdict = holds(X, p, q)
        results.append({"p": format_term(p), "q": format_term(q), "holds": verdict.ok})
        if not verdict.ok and first_failure is None:
            first_failure = {
                "p": format_term(p),
                "q": format_term(q),
                "counterexample": _assignment_doc(verdict.witness),
            }
    payload = {
        "algebra": args.algebra,
        "identities": results,
        "all_hold": first_failure is None,
        "first_failure": first_failure,
    }
    human = [
        f"{'PASS' if r['holds'] else 'FAIL'}: {r['p']} ≈ {r['q']}" for r in results
    ]
    return (0 if first_failure is None else 1), payload, human


def cmd_eval(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    term = parse_term(_read_arg(args.term), X.sig)
    assignment = _parse_assignment(args.assignment)
    value = evaluate(term, X, assignment)
    payload = {
        "algebra": args.algebra,
        "term": format_term(term),
        "assignment": _assignment_doc(assignment),
        "value": value,
    }
    return 0, payload, [str(value)]


def cmd_hom_check(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.source)
    Y = _algebra(args.target)
    phi = CarrierMap(X.size, Y.size, tuple(_parse_int_list(args.map, "map")))
    verdict = is_homomorphism(phi, X, Y)
    counterexample = None
    if not verdict.ok:
        symbol, tup = verdict.witness
        counterexample = {"symbol": symbol, "args": list(tup)}
    payload = {
        "source": args.source,
        "target": args.target,
        "map": list(phi.values),
        "is_homomorphism": verdict.ok,
        "counterexample": counterexample,
    }
    if verdict.ok:
        return 0, payload, ["PASS: map is a homomorphism"]
    return 1, payload, [f"FAIL: not a homomorphism, violation at {counterexample}"]


def cmd_subalgebra(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    seed = _parse_int_list(args.seed, "seed")
    members, sub = subalgebra_generated(X, seed)
    payload = {
        "algebra": args.algebra,
        "seed": seed,
        "members": list(members),
        "subalgebra": sub.to_json_dict() if sub is not None else None,
    }
    human = [f"members: {list(members)}", f"size: {len(members)}"]
    return 0, payload, human


def cmd_product(args) -> tuple[int, dict, list[str]]:
    factors = [_algebra(name) for name in args.algebras]
    prod, projections = product(factors)
    payload = {
        "factors": list(args.algebras),
        "size": prod.size,
        "algebra": prod.to_json_dict(),
        "projections": [list(pr.values) for pr in projections],
    }
    return 0, payload, [f"product size: {prod.size}"]


def cmd_quotient(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    part = Partition.parse(_read_arg(args.partition))
    try:
        Y, qmap = quotient(X, part)
    except NotACongruenceError as exc:
        translation, pair = exc.witness
        payload = {
            "algebra": args.algebra,
            "partition": part.format(),
            "is_congruence": False,
            "violation": {
                "translation": translation.format_word(),
                "table": list(translation.table),
                "pair": list(pair),
            },
        }
        human = [
            f"FAIL: not a congruence; translation {translation.format_word()} "
            f"separates pair {pair}"
        ]
        return 1, payload, human
    payload = {
        "algebra": args.algebra,
        "partition": part.format(),
        "is_congruence": True,
        "quotient": Y.to_json_dict(),
        "map": list(qmap.values),
    }
    return 0, payload, [f"quotient size: {Y.size}", f"map: {list(qmap.values)}"]


def cmd_congruences(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    texts = [c.format() for c in all_congruences(X, max_partitions=args.max_partitions)]
    payload = {"algebra": args.algebra, "count": len(texts), "congruences": texts}
    return 0, payload, texts + [f"count: {len(texts)}"]


def cmd_gen_congruence(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    data = _json_arg(args.pairs, "pairs")
    if not isinstance(data, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in data
    ):
        raise UAlgError("bad pairs: expected a JSON array of [a, b] pairs")
    result = congruence_generated(X, [tuple(p) for p in data])
    payload = {"algebra": args.algebra, "pairs": data, "congruence": result.format()}
    return 0, payload, [result.format()]


def cmd_translations(args) -> tuple[int, dict, Iterable[str]]:
    X = _algebra(args.algebra)
    tree = semigroup_tree(X, cap=args.max_semigroup)
    # --json writes each word as built: ∘ already in its JSON form, one byte a character
    words = tree.format_words("\\u2218" if args.json else "∘")
    payload = {
        "algebra": args.algebra,
        "s1_size": len(tree.generators),
        "s_size": len(words),
        "members": Members(tree.tables, words),
    }
    lines = (f"{word} ⇒ [{','.join(map(str, table))}]" for word, table in zip(words, tree.tables))
    return 0, payload, chain([f"|S1| = {len(tree.generators)}", f"|S| = {len(words)}"], lines)


def cmd_malcev(args) -> tuple[int, dict, list[str]]:
    target = args.target
    if is_decimal(target.removeprefix("-")):
        # a negative size is refused as 0 is, however many digits it has
        k = 0 if target.startswith("-") else decimal(target, UAlgError, "carrier size")
        enumeration = find_malcev_operations(k, cap=args.max_clone)
        payload = {
            "mode": "enumerate",
            "k": k,
            "count": len(enumeration.tables),
            "complete": enumeration.complete,
            "tables": [list(t) for t in enumeration.tables],
        }
        human = [
            f"{len(enumeration.tables)} Mal'cev operation(s) on a {k}-element carrier"
            + ("" if enumeration.complete else " (incomplete: cap reached)")
        ]
        return (0 if enumeration.complete else 3), payload, human
    X = _algebra(target)
    witness = has_malcev_term(X, cap=args.max_clone)
    try:
        gm = group_malcev(X)
    except UAlgError:  # not a group, or not over the group signature
        gm = None
    payload = {
        "mode": "algebra",
        "algebra": target,
        "has_malcev_term": witness.ok,
        "witness": list(witness.witness) if witness.ok else None,
        "group_malcev": list(gm) if gm is not None else None,
    }
    human = [f"has_malcev_term: {witness.ok}"]
    if gm is not None:
        human.append("group: natural Mal'cev operation computed")
    return (0 if witness.ok else 1), payload, human


def cmd_clone(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    clone = clone_ternary_terms(X, cap=args.max_clone)
    witness = next((t for t in clone if table_is_malcev(t, X.size)), None)
    payload = {
        "algebra": args.algebra,
        "count": len(clone),
        "has_malcev_term": witness is not None,
        "witness": list(witness) if witness is not None else None,
    }
    human = [f"ternary term operations: {len(clone)}", f"has_malcev_term: {witness is not None}"]
    return 0, payload, human


def cmd_factorize(args) -> tuple[int, dict, list[str]]:
    X = _algebra(args.algebra)
    f = _parse_map(args.map, X.size)
    least = least_factorization(X, f)
    payload = {
        "algebra": args.algebra,
        "f": list(f.values),
        "kernel": kernel(least.g).format(),
        "y_size": least.Y.size,
        "y": least.Y.to_json_dict(),
        "h": list(least.h.values),
        "oracle": None,
    }
    human = [
        f"kernel: {payload['kernel']}",
        f"|Y| = {least.Y.size}",
        f"h = {list(least.h.values)}",
    ]
    if args.oracle:
        enumerated = enumerate_factorizations(X, f, max_partitions=args.max_partitions)
        greatest = greatest_factorization(X, f)
        least_ok = all(precedes(least, F).ok for F in enumerated)
        greatest_ok = all(precedes(F, greatest).ok for F in enumerated)
        payload["oracle"] = {
            "factorization_count": len(enumerated),
            "kernels": [kernel(F.g).format() for F in enumerated],
            "least_precedes_all": least_ok,
            "greatest_dominates_all": greatest_ok,
        }
        human.append(
            f"oracle: {len(enumerated)} factorization(s); least≺all: {least_ok}; "
            f"all≺greatest: {greatest_ok}"
        )
    return 0, payload, human


def cmd_fixtures(args) -> tuple[int, dict, list[str]]:
    entries = []
    for name in fixtures.fixture_names():
        X = fixtures.get_fixture(name)
        entries.append({"name": name, "size": X.size, "signature": X.sig.format()})
    payload = {"fixtures": entries}
    human = [f"{e['name']:8s} size {e['size']:2d}  {e['signature']}" for e in entries]
    return 0, payload, human


# ---------------------------------------------------------------------------
# parser / entry point

# name: (handler, help, {positional: add_argument options}); usage lists the names in this order.
# A positional with nargs comes last: ``_plain_args`` assigns positionals in one pass.
_COMMANDS = {
    "check-identity": (cmd_check_identity, "check p ≈ q on an algebra", {"algebra": {}, "p": {}, "q": {}}),
    "variety-check": (
        cmd_variety_check, "check a list of identities 'p=q'", {"algebra": {}, "identities": {"nargs": "+"}}
    ),
    "eval": (
        cmd_eval,
        "evaluate a term under an assignment",
        {"algebra": {}, "term": {}, "assignment": {"nargs": "?", "default": "", "help": "e.g. 'v1=0,v2=3'"}},
    ),
    "hom-check": (
        cmd_hom_check,
        "check a map for the homomorphism property",
        {"source": {}, "target": {}, "map": {"help": "JSON array of images"}},
    ),
    "subalgebra": (
        cmd_subalgebra,
        "subalgebra generated by a seed set",
        {"algebra": {}, "seed": {"help": "JSON array of elements"}},
    ),
    "product": (cmd_product, "componentwise product", {"algebras": {"nargs": "+"}}),
    "quotient": (
        cmd_quotient, "quotient by a congruence", {"algebra": {}, "partition": {"help": "e.g. '0,2|1,3'"}}
    ),
    "congruences": (cmd_congruences, "list all congruences", {"algebra": {}}),
    "gen-congruence": (
        cmd_gen_congruence,
        "congruence generated by pairs",
        {"algebra": {}, "pairs": {"help": "JSON array of [a,b] pairs"}},
    ),
    "translations": (cmd_translations, "principal translations and semigroup", {"algebra": {}}),
    "malcev": (
        cmd_malcev, "enumerate (size) or detect (algebra)", {"target": {"help": "carrier size or algebra name"}}
    ),
    "clone": (cmd_clone, "ternary term operations", {"algebra": {}}),
    "factorize": (
        cmd_factorize, "least factorization of a map", {"algebra": {}, "map": {"help": "JSON array of images"}}
    ),
    "fixtures": (cmd_fixtures, "list built-in algebras", {}),
}


def _cap(text: str) -> int:
    """A cap flag's value: a non-negative integer.  argparse names the flag."""
    try:
        value = int(text)
        if value >= 0:
            return value
        message = f"cap must not be negative, got {value}"
    except ValueError:
        message = f"invalid int value: {text!r}"
    import argparse

    raise argparse.ArgumentTypeError(message)


# flag: (dest, type, default, help), read by both parsers; type None is a store_true flag
_OPTIONS = {
    "--json": ("json", None, False, "emit machine-readable JSON"),
    "--oracle": ("oracle", None, False, "run brute-force cross-checks"),
    "--threads": ("threads", int, 1, "reserved; has no effect"),
    "--max-semigroup": ("max_semigroup", _cap, SEMIGROUP_HARD_CAP, "caps |S| in translations"),
    "--max-partitions": ("max_partitions", _cap, PARTITION_ENUM_CAP, "caps partitions in the congruence search"),
    "--max-clone": ("max_clone", _cap, CLONE_CAP, "caps the ternary operations that clone and malcev find"),
}


def build_parser() -> "argparse.ArgumentParser":
    """The ``ualg`` argparse parser, which prints help and every usage error."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for flag, (dest, kind, default, help_text) in _OPTIONS.items():
        if kind is None:
            common.add_argument(flag, dest=dest, action="store_true", help=help_text)
        else:
            common.add_argument(flag, dest=dest, type=kind, default=default, help=help_text)

    parser = argparse.ArgumentParser(prog="ualg", description="finite universal-algebra workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, options in positionals.items():
            p.add_argument(arg, **options)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives for a plain
    command line, or None for any other.

    A plain command line is a command name, then exactly the positionals it
    declares, none starting with '-', then only options spelled in full;
    a typed option takes the next token, which must not start with '-' and
    which its type must accept.  Everything else, ``-h`` and every usage
    error included, is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    end = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    rest = argv[1:end]
    args = {"command": argv[0]}
    for name, options in _COMMANDS[argv[0]][2].items():
        nargs = options.get("nargs")
        if not rest:
            if nargs != "?":
                return None
            args[name] = options["default"]
        elif nargs == "+":
            args[name], rest = rest, []
        else:
            args[name], rest = rest[0], rest[1:]
    if rest:
        return None
    args.update((dest, default) for dest, _, default, _ in _OPTIONS.values())
    tokens = iter(argv[end:])
    for flag in tokens:
        if flag not in _OPTIONS:
            return None
        dest, kind, _, _ = _OPTIONS[flag]
        if kind is None:
            args[dest] = True
            continue
        value = next(tokens, "-")  # a missing value goes to argparse as one starting with '-'
        if value.startswith("-"):
            return None
        try:
            args[dest] = kind(value)
        except Exception:  # int or _cap refuses the value: argparse reports it
            return None
    return SimpleNamespace(**args)


class Members(NamedTuple):
    """The ``members`` array of ``translations --json``: row i is the object
    ``{"table": tables[i], "word": words[i]}``.

    ``_write_json`` takes it as ``cmd_translations`` builds it and checks
    none of this: there is at least one row; the tables all have one length
    n >= 1 and are all ``bytes`` (k <= 256) or all tuples of int (k > 256);
    each word is already in JSON string form,
    ``encode_basestring_ascii(text)[1:-1]``, as
    ``SemigroupTree.format_words("\\u2218")`` gives it.  ``json.dumps``
    would take a ``Members`` for a list of its two lists.
    """

    tables: list[bytes] | list[tuple[int, ...]]
    words: list[str]


# Rows of a ``Members``, or ints of an all-int list, per ``write``: it bounds what the writer holds.
_BLOCK = 256

# The text of each byte value: ``list.__getitem__`` maps twice as fast as a tuple's.
_DECIMALS = list(map(str, range(256)))


def _write_json(value, newline: str, write: Callable[[str], object]) -> None:
    """Pass to ``write``, piece by piece, the text ``json.dumps(value, indent=2,
    sort_keys=True)`` gives, nested one level below the indent that ``newline``
    carries.

    CPython's C encoder does not take ``indent``, so ``json.dumps`` falls
    back to its pure-Python one; this writer does less per value.  It takes
    only what payloads hold: str-keyed dicts, lists, str, int, bool, None
    and ``Members``.  A ``Members`` is written as the array of objects it
    stands for, ``_BLOCK`` rows per ``write``, and its inputs are not
    checked (see ``Members``).  A block is one ``"".join`` of a list laid
    out row by row: the static text of a row (keys, brackets, quotes and
    separators) is built once, the block's table entries are mapped to
    decimal text in one pass (``bytes`` through ``_DECIMALS``), each table
    position is spliced in by one strided slice assignment, and the words
    go in between quotes as they are.  An all-int list is written
    ``_BLOCK`` ints per ``write``, so no listing is ever held as one
    string.
    """
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is int:
        write(int.__repr__(value))
    elif value is None or kind is bool:
        write("null" if value is None else "true" if value else "false")
    elif kind is list:
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        if all(type(x) is int for x in value):
            for start in range(0, len(value), _BLOCK):
                write(sep + ("," + inner).join(map(int.__repr__, value[start : start + _BLOCK])))
                sep = "," + inner
            write(newline + "]")
            return
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif kind is dict:
        if not value:
            write("{}")
            return
        if not all(type(key) is str for key in value):
            raise TypeError("JSON object keys must be str")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif kind is Members:
        tables, words = value
        n, inner, field = len(tables[0]), newline + "  ", newline + "    "
        flatten, decimal_text = (
            (b"".join, _DECIMALS.__getitem__) if type(tables[0]) is bytes else (chain.from_iterable, int.__repr__)
        )
        entry, last, width = field + "  ", '"' + inner + "}", 2 * n + 3
        row = [""] * width  # table positions at 1, 3, ..., 2n - 1, the word at 2n + 1
        row[::2] = [
            "{" + field + '"table": [' + entry,
            *["," + entry] * (n - 1),
            field + "]," + field + '"word": "',
            last + "," + inner,
        ]
        sep = "[" + inner
        for start in range(0, len(tables), _BLOCK):
            block = tables[start : start + _BLOCK]
            texts = list(map(decimal_text, flatten(block)))
            parts = row * len(block)
            for p in range(n):
                parts[2 * p + 1 :: width] = texts[p::n]
            parts[2 * n + 1 :: width] = words[start : start + _BLOCK]
            parts[0] = sep + parts[0]
            parts[-1] = last
            write("".join(parts))
            sep = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(as_json: bool, command: str, code: int, payload: dict, human: Iterable[str]) -> None:
    """Write the command's document (``--json``) or its human lines to stdout as they are produced."""
    write = sys.stdout.write
    if as_json:
        doc = {"schema": SCHEMA, "command": command, "exit_code": code}
        doc.update(payload)
        _write_json(doc, "\n", write)
        write("\n")
    else:
        for line in human:
            write(line + "\n")
    sys.stdout.flush()  # a closed pipe raises here, inside main's guard, not at shutdown


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    message = ""
    try:
        code, payload, human = handler(args)
    except (UAlgError, ValueError, OSError) as exc:
        code = 3 if isinstance(exc, SizeCapError) else 2
        kind = "SizeCapExceeded" if code == 3 else type(exc).__name__
        payload, human, message = {"error": {"type": kind, "message": str(exc)}}, [], f"error: {exc}\n"
    try:
        _emit(args.json, args.command, code, payload, human)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at os.devnull, as the Python docs
        # advise for SIGPIPE, so that the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    if message:
        sys.stderr.write(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
