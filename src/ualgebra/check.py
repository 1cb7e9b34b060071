"""Boolean verdicts that carry a witness, and the base of the checked records.

``Check`` is a ``NamedTuple``, like every value record of the package: it
unpacks as ``ok, witness`` and compares equal to that plain tuple.  A record
that checks its fields in ``__new__`` lists ``Checked`` before its NamedTuple base.
"""

from typing import Any, NamedTuple


class Check(NamedTuple):
    """Result of a decidable check.

    ``ok`` is the verdict; ``witness`` holds the counterexample on failure
    (or, for existence checks, the found object on success).  Truthiness
    follows ``ok``, so ``if not check: ...`` reads naturally.
    """

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


class Checked:
    # The check is in the record's __new__.  NamedTuple's own _make (which
    # _replace and copy.replace call) and pickle protocols 0 and 1 skip it,
    # so _make and __reduce__ are overridden to go through it.
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)
