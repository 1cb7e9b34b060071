"""Boolean verdicts that carry a witness.

``Check`` is a ``NamedTuple``, like every value record of the package: it
unpacks as ``ok, witness`` and compares equal to that plain tuple.
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
