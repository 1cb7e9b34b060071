"""Spans around the public functions of every ``ualgebra`` module.

``Tracer.install`` replaces each public function with a wrapper that
records a span, and rebinds every name that refers to the original in any
``ualgebra`` module (``from .x import f`` copies the binding, so patching
only the home module would miss those calls).  ``cli`` contributes only
``main``, the root of each op.  ``FiniteAlgebra.apply`` is counted, not
timed: it is a sub-microsecond call, and timing it would distort the spans
around it.  ``all_partitions`` is a generator; each resumption is a span and
the yielded partitions are counted.

Spans stay in memory as tuples ``(id, name, start, end, parent, op)``.  A
span opened in a thread that has no open span of its own (the congruence
thread pool) takes as parent the innermost open span of the thread that
opened the op.  Pool threads take turns on the interpreter lock while their
spans stay open, so on ops run with ``--threads 2`` the self times add up to
more than the op's wall time.
"""

import functools
import inspect
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "algebra",
    "congruences",
    "factorization",
    "fixtures",
    "malcev",
    "partitions",
    "signature",
    "terms",
    "translations",
)
METHODS = (("algebra", "FiniteAlgebra", "from_json_dict"),)
COUNTED = ("algebra", "FiniteAlgebra", "apply")
GENERATORS = {"partitions.all_partitions": "partitions.partitions_scanned"}  # name -> yielded-items count

# span name -> (count name, function of the result)
RESULT_COUNTS = {
    "translations.translation_semigroup": ("translations.semigroup_members", len),
    "translations.principal_translations": ("translations.s1_members", len),
    "congruences.all_congruences": ("congruences.congruences_found", len),
    "malcev.clone_ternary_terms": ("malcev.clone_size", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._apply_counter = itertools.count()  # next() is atomic across threads
        self._apply_taken = 0

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _wrap_function(self, fn, name: str):
        tracer = self
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = tracer._parent(stack)
                stack.append(sid)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer.spans.append((sid, name, start, end, parent, tracer.op))
                tracer.counts[GENERATORS[name]] += 1
                yield item

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "ualgebra" and not modname.startswith("ualgebra."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, replacement))

    def install(self) -> None:
        """Wrap every public function and rebind every name for it; undo with ``uninstall``."""
        import ualgebra  # noqa: F401  (loads every module)

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"ualgebra.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self._wrap_generator if name in GENERATORS else self._wrap_function
                wrappers[value] = wrap(value, name)
        cli = sys.modules["ualgebra.cli"]
        wrappers[cli.main] = self._wrap_function(cli.main, "cli.main")
        for original, replacement in wrappers.items():
            self._rebind_everywhere(original, replacement)

        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"ualgebra.{short}"], cls_name)
            descriptor = cls.__dict__[attr]
            wrapped = self._wrap_function(descriptor.__func__, f"{short}.{cls_name}.{attr}")
            self._patches.append((cls, attr, descriptor, classmethod(wrapped)))

        short, cls_name, attr = COUNTED
        cls = getattr(sys.modules[f"ualgebra.{short}"], cls_name)
        original = cls.__dict__[attr]
        tick = self._apply_counter.__next__

        def counted(self_, symbol, args):
            tick()
            return original(self_, symbol, args)

        self._patches.append((cls, attr, original, counted))
        for target, attr, _old, new in self._patches:
            setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old, _new in reversed(self._patches):
            setattr(target, attr, old)
        self._patches = []

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over the spans and counts gathered so far, and start afresh."""
        spans, counts = self.spans, self.counts
        reading = next(self._apply_counter)
        counts["algebra.FiniteAlgebra.apply.calls"] += reading - self._apply_taken
        self._apply_taken = reading + 1
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op in spans:
        covered = 0.0
        reach = start
        for cstart, cend in sorted(children.get(sid, ())):
            cstart, cend = max(cstart, reach), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                reach = cend
        out[sid] = (end - start) - covered
    return out
