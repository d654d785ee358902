"""RL008 — service-layer blocking operations must be bounded.

The serving layer (``repro/service/``) runs worker threads against
shared queues, events and peer threads, and a process pool for batch
grids. Any *unbounded* blocking call there is a hung-request bug
waiting for its trigger — precisely the failure mode the front door
exists to rule out ("every request completes or is rejected; none
hang"). Inside the serving layer this checker forbids:

* constructing an unbounded queue: ``Queue()`` / ``LifoQueue()`` /
  ``PriorityQueue()`` without a ``maxsize``, and ``SimpleQueue()`` at
  all (it cannot be bounded) — overload must become shedding, not
  memory growth;
* ``.get(...)`` / ``.put(...)`` on a queue-named receiver without a
  ``timeout=`` or ``block=False`` — a worker blocked forever on a queue
  cannot observe shutdown;
* ``.wait(...)`` without a timeout (positional or keyword) — an event
  whose setter died would otherwise hang every waiter;
* ``.join(...)`` on a thread-, worker- or process-named receiver
  without a timeout — shutdown must complete even if a worker is
  wedged.

``Future.result()`` and executor ``map`` are deliberately out of scope:
they belong to the process-pool batch path, whose completion is the
coordinating call's whole job. Legitimate exceptions carry a
``# lint: waive[RL008] reason`` comment.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register

#: Queue constructors that accept (and must receive) a ``maxsize``.
_BOUNDED_QUEUE_TYPES = ("Queue", "LifoQueue", "PriorityQueue")

#: Queue constructors that cannot be bounded at all.
_UNBOUNDABLE_QUEUE_TYPES = ("SimpleQueue",)


def _call_type_name(call: ast.Call) -> str | None:
    """The constructor name for ``Queue()`` / ``queue.Queue()`` shapes."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_name(func: ast.Attribute) -> str | None:
    """The name the method is called on (``self._queue.get`` -> ``_queue``)."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _has_keyword(call: ast.Call, *names: str) -> bool:
    return any(kw.arg in names for kw in call.keywords)


def _nonblocking_queue_op(call: ast.Call) -> bool:
    """True when a queue ``.get``/``.put`` cannot block forever."""
    if _has_keyword(call, "timeout"):
        return True
    for kw in call.keywords:
        if kw.arg == "block" and isinstance(kw.value, ast.Constant):
            if kw.value.value is False:
                return True
    return False


@register
class ServiceOpsChecker(Checker):
    code = "RL008"
    name = "bounded-blocking"
    description = "service-layer blocking calls must be bounded"

    def check(self, project):
        for module in project.modules:
            if module.layer != "service":
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_queue_construction(module, node)
                if isinstance(node.func, ast.Attribute):
                    yield from self._check_blocking_call(module, node)

    def _check_queue_construction(self, module, call: ast.Call):
        type_name = _call_type_name(call)
        if type_name in _UNBOUNDABLE_QUEUE_TYPES:
            yield Finding(
                module.relpath,
                call.lineno,
                call.col_offset,
                self.code,
                f"{type_name} cannot be bounded; use Queue(maxsize=...) so "
                f"overload sheds instead of growing memory",
            )
        elif type_name in _BOUNDED_QUEUE_TYPES:
            if not call.args and not _has_keyword(call, "maxsize"):
                yield Finding(
                    module.relpath,
                    call.lineno,
                    call.col_offset,
                    self.code,
                    f"unbounded {type_name}(); pass maxsize= so overload "
                    f"sheds instead of growing memory",
                )

    def _check_blocking_call(self, module, call: ast.Call):
        func = call.func
        method = func.attr
        receiver = (_receiver_name(func) or "").lower()
        if method in ("get", "put") and "queue" in receiver:
            if not _nonblocking_queue_op(call):
                yield Finding(
                    module.relpath,
                    call.lineno,
                    call.col_offset,
                    self.code,
                    f"queue .{method}() without timeout= or block=False "
                    f"can block a worker forever",
                )
        elif method == "wait":
            if not call.args and not _has_keyword(call, "timeout"):
                yield Finding(
                    module.relpath,
                    call.lineno,
                    call.col_offset,
                    self.code,
                    ".wait() without a timeout hangs if the setter died; "
                    "pass timeout= and re-check state",
                )
        elif method == "join" and (
            "thread" in receiver
            or "worker" in receiver
            or "process" in receiver
        ):
            if not call.args and not _has_keyword(call, "timeout"):
                yield Finding(
                    module.relpath,
                    call.lineno,
                    call.col_offset,
                    self.code,
                    ".join() on a worker thread without timeout= wedges "
                    "shutdown behind a wedged worker",
                )
