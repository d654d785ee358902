"""Every in-tree exception is a ``ReproError`` that survives a pickle round trip.

Errors cross process boundaries (batch workers) and thread boundaries
(front-door futures); an exception whose custom constructor breaks the
default ``cls(*args)`` replay surfaces as an opaque ``PicklingError`` at
the worst possible moment, and an ad-hoc exception class escapes the
taxonomy callers catch. These tests import every ``repro`` module and
walk the *live* exception hierarchy — so a newly added class is covered
automatically, wherever it is defined — and assert that each one is a
``ReproError`` whose type, message and structured fields all survive.
Together they cover anything in-tree a batch worker can raise.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.errors import ReproError

#: Constructor arguments for classes whose __init__ is not (message,).
_SAMPLE_ARGS = {
    "OptimizationBudgetExceeded": ("costing", 1000.0, 1001.0),
    "InjectedBudgetExceeded": ("costing", 5.0, 6.0),
    "AdmissionRejected": ("queue-full", "admission queue at capacity (8)"),
    "TenantBudgetExhausted": ("tenant-9", 0.125),
}

#: The one in-tree exception outside the taxonomy: the linter's usage
#: error, which only ``python -m repro.lint`` raises and catches.
_NON_TAXONOMY = ["repro.lint.engine.LintError"]


@functools.cache
def _import_every_module() -> tuple[str, ...]:
    """Import every ``repro`` module except the ``__main__`` entry points."""
    names = tuple(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    )
    for name in names:
        importlib.import_module(name)
    return names


def _descendants(root: type) -> set[type]:
    seen: set[type] = set()

    def walk(cls: type) -> None:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                walk(sub)

    walk(root)
    return seen


def _all_error_classes() -> list[type]:
    _import_every_module()
    return sorted(_descendants(ReproError), key=lambda cls: cls.__name__)


def _sample(cls: type) -> ReproError:
    args = _SAMPLE_ARGS.get(cls.__name__, (f"synthetic {cls.__name__}",))
    return cls(*args)


@pytest.mark.parametrize("cls", _all_error_classes(), ids=lambda c: c.__name__)
def test_round_trip_preserves_everything(cls):
    original = _sample(cls)
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert str(clone) == str(original)
    assert clone.__dict__ == original.__dict__


def test_hierarchy_walk_found_the_serving_errors():
    """The walk covers the classes this PR leans on (guards the walker)."""
    names = {cls.__name__ for cls in _all_error_classes()}
    assert {
        "AdmissionRejected",
        "TenantBudgetExhausted",
        "OptimizationBudgetExceeded",
        "OptimizationCancelled",
    } <= names


def test_extra_attributes_travel_too():
    """__reduce__ carries the instance dict, not just constructor args."""
    original = _sample_with_annotation()
    clone = pickle.loads(pickle.dumps(original))
    assert clone.query_label == "star-12"
    assert clone.reason == "queue-full"


def _sample_with_annotation():
    from repro.errors import AdmissionRejected

    exc = AdmissionRejected("queue-full", "capacity 8")
    exc.query_label = "star-12"
    return exc


def test_every_in_tree_exception_is_a_repro_error():
    """No module defines an exception class outside the taxonomy.

    A batch worker (``repro.service.parallel._run_chunk``) re-raises in
    the coordinator whatever its cells raise; with this test and the
    round trip above, anything in-tree it can raise is a ``ReproError``
    that crosses the pipe faithfully.
    """
    assert "repro.service.parallel" in _import_every_module()
    strays = sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in _descendants(BaseException)
        if cls.__module__.split(".")[0] == "repro"
        and not issubclass(cls, ReproError)
    )
    assert strays == _NON_TAXONOMY
