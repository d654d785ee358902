"""Checker modules; importing this package registers all of them."""

from repro.lint.checkers import (  # noqa: F401
    budget,
    determinism,
    exceptions,
    floats,
    layering,
    lockorder,
    obsnames,
    publicapi,
    serviceops,
    sharedstate,
)
