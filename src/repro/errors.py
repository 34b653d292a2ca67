"""The common exception base for the whole library.

Every repro-raised exception derives from :class:`ReproError`, so
callers of the session API can catch one type instead of memorising
which layer throws what::

    try:
        with NepheleSession() as session:
            session.boot("web0")
            session.clone("web0", count=64)
    except ReproError as exc:
        ...

The per-layer classes (``ToolstackError``, ``CloneOpError``,
``XenError``, ``XenstoreError``, ...) keep their historical modules and
names; only their base changed.

This module deliberately imports nothing: it sits below every other
module in the dependency graph, so any layer can use it freely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the repro library."""


class InvalidArgumentError(ReproError, ValueError):
    """A bad argument to a library call (a negative size, a time in the
    past, an empty bucket list, ...). Also a :class:`ValueError`, which
    is what these calls raised before they had a typed error."""
