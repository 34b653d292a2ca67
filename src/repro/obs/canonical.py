"""Canonical fingerprints: one hasher for every deterministic payload.

Every storm, experiment and figure series in this tree proves its
determinism the same way: serialize the outcome as canonical JSON
(sorted keys, no NaN or infinity) and hash it with sha256. Two same-seed
runs must produce the same hex digest byte for byte.

:func:`fingerprint` is that hasher; :func:`jsonify` turns result
dataclasses into plain JSON first (callers whose payload is already
plain JSON skip it, it is a full walk); :func:`first_difference` says
*where* two payloads diverge when their fingerprints do not match.

Every report that carries its own digest is stamped by :func:`seal`:
the ``fingerprint`` field hashes the report's ``to_dict()`` with that
one key left out. A :class:`Sealed` report's ``to_dict()`` is
:func:`jsonify` of its fields, so a field's name is its JSON key and a
value is hashed exactly as it is stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.errors import ReproError

#: Longest value rendering :func:`first_difference` prints.
_VALUE_WIDTH = 60


def jsonify(value: Any) -> Any:
    """Canonical JSON-able form of a result object.

    Dataclasses become dicts of their fields, tuples become lists, dict
    keys become strings and anything else non-JSON becomes its
    ``repr``. Floats are kept exact: ``json`` emits shortest
    round-trip reprs, so equal hashes mean bit-identical series.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fingerprint(payload: Any) -> str:
    """sha256 hex digest of ``payload`` as canonical JSON.

    Raises :class:`~repro.errors.ReproError` on a NaN or infinite
    float: canonical JSON has no spelling for them, and a fingerprint
    over a non-number would hide the bug that produced it.
    """
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as error:
        raise ReproError(f"cannot fingerprint payload: {error}") from None
    return hashlib.sha256(text.encode()).hexdigest()


def seal(report: Any) -> Any:
    """Stamp ``report.fingerprint`` over ``report.to_dict()`` minus that
    key; returns ``report``."""
    payload = report.to_dict()
    payload.pop("fingerprint")
    report.fingerprint = fingerprint(payload)
    return report


class Sealed:
    """Mixin for a result dataclass with a ``fingerprint`` field that
    :func:`seal` stamps: its JSON form is exactly its fields."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation, the fingerprint payload."""
        return jsonify(self)


def first_difference(a: Any, b: Any, *, ignore: frozenset[str] = frozenset(),
                     path: str = "") -> str | None:
    """The first JSON path at which two payloads differ, or None.

    Dict keys are visited in sorted order, the order :func:`fingerprint`
    hashes them, so the answer is the first divergent record of the
    hashed byte stream, e.g. ``results[1].latencies[412]: 3.2 != 3.3``.
    Values compare as JSON does: ``1`` and ``1.0`` (or ``True``) differ.
    Dict keys in ``ignore`` are skipped at every depth (a stored digest
    differs whenever anything does, so it never says *where*).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys(), key=str):
            if key in ignore:
                continue
            where = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return f"{where}: {_show(a, key)} != {_show(b, key)}"
            found = first_difference(a[key], b[key], ignore=ignore,
                                     path=where)
            if found is not None:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, ignore=ignore,
                                     path=f"{path}[{index}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path or '<root>'}: length {len(a)} != {len(b)}"
        return None
    if type(a) is type(b) and a == b:
        return None
    return f"{path or '<root>'}: {_render(a)} != {_render(b)}"


def _show(mapping: dict, key: Any) -> str:
    return _render(mapping[key]) if key in mapping else "(missing)"


def _render(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    if len(text) > _VALUE_WIDTH:
        text = text[:_VALUE_WIDTH - 3] + "..."
    return text
