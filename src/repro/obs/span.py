"""Spans: timed regions of virtual time, stored in a ring buffer.

A :class:`Span` is one named, possibly-nested region of the virtual
clock's timeline (``clone.first_stage``, ``boot.name_check``, ...).
Finished spans land in a fixed-capacity :class:`SpanRing`; when the ring
is full the *oldest* spans are evicted (and counted), so a long run
keeps its most recent history without unbounded memory growth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import InvalidArgumentError


@dataclass(slots=True)
class Span:
    """One finished (or still-open) timed region of virtual time.

    Durations are in virtual milliseconds. ``children_ms`` accumulates
    the durations of directly nested spans, so ``self_ms`` is the time
    attributable to this span alone - the number the per-stage
    breakdown tables report.
    """

    kind: str
    start_ms: float
    span_id: int
    parent_id: int | None = None
    depth: int = 0
    end_ms: float | None = None
    children_ms: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to this span; returns ``self`` for chaining.

        The disabled-tracer span exposes the same method, so
        instrumentation sites can set attributes unconditionally.
        """
        self.attrs.update(attrs)
        return self

    @property
    def duration_ms(self) -> float:
        """Inclusive duration (0.0 while the span is still open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def self_ms(self) -> float:
        """Exclusive duration: inclusive minus directly nested spans."""
        return max(0.0, self.duration_ms - self.children_ms)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by trace export)."""
        return {
            "kind": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "self_ms": self.self_ms,
            "attrs": dict(self.attrs),
        }


class SpanRing:
    """Fixed-capacity FIFO store for finished spans.

    Mirrors the clone notification ring's shape, but with overwrite
    semantics: tracing must never stall the traced system, so a full
    ring silently evicts the oldest span and bumps ``evicted``.
    """

    def __init__(self, capacity: int = 16384) -> None:
        if capacity <= 0:
            raise InvalidArgumentError(
                f"non-positive span ring capacity: {capacity}")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.pushed = 0

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def evicted(self) -> int:
        """How many spans were overwritten by newer ones."""
        return self.pushed - len(self._spans)

    def push(self, span: Span) -> None:
        """Record a finished span (evicting the oldest when full).

        ``Tracer._record`` inlines this body on its hot path; keep the
        two in sync.
        """
        self._spans.append(span)
        self.pushed += 1

    def clear(self) -> None:
        """Drop all stored spans (the eviction counter resets too)."""
        self._spans.clear()
        self.pushed = 0

    def by_kind(self, kind: str) -> list[Span]:
        """All stored spans of one kind, oldest first."""
        return [span for span in self._spans if span.kind == kind]

    def kinds(self) -> set[str]:
        """The distinct span kinds currently stored."""
        return {span.kind for span in self._spans}
