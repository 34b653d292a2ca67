"""Packets and flows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Flow:
    """The 5-tuple-ish key used by layer3+4 hashing."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str = "udp"


@dataclass
class Packet:
    src_mac: str
    dst_mac: str
    flow: Flow
    payload: Any = None
    size: int = 64

    @property
    def src_ip(self) -> str:
        return self.flow.src_ip

    @property
    def dst_ip(self) -> str:
        return self.flow.dst_ip


def _discard(packet: Packet) -> None:
    """``deliver`` of an unplugged port."""


def _refuse(packet: Packet) -> bool:
    """``accepts`` of an unplugged port."""
    return False


class Port:
    """A switch port: anything with a ``deliver(packet)`` method and a MAC.

    ``accepts`` is an optional cheap pre-filter: switches flooding a
    packet may skip ``deliver`` entirely when ``accepts(packet)`` is
    false, so endpoints never build RX state for traffic they would
    drop anyway. ``None`` means "deliver everything" (the default).

    Contract: ``accepts`` must be a pure function of the packet's flow
    *destination* (``dst_ip``, ``dst_port``, ``proto``) and of endpoint
    state whose changes are signalled through :meth:`touch`. Switches
    rely on this to cache flood-acceptance decisions per destination.
    """

    def __init__(self, name: str, mac: str, deliver, accepts=None) -> None:
        self.name = name
        self.mac = mac
        self.deliver = deliver
        self.accepts = accepts
        #: Switches this port is attached to that cache acceptance
        #: decisions (maintained by their attach/detach).
        self.switches: list = []

    def unplug(self) -> None:
        """The endpoint is gone: deliver and accept nothing.

        Also releases the endpoint's callbacks — usually its own bound
        methods, which would otherwise tie it and this port in a cycle.
        """
        self.deliver = _discard
        self.accepts = _refuse

    def touch(self) -> None:
        """Signal that this port's ``accepts`` inputs changed (a socket
        was bound/unbound, a listener added, ...): attached switches
        drop their cached flood-acceptance decisions."""
        for switch in self.switches:
            switch.filters_changed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.name} mac={self.mac})"
