"""Shared fixtures."""

from __future__ import annotations

from typing import Callable, Iterable

import pytest

from repro import DomainConfig, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.sim import CostModel, VirtualClock
from repro.sim.units import GIB
from repro.xen.frames import FrameTable


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


@pytest.fixture
def frames() -> FrameTable:
    return FrameTable(total_frames=1 << 20)  # 4 GiB


@pytest.fixture
def platform() -> Platform:
    """A paper-testbed platform (16 GB, 4 CPUs)."""
    return Platform.create()


@pytest.fixture
def big_platform() -> Platform:
    """More memory for large-guest tests."""
    return Platform.create(total_memory_bytes=40 * GIB,
                           dom0_memory_bytes=4 * GIB, cpus=10)


def udp_config(name: str, ip: str = "10.0.1.1", max_clones: int = 0,
               memory_mb: int = 4, **kwargs) -> DomainConfig:
    return DomainConfig(name=name, memory_mb=memory_mb,
                        vifs=[VifConfig(ip=ip)], max_clones=max_clones,
                        **kwargs)


@pytest.fixture
def udp_parent(platform: Platform):
    """A booted UDP-server guest that may clone itself."""
    domain = platform.xl.create(udp_config("udp0", max_clones=100),
                                app=UdpServerApp())
    return domain


def assert_no_gaps(names: Iterable[str], present: Callable[[str], bool],
                   message: str) -> None:
    """One side of a doc-vs-registry diff: fail listing every name that
    ``present`` rejects."""
    gaps = sorted({name for name in names if not present(name)})
    assert not gaps, f"{message}: {gaps}"


def mentions(text: str) -> Callable[[str], bool]:
    """Predicate: ``text`` names ``name`` in backticks."""
    return lambda name: f"`{name}`" in text
