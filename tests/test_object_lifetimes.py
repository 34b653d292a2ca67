"""Simulated objects die by reference count when their lifetime ends.

A destroyed guest (its domain, kernel wrapper, API handle, device
frontends, netback and port) and a resolved front-door request (with
its copies) must not sit in reference cycles: anything left in a cycle
waits for a full run of the cyclic garbage collector, which then scans
and frees every dead guest and request at once. Each case below runs
its workload with the collector disabled and then asks it for garbage:
it must find none.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import FleetSession, NepheleSession
from repro.apps.udp_server import UdpServerApp
from repro.frontdoor.dispatch import AutoscalePolicy
from repro.frontdoor.resilience import ResiliencePolicy
from repro.kvm.platform import KvmPlatform
from repro.sim.units import GIB, MIB
from repro.toolstack.config import DomainConfig, P9Config, VifConfig

PAGE = 4096
READY_PORT = 9999
BATCHES = 2
BATCH = 16


class DirtyingServer(UdpServerApp):
    """UDP server whose clones COW-write a parent heap region before
    announcing readiness to the host."""

    def __init__(self) -> None:
        super().__init__(notify_port=READY_PORT)
        self.region = None

    def main(self, api) -> None:
        self.region = api.alloc(8 * PAGE)
        super().main(api)

    def clone_for_child(self) -> "DirtyingServer":
        child = DirtyingServer()
        child.region = self.region
        return child

    def on_cloned(self, api, child_index: int) -> None:
        api.touch(self.region, 1 + child_index % 8)
        super().on_cloned(api, child_index)


@contextmanager
def no_cyclic_garbage():
    """Run the body with the collector off; fail if it left cycles."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
    assert found == 0, (f"{found} objects left in reference cycles: "
                        f"{kinds.most_common(12)}")


def _xen_family_cycle(session: NepheleSession, ready: list) -> None:
    parent = session.boot(
        DomainConfig(name="fam", memory_mb=4, kernel="minios-udp",
                     vifs=[VifConfig(ip="10.1.2.3")], p9fs=[P9Config()],
                     max_clones=BATCHES * BATCH),
        app=DirtyingServer())
    children = []
    for _ in range(BATCHES):
        children += session.clone(parent, count=BATCH, from_guest=True)
    assert len(ready) == 1 + BATCHES * BATCH
    for domid in children:
        session.destroy(domid)
    session.destroy(parent)
    del ready[:]


def test_xen_family_cycle_leaves_no_cycles():
    session = NepheleSession(seed=0xC10E)
    ready = []
    session.dom0.listen(READY_PORT, lambda pkt: ready.append(pkt.payload))
    guests = session.platform.guest_count()
    _xen_family_cycle(session, ready)  # warm every lazy structure
    with no_cyclic_garbage():
        _xen_family_cycle(session, ready)
    assert session.platform.guest_count() == guests
    session.close()


def test_kvm_family_cycle_leaves_no_cycles():
    kvm = KvmPlatform(memory_bytes=8 * GIB)
    ready = []
    kvm.host.listen(READY_PORT, lambda pkt: ready.append(pkt.payload))

    def cycle() -> None:
        parent = kvm.create_vm("fam", 16 * MIB, ip="10.0.5.8",
                               p9_export="/srv/fam",
                               max_clones=BATCHES * BATCH,
                               app=DirtyingServer())
        children = []
        for _ in range(BATCHES):
            children += kvm.clone(parent.pid, count=BATCH)
        assert len(ready) == 1 + BATCHES * BATCH
        for pid in children:
            kvm.destroy(pid)
        kvm.destroy(parent.pid)
        del ready[:]

    cycle()
    with no_cyclic_garbage():
        cycle()
    assert not kvm.host.vms
    kvm.check_invariants()


@pytest.mark.parametrize("timeout_ms", [None, 4.0])
def test_dispatch_runs_leave_no_cycles(timeout_ms):
    with FleetSession(hosts=2, seed=0xC10E) as fs:
        fs.create_family("svc", ip="10.2.0.1")
        fs.clone("svc", count=5)
        fs.dispatch("svc", "faas", requests=200, arrival_rps=900.0,
                    clone_factor=2, timeout_ms=timeout_ms, label="warm")
        with no_cyclic_garbage():
            for d in (1, 2, 4):
                result = fs.dispatch(
                    "svc", "faas", requests=400, arrival_rps=900.0,
                    clone_factor=d, timeout_ms=timeout_ms, label=f"d{d}")
                assert result.completed + result.timed_out == 400
            del result


def test_resilient_drain_and_destroy_leave_no_cycles():
    with FleetSession(hosts=4, seed=0xC10E,
                      resilience=ResiliencePolicy()) as fs:
        autoscale = AutoscalePolicy(threshold_rps=150, check_interval_ms=200,
                                    max_replicas=12, scale_step=2)

        def burst(name: str) -> None:
            placement = fs.create_family(name, ip="10.3.0.1")
            fs.clone(name, count=3)
            fs.drain_host(placement.host)
            fs.dispatch(name, "faas", requests=1500, arrival_rps=1260.0,
                        clone_factor=2, heartbeat_every_ms=50.0,
                        autoscale=autoscale, label=name)
            settle = 0
            while (fs.handle("GET", f"/families/{name}").body["migrating"]
                   and settle < 400):
                fs.fleet.tick()
                settle += 1
            assert settle < 400
            fs.fleet.repair_host(placement.host)
            fs.destroy_family(name)
            assert name not in fs.fleet.families

        burst("warm")
        with no_cyclic_garbage():
            burst("burst")


def test_destroyed_guest_objects_die_at_destroy():
    session = NepheleSession(seed=0xC10E)
    domain = session.boot("g", ip="10.4.0.1", max_clones=2,
                          app=UdpServerApp())
    child = session.domain(session.clone(domain, count=1)[0])
    refs = []
    for dom in (domain, child):
        backend = session.dom0.netback.backends[(dom.domid, 0)]
        refs += [weakref.ref(dom), weakref.ref(dom.guest),
                 weakref.ref(backend)]
    del backend, dom
    enabled = gc.isenabled()
    gc.disable()
    try:
        session.destroy(child)
        del child
        session.destroy(domain)
        del domain
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
    session.close()
