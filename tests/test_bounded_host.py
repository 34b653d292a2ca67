"""A long-running host stays bounded.

One host instantiates and tears down clone families for as long as it
runs (the single-host setting of paper Figs 4-6), so nothing may grow
with the number of families it has ever seen:

* the domid allocator wraps below Xen's reserved IDs, skips live IDs
  and fails with a typed error only when every guest ID is live; state
  that names a dead domain by domid (parent links, IDC peers, vIRQ
  bindings, xencloned's parent cache) never mistakes a later domain
  that reuses the ID for it;
* a family's bond / OVS group is retired with its last member, so a
  reused IP starts a fresh family instead of a stale empty switch;
* Xenstore keeps conflict generations only while a transaction is open;
* the leak oracle (``audit_platform``) checks all three.
"""

from __future__ import annotations

import pytest

from repro import FleetSession, NepheleSession
from repro.apps.udp_server import UdpServerApp
from repro.core.family import share_allowed
from repro.core.xencloned import CloneSwitchMode
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.faults.chaos import audit_kvm_platform, audit_platform
from repro.idc.channel import IdcChannel
from repro.kvm.platform import KvmPlatform
from repro.net.bond import BondInterface
from repro.net.ovs import OvsGroup
from repro.platform import Platform
from repro.sim.units import GIB, MIB
from repro.xen.domid import DOMID_COW, DOMID_FIRST_RESERVED, DOMID_SELF
from repro.xen.errors import XenDomidExhaustedError, XenNoMemoryError
from repro.xen.events import VIRQ_DOM_EXC
from repro.xen.hypervisor import Hypervisor

from tests.conftest import udp_config

REUSED_IP = "10.0.0.5"


# ----------------------------------------------------------------------
# domid allocation
# ----------------------------------------------------------------------

def small_hypervisor(limit: int) -> Hypervisor:
    hyp = Hypervisor(guest_pool_bytes=1 * GIB)
    hyp.domid_limit = limit
    return hyp


def create(hyp: Hypervisor) -> int:
    return hyp.create_domain("g", 4 * MIB).domid


def test_wrap_returns_to_one_and_skips_live_ids():
    hyp = small_hypervisor(6)
    # Until the first wrap the sequence is the old monotonic one.
    assert [create(hyp) for _ in range(5)] == [1, 2, 3, 4, 5]
    for domid in (1, 3, 4):
        hyp.destroy_domain(domid)
    # Wraps to 1, skips live 2, takes 3 and 4, skips live 5, wraps again.
    assert [create(hyp) for _ in range(3)] == [1, 3, 4]
    assert sorted(hyp.domains) == [1, 2, 3, 4, 5]


def test_full_space_raises_a_typed_exhaustion_error():
    hyp = small_hypervisor(4)
    for _ in range(3):
        create(hyp)
    with pytest.raises(XenDomidExhaustedError, match="domid space") as info:
        create(hyp)
    assert isinstance(info.value, XenNoMemoryError)
    assert len(hyp.domains) == 3
    hyp.destroy_domain(2)
    assert create(hyp) == 2


def udp_platform(**kwargs) -> tuple[Platform, int]:
    platform = Platform.create(**kwargs)
    parent = platform.xl.create(udp_config("udp0", max_clones=16),
                                app=UdpServerApp())
    return platform, parent.domid


def test_clones_never_receive_reserved_ids():
    platform = Platform.create()
    assert platform.hypervisor.domid_limit == DOMID_FIRST_RESERVED
    platform.hypervisor._next_domid = DOMID_FIRST_RESERVED - 2
    parent = platform.xl.create(udp_config("udp0", max_clones=16),
                                app=UdpServerApp())
    assert parent.domid == DOMID_FIRST_RESERVED - 2
    children = platform.cloneop.clone(parent.domid, count=4)
    assert children == [DOMID_FIRST_RESERVED - 1, 1, 2, 3]
    assert DOMID_SELF not in platform.hypervisor.domains
    assert DOMID_COW not in platform.hypervisor.domains
    platform.check_invariants()
    assert audit_platform(platform) == []


def test_a_live_reserved_domid_fails_the_invariants():
    platform = Platform.create()
    hyp = platform.hypervisor
    hyp.domid_limit = DOMID_FIRST_RESERVED + 4  # a broken allocator
    hyp._next_domid = DOMID_COW
    platform.xl.create(udp_config("bad"), app=UdpServerApp())
    with pytest.raises(AssertionError, match="reserved domid 0x7ff2"):
        platform.check_invariants()
    assert "live domain has reserved domid 0x7ff2" in audit_platform(platform)


def test_first_stage_abort_after_a_wrap_destroys_only_the_new_child():
    # The parent is 1; the first child takes the last ID, the second
    # wraps to 2 and then fails its first stage. The unwind must find
    # it by creation order — a domid comparison would miss it (2 is
    # below the allocator mark) and leak it.
    plan = FaultPlan(specs=[FaultSpec(site="grants.clone", after=1,
                                      count=64)], name="wrap")
    platform, root = udp_platform(fault_plan=plan)
    platform.faults.active = False
    hyp = platform.hypervisor
    hyp.domid_limit = 8
    hyp._next_domid = 7
    domains_before = set(hyp.domains)
    platform.faults.active = True
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=2)
    assert set(hyp.domains) == domains_before
    platform.faults.active = False
    assert audit_platform(platform) == []


def test_a_parent_reusing_a_domid_has_its_info_read_afresh():
    # xencloned reads a parent's Xenstore info on its first clone only;
    # the cache must not carry over to a new parent that reuses the ID.
    platform = Platform.create()
    platform.hypervisor.domid_limit = 4  # a parent and two clones
    requests = []
    for name in ("first", "second"):
        parent = platform.xl.create(udp_config(name, max_clones=2),
                                    app=UdpServerApp())
        assert parent.domid == 1
        before = platform.xenstore.stats["requests"]
        children = platform.xl.clone(parent.domid, count=2)
        requests.append(platform.xenstore.stats["requests"] - before)
        for child in children:
            platform.xl.destroy(child)
        platform.xl.destroy(parent.domid)
    assert requests[0] == requests[1]


def orphan_and_stranger(platform: Platform):
    """A clone whose parent died, and a stranger that reused the
    parent's domid (the space holds only the two of them)."""
    platform.hypervisor.domid_limit = 3
    parent = platform.xl.create(udp_config("p", max_clones=2),
                                app=UdpServerApp())
    channel = IdcChannel(platform.hypervisor, parent)
    child = platform.hypervisor.get_domain(
        platform.cloneop.clone(parent.domid)[0])
    platform.xl.destroy(parent.domid)
    stranger = platform.xl.create(
        udp_config("stranger", ip="10.0.9.9", max_clones=2),
        app=UdpServerApp())
    assert stranger.domid == parent.domid
    return channel, child, stranger


def test_a_stranger_reusing_a_dead_parents_domid_is_not_family():
    platform = Platform.create()
    _channel, child, stranger = orphan_and_stranger(platform)
    hyp = platform.hypervisor
    assert hyp.parent_of(child) is None
    assert hyp.family_of(child.domid) == {child.domid}
    assert not share_allowed(hyp, child.domid, stranger.domid)
    platform.check_invariants()  # used to report a broken family link


def test_an_orphans_idc_notify_does_not_reach_the_stranger():
    platform = Platform.create()
    channel, child, stranger = orphan_and_stranger(platform)
    got = []
    IdcChannel(platform.hypervisor, stranger).set_handler(stranger,
                                                          got.append)
    assert channel.notify(child) == 0
    assert got == []


def test_a_dead_domains_virq_binding_skips_the_domid_reuser():
    hyp = small_hypervisor(2)
    got = []
    first = create(hyp)
    hyp.bind_virq(first, VIRQ_DOM_EXC, handler=lambda port: got.append(1))
    hyp.destroy_domain(first)
    second = create(hyp)
    assert second == first
    hyp.bind_virq(second, VIRQ_DOM_EXC, handler=lambda port: got.append(2))
    assert hyp.raise_virq(VIRQ_DOM_EXC) == 1  # was 2: delivered twice
    assert got == [2]


# ----------------------------------------------------------------------
# family switch retirement and IP reuse
# ----------------------------------------------------------------------

def boot_reused(platform: Platform, name: str):
    return platform.xl.create(udp_config(name, ip=REUSED_IP, max_clones=8),
                              app=UdpServerApp())


def churn_one_family(platform: Platform) -> None:
    parent = boot_reused(platform, "first")
    for child in platform.xl.clone(parent.domid, count=2):
        platform.xl.destroy(child)
    platform.xl.destroy(parent.domid)


@pytest.mark.parametrize("mode", list(CloneSwitchMode))
def test_last_member_leaving_retires_the_family_switch(mode):
    platform = Platform.create(switch_mode=mode)
    churn_one_family(platform)
    dom0 = platform.dom0
    assert REUSED_IP not in dom0._family_switch
    assert dom0.bonds == {} and dom0.ovs_groups == {}
    assert audit_platform(platform) == []


def test_send_to_a_reused_ip_reaches_the_fresh_parent():
    platform = Platform.create()
    churn_one_family(platform)
    boot_reused(platform, "second")
    echoes = []
    platform.dom0.listen(40000, echoes.append)
    # Used to raise "bond bond-0 has no slaves" (an untyped RuntimeError)
    # from the dead family's empty bond.
    platform.dom0.send_to_guest(REUSED_IP, 9000, "hello", src_port=40000)
    assert [packet.payload for packet in echoes] == ["hello"]


@pytest.mark.parametrize("mode", list(CloneSwitchMode))
def test_cloning_a_reused_ip_enslaves_the_fresh_parent(mode):
    platform = Platform.create(switch_mode=mode)
    churn_one_family(platform)
    parent = boot_reused(platform, "second")
    children = platform.xl.clone(parent.domid, count=2)
    switch = platform.dom0._family_switch[REUSED_IP]
    members = (switch.slaves if isinstance(switch, BondInterface)
               else switch.buckets)
    backends = platform.dom0.netback.backends
    assert members == [backends[(domid, 0)].port
                       for domid in [parent.domid, *children]]
    # Names and group IDs come from counters: never reused.
    if isinstance(switch, BondInterface):
        assert switch.name == "bond-1"
    else:
        assert isinstance(switch, OvsGroup) and switch.group_id == 2
    assert audit_platform(platform) == []


def test_kvm_retires_the_bond_and_reenslaves_a_reused_ip():
    platform = KvmPlatform(memory_bytes=2 * GIB)
    host = platform.host
    parent = platform.create_vm("p", 16 * MIB, ip=REUSED_IP, max_clones=8)
    for child in platform.clone(parent.pid, count=2):
        host.get_vm(child).destroy()
    parent.destroy()
    assert host.bonds == {} and REUSED_IP not in host._family_switch
    assert audit_kvm_platform(platform) == []

    fresh = platform.create_vm("q", 16 * MIB, ip=REUSED_IP, max_clones=8)
    host.send_to_guest(REUSED_IP, 7000, b"hello")  # bridge, no dead bond
    children = platform.clone(fresh.pid, count=2)
    bond = host._family_switch[REUSED_IP]
    assert bond.name == "bond-1"
    assert bond.slaves == [fresh.net.port,
                           *(host.get_vm(c).net.port for c in children)]
    assert audit_kvm_platform(platform) == []


# ----------------------------------------------------------------------
# the leak oracle's bounded-state laws
# ----------------------------------------------------------------------

def test_audit_flags_an_empty_family_switch():
    platform = Platform.create()
    platform.dom0.family_bond("10.0.9.9")
    platform.dom0.family_ovs_group("10.0.9.8")
    violations = audit_platform(platform)
    assert "bond bond-0 kept with no slaves" in violations
    assert "OVS group 1 kept with no buckets" in violations


def test_audit_flags_conflict_generations_with_no_transaction_open():
    platform = Platform.create()
    transactions = platform.xenstore.transactions
    transactions._path_generation["/stale"] = 1
    assert audit_platform(platform) == [
        "1 path and 0 subtree conflict generations kept with no "
        "transaction open"]


def test_conflict_generations_live_only_while_a_transaction_is_open():
    platform, root = udp_platform()
    transactions = platform.xenstore.transactions
    assert not transactions._path_generation
    tid = platform.dom0.handle.transaction_start()
    platform.xl.clone(root, count=2)
    assert transactions._path_generation
    assert transactions._prefix_generation
    platform.dom0.handle.transaction_end(tid, commit=False)
    assert not transactions._path_generation
    assert not transactions._prefix_generation


# ----------------------------------------------------------------------
# bounded state across many family lifecycles
# ----------------------------------------------------------------------

def state_sizes(session: NepheleSession) -> dict[str, int]:
    transactions = session.xenstore.transactions
    return {
        "path_generation": len(transactions._path_generation),
        "prefix_generation": len(transactions._prefix_generation),
        "bonds": len(session.dom0.bonds),
        "family_switches": len(session.dom0._family_switch),
        "domains": len(session.hypervisor.domains),
        "xenstore_nodes": session.xenstore.node_count,
        "free_frames": session.hypervisor.frames.free_frames,
    }


def test_family_cycles_leave_no_growing_state():
    with NepheleSession(trace=False) as session:
        first = None
        for cycle in range(30):
            # Every third family reuses one IP; the rest get their own.
            ip = REUSED_IP if cycle % 3 == 0 else f"10.0.{cycle}.2"
            parent = session.boot(f"fam{cycle}", ip=ip, max_clones=4,
                                  app=UdpServerApp())
            children = session.clone(parent, count=3,
                                     from_guest=cycle % 2 == 1)
            for child in children:
                session.destroy(child)
            session.destroy(parent)
            sizes = state_sizes(session)
            if first is None:
                first = sizes
            assert sizes == first, f"cycle {cycle}"
        assert audit_platform(session.platform) == []


def test_fleet_family_cycles_return_every_host_to_one_state():
    # One warm-up family per host first: the first guest on a host
    # creates Dom0's backend directories, which then stay.
    with FleetSession(hosts=2, seed=7) as fs:
        platforms = [host.platform for host in fs.fleet.hosts]
        sizes = []
        for _ in range(4):
            fs.create_family("svc", ip="10.3.0.7")
            assert fs.clone("svc", count=3).failed == 0
            fs.destroy_family("svc")
            sizes.append([(len(p.dom0.bonds), len(p.dom0._family_switch),
                           len(p.hypervisor.domains), p.xenstore.node_count,
                           p.hypervisor.frames.free_frames)
                          for p in platforms])
            for platform in platforms:
                assert audit_platform(platform) == []
        assert sizes[3] == sizes[2] == sizes[1]
