"""The chaos harness: randomized fault plans + leak auditing.

``run_chaos`` drives a clone-fleet workload (boots, clone batches from
Dom0 and from inside guests, COW writes, transactional Xenstore
updates, destroys, host traffic) on a platform armed with a fault plan,
then tears everything down and audits the platform for leaked frames,
grants, event endpoints, Xenstore nodes and bond slaves. The report
carries a fingerprint over every deterministic output, so two runs at
the same seed must produce byte-identical reports — the property the
storm-smoke CI job pins.

Platform construction is imported lazily: this module is re-exported
by :mod:`repro.faults`, which the hypervisor imports, so a module-level
platform import would cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.obs.canonical import Sealed, seal
from repro.xen.domid import DOM0, DOMID_COW, XEN_OWNER, is_reserved


@dataclass
class ChaosReport(Sealed):
    """The deterministic outcome of one chaos run."""

    seed: int
    plan: str
    #: sha256 over the canonical JSON of every deterministic field.
    fingerprint: str = ""
    clones_attempted: int = 0
    clones_succeeded: int = 0
    clone_errors: int = 0
    txn_attempts: int = 0
    violations: list[str] = field(default_factory=list)
    fault_stats: dict[str, Any] = field(default_factory=dict)
    clock_ms: float = 0.0


@contextmanager
def disarmed(faults: Any) -> Iterator[None]:
    """Hold injection off while a storm sets up the state whose failure
    it is not studying (booting the parents it will then clone)."""
    if faults.enabled:
        faults.active = False
    try:
        yield
    finally:
        if faults.enabled:
            faults.active = True


def touch_first_segments(children: Iterable[Any], rng: Any,
                         max_pages: int = 4) -> None:
    """COW-write 1..``max_pages`` pages at the start of each child's
    first memory segment; ``None`` (a child already gone) is skipped."""
    for child in children:
        if child is None or not child.memory.segments:
            continue
        try:
            child.memory.write_range(child.memory.segments[0].pfn_start,
                                     rng.randint(1, max_pages))
        except ReproError:
            pass


def audit_platform(platform: Any) -> list[str]:
    """Leak oracle: every resource-conservation violation, as strings.

    Intended to run after all guests are destroyed (the chaos harness
    does), but every check except the frame-pool-refill one is valid at
    any quiescent point — the rollback-invariant tests reuse it
    mid-scenario.
    """
    violations: list[str] = []
    hyp = platform.hypervisor
    frames = hyp.frames

    try:
        frames.check_invariants()
    except AssertionError as error:
        violations.append(f"frame table: {error}")

    live = set(hyp.domains)
    violations += _dead_owners(frames, live, "dead domain")
    for domid in sorted(live):
        if is_reserved(domid):
            violations.append(f"live domain has reserved domid {domid:#x}")

    for domain in hyp.domains.values():
        for channel in domain.events.ports.values():
            for child_domid, _port in channel.child_endpoints:
                if child_domid not in live:
                    violations.append(
                        f"domain {domain.domid} port {channel.port} still "
                        f"lists dead child endpoint {child_domid}")
        for entry in domain.grants.entries.values():
            for mapper in entry.mapped_by:
                if mapper not in live:
                    violations.append(
                        f"domain {domain.domid} grant {entry.gref} still "
                        f"mapped by dead domain {mapper}")

    cloneop = platform.cloneop
    if cloneop._pending:
        violations.append(
            f"clone second stages still pending: {sorted(cloneop._pending)}")
    if len(cloneop.ring):
        violations.append(
            f"{len(cloneop.ring)} stale clone notifications in the ring")
    if cloneop._failed:
        violations.append(
            f"unconsumed clone failures: {sorted(cloneop._failed)}")
    for domid in cloneop._baselines:
        if domid not in live:
            violations.append(f"reset baseline leaked for dead domain {domid}")

    store = platform.xenstore
    recount = store._count_subtree(store.root) - 1
    if recount != store.node_count:
        violations.append(
            f"xenstore node_count drift: cached {store.node_count}, "
            f"actual {recount}")
    for domid in store.introduced:
        if domid not in live and domid != DOM0:
            violations.append(f"dead domain {domid} still introduced "
                              "to xenstored")
    for domid_dir in _domain_dirs(store):
        if domid_dir not in live and domid_dir != DOM0:
            violations.append(
                f"xenstore subtree /local/domain/{domid_dir} leaked")
    transactions = store.transactions
    if transactions.open_count:
        violations.append(
            f"{transactions.open_count} xenstore transactions left open")
    elif transactions._path_generation or transactions._prefix_generation:
        violations.append(
            f"{len(transactions._path_generation)} path and "
            f"{len(transactions._prefix_generation)} subtree conflict "
            "generations kept with no transaction open")

    dom0 = platform.dom0
    live_ports = {backend.port for backend in dom0.netback.backends.values()}
    violations += _bond_leaks(dom0.bonds, live_ports)
    for group_id, group in dom0.ovs_groups.items():
        if not group.bucket_count:
            violations.append(f"OVS group {group_id} kept with no buckets")
        for port in group.buckets:
            if port not in live_ports:
                violations.append(
                    f"OVS group {group_id} holds dead bucket {port.name}")
    return violations


def _dead_owners(frames: Any, live: set[int], what: str) -> list[str]:
    """Frames still charged to an owner that is neither live nor one of
    the pseudo-owners (Dom0, dom_cow, Xen itself)."""
    accounted = live | {DOM0, DOMID_COW, XEN_OWNER}
    return [f"{what} {owner} still owns {owned} frames"
            for owner, owned in sorted(frames._owned.items())
            if owner not in accounted and owned]


def _bond_leaks(bonds: dict[str, Any], live_ports: set) -> list[str]:
    """Family bonds that outlived their family or hold a dead slave."""
    violations = []
    for name, bond in bonds.items():
        if not bond.slave_count:
            violations.append(f"bond {name} kept with no slaves")
        for port in bond.slaves:
            if port not in live_ports:
                violations.append(f"bond {name} holds dead slave {port.name}")
    return violations


def _domain_dirs(store: Any) -> list[int]:
    """Domids with a ``/local/domain/<id>`` directory in the store."""
    try:
        entries = store.directory("/local/domain")
    except ReproError:
        return []
    return [int(entry) for entry in entries if entry.isdigit()]


def audit_kvm_platform(platform: Any) -> list[str]:
    """Leak oracle for the KVM backend, mirroring :func:`audit_platform`.

    Checks frame conservation, dead VMM processes still owning frames,
    stale child links, and dead taps left on the host bridge or
    enslaved in a family bond.
    """
    violations: list[str] = []
    host = platform.host

    try:
        host.frames.check_invariants()
    except AssertionError as error:
        violations.append(f"frame table: {error}")

    live = set(host.vms)
    violations += _dead_owners(host.frames, live, "dead VMM process")

    for vm in host.vms.values():
        for child in vm.children:
            if child not in live:
                violations.append(
                    f"VM {vm.pid} still lists dead child {child}")

    live_ports = {host.host_port}
    for vm in host.vms.values():
        if vm.net is not None:
            live_ports.add(vm.net.port)
    for port in host.bridge.ports:
        if port not in live_ports:
            violations.append(f"bridge holds dead tap {port.name}")
    violations += _bond_leaks(host.bonds, live_ports)
    return violations


def _chaos_run(platform: Any, plan: FaultPlan, guests: dict[int, Any],
               audit: Callable[[Any], list[str]], *, seed: int,
               faults: int, parents: int, rounds: int | None, batch: int,
               boot: Callable[[int], int],
               clone: Callable[..., list[int]],
               destroy: Callable[[int], Any],
               ip_of: Callable[[Any], str | None],
               send_to_guest: Callable[..., Any],
               transaction: Callable[[int, int], Any] | None = None,
               ) -> ChaosReport:
    """The chaos workload both backends run: boot, rounds, teardown,
    audit, seal.

    ``guests`` is the backend's live id -> guest map; the callables are
    its boot/clone/destroy verbs, the family address of a parent and the
    host-to-guest send. ``transaction`` is the one backend-specific
    round step (a Xenstore update; KVM has no store). Every step that
    can fail is wrapped: an injected fault may abort a clone batch (or a
    single child within one), and the workload keeps going. ``rounds``
    defaults to scaling with the fault budget so the workload outlives
    the armed specs: the run must also exercise the no-fault-left steady
    state, not just back-to-back failures.
    """
    for name, value in (("parents", parents), ("batch", batch),
                        ("rounds", rounds)):
        if value is not None and value < 1:
            raise ReproError(f"'{name}' must be >= 1, got {value}")
    if rounds is None:
        rounds = max(3, (faults * 3) // 4)
    report = ChaosReport(seed=seed, plan=plan.name)
    rng = platform.rng.fork("chaos-workload")
    with disarmed(platform.faults):
        roots = [boot(i) for i in range(parents)]
    for round_index in range(rounds):
        for root in roots:
            if root not in guests:
                continue
            report.clones_attempted += batch
            try:
                children = clone(root, count=batch)
            except ReproError:
                report.clone_errors += 1
                children = []
            report.clones_succeeded += len(children)
            touch_first_segments(map(guests.get, children), rng)

            if transaction is not None:
                try:
                    transaction(root, round_index)
                    report.txn_attempts += 1
                except ReproError:
                    report.clone_errors += 1

            # Host traffic towards the family (exercises bond/OVS).
            parent = guests.get(root)
            ip = ip_of(parent) if parent is not None and parent.children \
                else None
            if ip is not None:
                try:
                    send_to_guest(ip, 9000, payload=round_index,
                                  src_port=40000 + round_index)
                except ReproError:
                    pass

            # Destroy one child per round: teardown interleaved with
            # injection must not leak either.
            if children:
                victim = children[rng.randint(0, len(children) - 1)]
                try:
                    destroy(victim)
                except ReproError:
                    report.clone_errors += 1

    # Full teardown: every guest goes; the audit must be clean.
    for guest in sorted(guests):
        try:
            destroy(guest)
        except ReproError:
            report.clone_errors += 1
    report.violations = audit(platform)
    report.fault_stats = platform.faults.report() \
        if platform.faults.enabled else {}
    report.clock_ms = round(platform.clock.now, 6)
    return seal(report)


def run_kvm_chaos(seed: int = 0xC10E, faults: int = 100,
                  plan: FaultPlan | None = None, parents: int = 2,
                  batch: int = 3, rounds: int | None = None) -> ChaosReport:
    """The chaos workload against the KVM backend.

    The :func:`run_chaos` workload on a :class:`~repro.kvm.platform.
    KvmPlatform`: randomized plans draw from
    :data:`repro.faults.sites.KVM_SITES`, the registry slice the
    KVM_CLONE_VM path fires. There is no Xenstore on this backend, so
    ``txn_attempts`` stays zero.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.faults.sites import KVM_SITES
    from repro.kvm.platform import KvmPlatform
    from repro.sim.units import MIB

    if plan is None:
        plan = FaultPlan.randomized(seed, faults=faults,
                                    sites=list(KVM_SITES))
    platform = KvmPlatform(seed=seed, fault_plan=plan)

    def boot(i: int) -> int:
        return platform.create_vm(f"chaos{i}", 16 * MIB,
                                  ip=f"10.0.9.{i + 1}", max_clones=256,
                                  app=UdpServerApp()).pid

    return _chaos_run(
        platform, plan, platform.host.vms, audit_kvm_platform, seed=seed,
        faults=faults, parents=parents, rounds=rounds, batch=batch,
        boot=boot, clone=platform.clone, destroy=platform.destroy,
        ip_of=lambda vm: vm.net.ip if vm.net is not None else None,
        send_to_guest=platform.host.send_to_guest)


def run_chaos(seed: int = 0xC10E, faults: int = 100,
              plan: FaultPlan | None = None, parents: int = 2,
              batch: int = 3, rounds: int | None = None) -> ChaosReport:
    """One chaos run: workload under injection, teardown, audit.

    The parents boot with injection disarmed (the chaos target is the
    *clone* paths); then each round clones a batch per parent, COW-writes
    the children, commits a Xenstore transaction, sends host traffic to
    the family and destroys one child. Returns a :class:`ChaosReport`
    whose fingerprint covers all deterministic outputs.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.platform import Platform
    from repro.toolstack.config import DomainConfig, VifConfig

    if plan is None:
        plan = FaultPlan.randomized(seed, faults=faults)
    platform = Platform.create(seed=seed, fault_plan=plan)

    def boot(i: int) -> int:
        config = DomainConfig(name=f"chaos{i}", memory_mb=4,
                              vifs=[VifConfig(ip=f"10.0.9.{i + 1}")],
                              max_clones=256)
        return platform.xl.create(config, app=UdpServerApp()).domid

    def ip_of(domain: Any) -> str | None:
        vifs = domain.frontends.get("vif")
        return vifs[0].ip if vifs else None

    def transaction(root: int, round_index: int) -> None:
        path = f"/chaos/round{round_index}/d{root}"
        platform.dom0.handle.run_transaction(
            lambda h, tid: h.t_write(tid, path, str(round_index)))

    return _chaos_run(
        platform, plan, platform.hypervisor.domains, audit_platform,
        seed=seed, faults=faults, parents=parents, rounds=rounds,
        batch=batch, boot=boot, clone=platform.xl.clone,
        destroy=platform.xl.destroy, ip_of=ip_of,
        send_to_guest=platform.dom0.send_to_guest, transaction=transaction)

