"""NGINX HTTP throughput: worker processes vs worker clones (Fig 7).

On Linux, NGINX forks one worker per core and relies on SO_REUSEPORT
socket sharding; the kernel load-balances incoming connections. With
unikernel clones, each worker is a clone whose vif sits behind the
family bond, so load balancing happens in Dom0 and the unikernel needs
no socket sharding (paper §7.1).

Request service is modelled at the fluid level (simulating 120 k
requests/s packet by packet would be pointless); the per-request
service costs below are the workload calibration. Connection-to-worker
distribution, however, goes through the *real* bond hash, so skew from
the layer3+4 policy shows up faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidArgumentError
from repro.guest.api import GuestAPI
from repro.guest.app import GuestApp
from repro.guest.linux import LinuxProcess
from repro.net.packets import Flow
from repro.sim import DeterministicRNG
from repro.sim.units import MIB, SEC
from repro.toolstack.config import DomainConfig, VifConfig

# ---------------------------------------------------------------------
# Workload calibration (Fig 7: ~27-28 k req/s per process worker and
# ~30 k per clone worker; clones win because "each CPU core is used
# exclusively by its pinned worker clone and because it avoids switches
# between user and kernel space").
# ---------------------------------------------------------------------
#: Per-request service time of a worker running as a Linux process:
#: parsing + response + socket syscalls + scheduler interference.
SERVICE_US_PROCESS = 36.0
#: Per-request service time of a pinned worker clone (PV ring I/O, no
#: user/kernel crossings).
SERVICE_US_CLONE = 33.0
#: Run-to-run throughput noise (std-dev fraction): processes vary more.
NOISE_PROCESS = 0.055
NOISE_CLONE = 0.015
#: Connections a worker needs before it is saturated.
SATURATION_CONNECTIONS = 32
#: Tail inflation over the mean (p99/mean) per deployment style: the
#: kernel path adds scheduling jitter the pinned PV path avoids.
TAIL_FACTOR_PROCESS = 1.35
TAIL_FACTOR_CLONE = 1.10


class NginxApp(GuestApp):
    """NGINX master (and, after cloning, workers) in a unikernel."""

    image_name = "unikraft-nginx"

    def __init__(self, listen_port: int = 80) -> None:
        self.listen_port = listen_port
        self.is_worker = True  # the master also serves (worker 0)
        self.requests_served = 0

    def main(self, api: GuestAPI) -> None:
        """Listen on the HTTP port."""
        api.udp_bind(self.listen_port, lambda p: None)

    def on_cloned(self, api: GuestAPI, child_index: int) -> None:
        """Worker start: the inherited listener keeps serving."""
        # Workers inherit the listening socket; the bond in Dom0 does
        # the load balancing, so no SO_REUSEPORT equivalent is needed.
        self.is_worker = True


@dataclass
class WrkResult:
    """One wrk run (paper: 400 connections/worker, 5 s, repeated 30x)."""

    workers: int
    duration_s: float
    total_requests: int
    throughput_rps: float
    per_worker_connections: list[int]
    #: Closed-loop response latency (Little's law: conns / throughput).
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0


def _latencies(shares: list[float], rates: list[float],
               tail_factor: float) -> tuple[float, float]:
    """Per-worker closed-loop latency via Little's law, aggregated."""
    means = [1000.0 * conns / rate
             for conns, rate in zip(shares, rates) if rate > 0]
    if not means:
        return 0.0, 0.0
    mean = sum(means) / len(means)
    return mean, max(means) * tail_factor


class NginxCloneCluster:
    """Master + (n-1) worker clones behind the family bond."""

    def __init__(self, platform, workers: int, ip: str = "10.0.2.1") -> None:
        if workers < 1:
            raise InvalidArgumentError(f"need at least one worker: {workers}")
        cpus = platform.hypervisor.cpus
        if workers > 2 * cpus:
            raise InvalidArgumentError(
                f"{workers} workers on {cpus} cores is past the useful range")
        self.platform = platform
        self.workers = workers
        self.ip = ip
        config = DomainConfig(
            name=f"nginx-{ip}", memory_mb=16, kernel="unikraft-nginx",
            vifs=[VifConfig(ip=ip)], max_clones=max(0, workers - 1))
        self.master = platform.xl.create(config, app=NginxApp())
        # Pin the master to core 0, clones round-robin over the cores
        # ("each CPU core is used exclusively by its pinned worker" when
        # workers <= cores; beyond that the credit scheduler shares).
        platform.domctl.set_vcpu_affinity(0, self.master.domid, 0, {0})
        self.clone_ids: list[int] = []
        if workers > 1:
            self.clone_ids = platform.cloneop.clone(self.master.domid,
                                                    count=workers - 1)
            for i, domid in enumerate(self.clone_ids, start=1):
                platform.domctl.set_vcpu_affinity(0, domid, 0, {i % cpus})

    def worker_domids(self) -> list[int]:
        """Master first, then the clones."""
        return [self.master.domid] + self.clone_ids

    def worker_ports(self) -> list:
        """Bond slave ports, one per serving worker."""
        if self.workers == 1:
            # Single worker: no bond was formed; the master serves alone.
            return [None]
        bond = self.platform.dom0.family_bond(self.ip)
        return list(bond.slaves)

    def run_wrk(self, rng: DeterministicRNG, duration_s: float = 5.0,
                connections_per_worker: int = 400) -> WrkResult:
        """One wrk closed-loop run against the cluster."""
        total_connections = connections_per_worker * self.workers
        shares = self._connection_shares(rng, total_connections)
        scheduler = self.platform.hypervisor.scheduler
        throughput = 0.0
        rates = []
        for domid, conns in zip(self.worker_domids(), shares):
            # Each worker gets its credit-scheduler share of a core: a
            # full core when pinned exclusively (the paper's setup),
            # less when workers outnumber cores.
            cpu_share = scheduler.cpu_share(domid)
            rate = cpu_share * 1e6 / SERVICE_US_CLONE
            rate *= 1.0 + rng.gauss(0.0, NOISE_CLONE)
            utilization = min(1.0, conns / SATURATION_CONNECTIONS)
            rates.append(rate * utilization)
            throughput += rate * utilization
        self.platform.clock.charge(duration_s * SEC)
        total = int(throughput * duration_s)
        p50, p99 = _latencies(shares, rates, TAIL_FACTOR_CLONE)
        return WrkResult(self.workers, duration_s, total, throughput, shares,
                         latency_p50_ms=p50, latency_p99_ms=p99)

    def _connection_shares(self, rng: DeterministicRNG,
                           total_connections: int) -> list[int]:
        """Distribute wrk's connections over workers via the real bond
        hash (ephemeral source ports)."""
        if self.workers == 1:
            return [total_connections]
        bond = self.platform.dom0.family_bond(self.ip)
        counts: dict[str, int] = {s.name: 0 for s in bond.slaves}
        for _ in range(total_connections):
            flow = Flow(src_ip="10.0.0.1", dst_ip=self.ip,
                        src_port=rng.randint(32768, 60999), dst_port=80,
                        proto="tcp")
            slave = bond.select_slave(flow)
            counts[slave.name] += 1
        return list(counts.values())

    def destroy(self) -> None:
        """Tear the whole cluster down."""
        for domid in self.clone_ids:
            self.platform.xl.destroy(domid)
        self.platform.xl.destroy(self.master.domid)


class NginxProcessCluster:
    """Baseline: NGINX master + forked workers with socket sharding."""

    def __init__(self, clock, costs, workers: int) -> None:
        if workers < 1:
            raise InvalidArgumentError(f"need at least one worker: {workers}")
        self.workers = workers
        self.master = LinuxProcess(clock, costs, "nginx-master",
                                   resident_bytes=4 * MIB)
        self.worker_processes = []
        for _ in range(workers):
            child, _duration = self.master.fork()
            self.worker_processes.append(child)
        self.clock = clock

    def run_wrk(self, rng: DeterministicRNG, duration_s: float = 5.0,
                connections_per_worker: int = 400) -> WrkResult:
        """One wrk closed-loop run against the process workers."""
        total_connections = connections_per_worker * self.workers
        # SO_REUSEPORT: the kernel hashes each connection to a listener.
        shares = [0] * self.workers
        for _ in range(total_connections):
            shares[rng.randint(0, self.workers - 1)] += 1
        throughput = 0.0
        rates = []
        for conns in shares:
            rate = 1e6 / SERVICE_US_PROCESS
            rate *= 1.0 + rng.gauss(0.0, NOISE_PROCESS)
            utilization = min(1.0, conns / SATURATION_CONNECTIONS)
            rates.append(rate * utilization)
            throughput += rate * utilization
        self.clock.charge(duration_s * SEC)
        total = int(throughput * duration_s)
        p50, p99 = _latencies(shares, rates, TAIL_FACTOR_PROCESS)
        return WrkResult(self.workers, duration_s, total, throughput, shares,
                         latency_p50_ms=p50, latency_p99_ms=p99)
