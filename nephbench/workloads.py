"""The benchmark's three workloads, driven through the public API.

Each workload builds its world in :meth:`setup` (including discarded
warm-up ops), runs one op per :meth:`run_op` call (the timed part), and
checks that op's outputs in :meth:`check_op` (untimed). The seed makes
every input: the program seed, guest addresses, per-child dirty-page
counts and the dispatch label each op's RNG streams fork from.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from typing import Any

from repro import FleetSession, NepheleSession
from repro.apps.udp_server import UdpServerApp
from repro.errors import ReproError
from repro.fleet.chaos import audit_fleet
from repro.frontdoor.dispatch import AutoscalePolicy
from repro.frontdoor.resilience import ResiliencePolicy
from repro.toolstack.config import DomainConfig, P9Config, VifConfig

PAGE = 4096


@dataclass
class OpResult:
    """One op's checked outputs."""

    units_attempted: int
    units_ok: int
    #: Virtual latency (ms) of every unit that succeeded.
    latencies: list[float]
    #: Output-check failures; an op is ok when this stays empty.
    problems: list[str] = field(default_factory=list)
    #: Field -> short value of the op's virtual outputs (the digest).
    digest: dict[str, str] = field(default_factory=dict)
    #: Extra per-op tallies for the per-layer rollup.
    extra: dict[str, float] = field(default_factory=dict)


def _sha(values: Any) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _ip(rng: random.Random, net: int) -> str:
    return f"10.{net}.{rng.randrange(250)}.{1 + rng.randrange(250)}"


class Workload:
    """Common shape; subclasses set ``name``, ``period`` and the ops."""

    name = ""
    #: Ops per rotation of the op mix; op counts are multiples of it.
    period = 1
    #: Warm-up ops run (and discarded) at the end of every set-up.
    warmup_ops = 1
    #: Summarise sim latency per op (True) or pool every unit of the
    #: run (False); see ``sim_percentile`` in run.py.
    per_op_percentiles = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # Subclass hooks -----------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int, warmup: bool = False) -> Any:
        raise NotImplementedError

    def check_op(self, index: int, raw: Any) -> OpResult:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        raise NotImplementedError

    def clocks(self) -> list:
        """Every virtual clock the world charges (for span sim time)."""
        raise NotImplementedError

    def platforms(self) -> list:
        raise NotImplementedError

    # Shared -------------------------------------------------------------
    def setup(self) -> None:
        """Build the world and run the discarded warm-up ops."""
        self.build()
        for k in range(self.warmup_ops):
            self.run_op(k, warmup=True)

    def counters(self) -> dict[str, float]:
        """Cumulative program counters read at op boundaries."""
        out = dict.fromkeys((
            "core.children", "core.pages_copied", "core.pages_shared",
            "xenstore.requests", "xenstore.txn_conflicts",
            "xenstore.log_rotations", "net.flood_delivered",
            "net.flood_filtered"), 0)
        for platform in self.platforms():
            out["core.children"] += platform.cloneop.stats["clones"]
            xs = platform.xenstore
            out["xenstore.requests"] += xs.stats["requests"]
            out["xenstore.txn_conflicts"] += xs.transactions.stats["conflicts"]
            out["xenstore.log_rotations"] += xs.access_log.rotations
            tracer = platform.tracer
            if tracer.enabled:
                counters = tracer.registry.counters
                for key, name in (
                        ("core.pages_copied", "clone.pages_copied"),
                        ("core.pages_shared", "clone.pages_shared"),
                        ("net.flood_delivered", "net.bridge.flood_deliveries"),
                        ("net.flood_filtered", "net.bridge.flood_filtered")):
                    counter = counters.get(name)
                    if counter is not None:
                        out[key] += counter.value
        return out


# ----------------------------------------------------------------------
# host_churn: the paper's single-host clone path (Figs 4-6)
# ----------------------------------------------------------------------
CHURN_BATCHES = 8
CHURN_BATCH = 16
CHURN_MIN_DIRTY = 8
CHURN_MAX_DIRTY = 24
READY_PORT = 9999


class ChurnApp(UdpServerApp):
    """The Fig 4 UDP server whose children dirty heap pages first.

    The parent allocates (and so privately owns) a heap region at boot;
    child ``k`` of the family writes ``dirty[k]`` of its pages (COW
    faults) before announcing readiness to Dom0 through the bond.
    """

    def __init__(self, dirty: tuple[int, ...] = ()) -> None:
        super().__init__(notify_port=READY_PORT)
        self.dirty = dirty
        self.forked = 0
        self.region = None
        self.pages = 0

    def main(self, api) -> None:
        self.region = api.alloc(CHURN_MAX_DIRTY * PAGE)
        super().main(api)

    def clone_for_child(self) -> "ChurnApp":
        child = ChurnApp()
        child.notify_port = self.notify_port
        child.listen_port = self.listen_port
        child.region = self.region
        child.pages = self.dirty[self.forked % len(self.dirty)]
        self.forked += 1
        return child

    def on_cloned(self, api, child_index: int) -> None:
        api.touch(self.region, self.pages)
        super().on_cloned(api, child_index)


class HostChurn(Workload):
    """One family lifecycle per op on one traced ``NepheleSession``."""

    name = "host_churn"

    def build(self) -> None:
        self.session = NepheleSession(seed=self.seed)
        self.ready: list[tuple[float, int]] = []
        self.session.dom0.listen(
            READY_PORT,
            lambda pkt: self.ready.append((self.session.now, pkt.payload[1])))

    def _inputs(self, index: int, warmup: bool) -> tuple[str, str, tuple]:
        rng = random.Random(f"{self.seed}:{'w' if warmup else 'op'}{index}")
        ip = _ip(rng, 1)
        dirty = tuple(rng.randint(CHURN_MIN_DIRTY, CHURN_MAX_DIRTY)
                      for _ in range(CHURN_BATCHES * CHURN_BATCH))
        name = f"churn-{'w' if warmup else 'op'}{index}"
        return name, ip, dirty

    def run_op(self, index: int, warmup: bool = False) -> Any:
        session = self.session
        name, ip, dirty = self._inputs(index, warmup)
        guests_before = session.platform.guest_count()
        rotations_before = session.xenstore.access_log.rotations
        mark = len(self.ready)
        calls = []
        t0 = session.now
        parent = session.boot(
            DomainConfig(name=name, memory_mb=4, kernel="minios-udp",
                         vifs=[VifConfig(ip=ip)], p9fs=[P9Config()],
                         max_clones=CHURN_BATCHES * CHURN_BATCH),
            app=ChurnApp(dirty))
        calls.append((t0, (parent.domid,), mark, len(self.ready)))
        children: list[int] = []
        for _ in range(CHURN_BATCHES):
            mark = len(self.ready)
            t0 = session.now
            kids = session.clone(parent, count=CHURN_BATCH, from_guest=True)
            calls.append((t0, tuple(kids), mark, len(self.ready)))
            children.extend(kids)
        for domid in children:
            session.destroy(domid)
        session.destroy(parent)
        return {"calls": calls, "guests_before": guests_before,
                "guests_after": session.platform.guest_count(),
                "rotations": (session.xenstore.access_log.rotations
                              - rotations_before),
                "clock": session.now}

    def check_op(self, index: int, raw: Any) -> OpResult:
        latencies: list[float] = []
        problems: list[str] = []
        attempted = ok = 0
        ready_ids: list[int] = []
        for t0, guests, lo, hi in raw["calls"]:
            attempted += len(guests)
            arrived = self.ready[lo:hi]
            got = {domid for _t, domid in arrived}
            missing = set(guests) - got
            if missing:
                problems.append(f"{len(missing)} guests never reported ready")
            for t_ready, domid in arrived:
                if domid in guests:
                    ok += 1
                    ready_ids.append(domid)
                    # Amortized per-guest instantiation time: the call
                    # instantiates len(guests) guests back to back.
                    latencies.append((t_ready - t0) / len(guests))
        if attempted != 1 + CHURN_BATCHES * CHURN_BATCH:
            problems.append(f"{attempted} guests requested")
        if raw["guests_after"] != raw["guests_before"]:
            problems.append(f"{raw['guests_after'] - raw['guests_before']} "
                            "guests left after destroy")
        del self.ready[:]
        digest = {"guests": str(ok), "ready_ms": _sha(latencies),
                  "domids": _sha(ready_ids),
                  "rotations": str(raw["rotations"]),
                  "clock_ms": repr(raw["clock"])}
        return OpResult(attempted, ok, latencies, problems, digest)

    def final_check(self) -> list[str]:
        try:
            self.session.platform.check_invariants()
        except (AssertionError, ReproError) as exc:
            return [f"check_invariants: {exc}"]
        return []

    def close(self) -> None:
        self.session.close(check=False)

    def clocks(self) -> list:
        return [self.session.clock]

    def platforms(self) -> list:
        return [self.session.platform]


# ----------------------------------------------------------------------
# dispatch workloads: the fleet front door
# ----------------------------------------------------------------------
class _Dispatching(Workload):
    """Shared front-door plumbing: per-request latency capture."""

    per_op_percentiles = True

    def _open(self, **kwargs: Any) -> None:
        self.fs = FleetSession(hosts=4, seed=self.seed, **kwargs)
        frontdoor = self.fs.frontdoor
        finalize = frontdoor._finalize

        # Observation only: keep each run's exact per-request latency
        # column (the result carries a few quantiles, not the series)
        # so the benchmark can take its own percentiles per op.
        def capture(run, *args, **kw):
            self._latencies = array("d", run.latencies)
            return finalize(run, *args, **kw)

        frontdoor._finalize = capture
        self._latencies = array("d")

    def _dispatch_outcome(self, result, problems: list[str]) -> OpResult:
        lats = [x for x in self._latencies if x == x]
        offered = result.requests + result.shed
        if result.completed + result.failed + result.timed_out != result.requests:
            problems.append("request conservation broken")
        if len(lats) != result.completed:
            problems.append("latency series disagrees with completed count")
        violations = audit_fleet(self.fs.fleet, self.fs.frontdoor)
        if violations:
            problems.append(f"audit_fleet: {violations[0]}")
        digest = {
            "d": str(result.clone_factor),
            "fingerprint": result.fingerprint[:16],
            "counts": (f"{result.completed}/{result.failed}/"
                       f"{result.timed_out}/{result.shed}/{result.retries}"),
            "clock_ms": repr(self.fs.clock.now),
        }
        extra = {"frontdoor.requests": result.requests,
                 "frontdoor.copies": result.copies,
                 "frontdoor.copies_won": result.copies_won,
                 "frontdoor.failed": result.failed,
                 "frontdoor.timed_out": result.timed_out,
                 "frontdoor.latency_sum_ms": sum(lats),
                 "frontdoor.demand_sum_ms": result.work_useful_ms,
                 "frontdoor.completed": result.completed}
        return OpResult(offered, result.completed, lats, problems, digest,
                        extra)

    def close(self) -> None:
        self.fs.close(check=False)

    def clocks(self) -> list:
        return [self.fs.clock] + [h.platform.clock for h in self.fs.hosts]

    def platforms(self) -> list:
        return [h.platform for h in self.fs.hosts]

    def counters(self) -> dict[str, float]:
        out = super().counters()
        fleet = self.fs.fleet
        stats = self.fs.frontdoor.stats
        out["fleet.ticks"] = fleet.beats
        out["migration.pages_streamed"] = fleet.stats["migration_pages_streamed"]
        out["migration.pages_aborted"] = fleet.stats["migration_pages_aborted"]
        out["resilience.shed"] = stats["shed"]
        out["resilience.retries"] = stats["retries"]
        out["resilience.breaker_trips"] = stats["breaker_trips"]
        return out

    def final_check(self) -> list[str]:
        return [f"audit_fleet: {v}"
                for v in audit_fleet(self.fs.fleet, self.fs.frontdoor)]


STEADY_REPLICAS = 12
STEADY_REQUESTS = 4000
#: Useful utilisation 0.3 of 12 replicas x 300 rps (faas: 3.33 ms mean).
STEADY_RPS = 1080.0
STEADY_FACTORS = (1, 2, 4)


class FrontdoorSteady(_Dispatching):
    """The front door's fast path, sweeping d along the cloning curve."""

    name = "frontdoor_steady"
    period = len(STEADY_FACTORS)
    warmup_ops = len(STEADY_FACTORS)

    def build(self) -> None:
        self._open()
        rng = random.Random(f"{self.seed}:family")
        self.fs.create_family("svc", ip=_ip(rng, 2))
        self.fs.clone("svc", count=STEADY_REPLICAS - 1)
        pool = self.fs.frontdoor.refresh("svc")
        if len(pool) != STEADY_REPLICAS:
            raise ReproError(f"steady family has {len(pool)} replicas")

    def run_op(self, index: int, warmup: bool = False) -> Any:
        return self.fs.dispatch(
            "svc", "faas", requests=STEADY_REQUESTS, arrival_rps=STEADY_RPS,
            clone_factor=STEADY_FACTORS[index % self.period],
            label=f"{self.seed}:{'w' if warmup else 'op'}{index}")

    def check_op(self, index: int, raw: Any) -> OpResult:
        return self._dispatch_outcome(raw, [])


BURST_CLONES = 3
BURST_REQUESTS = 3000
BURST_RPS = 1260.0
BURST_FACTOR = 2
BURST_HEARTBEAT_MS = 50.0
#: Every BURST_DRAIN_EVERY-th op drains the family's origin host first.
BURST_DRAIN_EVERY = 4
#: Heartbeats a drain may still need after the dispatch ends.
BURST_SETTLE_BEATS = 400


class FleetBurst(_Dispatching):
    """The composed production path: one FaaS burst per op."""

    name = "fleet_burst"
    period = BURST_DRAIN_EVERY
    warmup_ops = BURST_DRAIN_EVERY

    def build(self) -> None:
        self._open(resilience=ResiliencePolicy())
        self.autoscale = AutoscalePolicy(
            threshold_rps=150, check_interval_ms=200, max_replicas=12,
            scale_step=2)

    def run_op(self, index: int, warmup: bool = False) -> Any:
        fs = self.fs
        tag = f"{'w' if warmup else 'op'}{index}"
        name = f"burst-{tag}"
        rng = random.Random(f"{self.seed}:{tag}")
        placement = fs.create_family(name, ip=_ip(rng, 3))
        cloned = fs.clone(name, count=BURST_CLONES)
        drain = index % BURST_DRAIN_EVERY == BURST_DRAIN_EVERY - 1
        drained = fs.drain_host(placement.host) if drain else None
        result = fs.dispatch(
            name, "faas", requests=BURST_REQUESTS, arrival_rps=BURST_RPS,
            clone_factor=BURST_FACTOR, heartbeat_every_ms=BURST_HEARTBEAT_MS,
            autoscale=self.autoscale, label=f"{self.seed}:{tag}")
        status = fs.handle("GET", "/status")
        family = fs.handle("GET", f"/families/{name}")
        settle = 0
        if drain:
            while (fs.handle("GET", f"/families/{name}").body["migrating"]
                   and settle < BURST_SETTLE_BEATS):
                fs.fleet.tick()
                settle += 1
            fs.fleet.repair_host(placement.host)
        fs.destroy_family(name)
        return {"placement": placement, "cloned": cloned, "drained": drained,
                "result": result, "status": status.status,
                "family": family.status,
                "replicas": family.body.get("replicas"),
                "clones": family.body.get("clones"),
                "settle": settle,
                "origin_state": fs.fleet.host(placement.host).state.value,
                "alive": name in fs.fleet.families}

    def check_op(self, index: int, raw: Any) -> OpResult:
        problems = []
        if raw["status"] != 200 or raw["family"] != 200:
            problems.append(f"routes answered {raw['status']}/{raw['family']}")
        if raw["cloned"].failed:
            problems.append(f"{raw['cloned'].failed} clones failed")
        if raw["drained"] is not None:
            if raw["settle"] >= BURST_SETTLE_BEATS:
                problems.append("drain migration never finished")
            if raw["origin_state"] != "up":
                problems.append(f"origin host left {raw['origin_state']}")
        if raw["alive"]:
            problems.append("family survived destroy_family")
        outcome = self._dispatch_outcome(raw["result"], problems)
        outcome.digest.update({
            "placement": f"{raw['placement'].host}/{raw['placement'].domid}",
            "cloned": _sha(raw["cloned"].placed),
            "members": _sha((raw["replicas"], raw["clones"])),
            "drain": (str(len(raw["drained"]["migrations"]))
                      if raw["drained"] is not None else "-"),
            "settle": str(raw["settle"]),
        })
        return outcome


WORKLOADS = {cls.name: cls for cls in (HostChurn, FrontdoorSteady, FleetBurst)}
