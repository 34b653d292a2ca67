"""Per-layer span recording from outside the program.

:class:`SpanRecorder` installs timing wrappers around each layer's
public functions (the :data:`TARGETS` table) and removes them again;
nothing under ``src/`` changes. A span records its name, parent, op id,
host start/end (process CPU seconds) and the virtual time charged while
it ran, summed over every clock of the world. A layer's self time is a
span's duration minus the durations of its direct child spans, so the
self times of one op plus its unattributed time add up to the op's
traced time exactly.
"""

from __future__ import annotations

import functools
import importlib

from calib import host_clock

#: (span name, module, class, attribute). The span's layer is the part
#: of its name before the first dot.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("toolstack.create", "repro.toolstack.xl", "XL", "create"),
    ("toolstack.destroy", "repro.toolstack.xl", "XL", "destroy"),
    ("core.clone", "repro.core.cloneop", "CloneOp", "clone"),
    # The xencloned second stage runs under the VIRQ_CLONED dispatch.
    ("core.second_stage", "repro.xen.hypervisor", "Hypervisor",
     "notify_cloned"),
    ("core.second_stage", "repro.xen.hypervisor", "Hypervisor",
     "flush_cloned"),
    ("xen.create_domain", "repro.xen.hypervisor", "Hypervisor",
     "create_domain"),
    ("xen.destroy_domain", "repro.xen.hypervisor", "Hypervisor",
     "destroy_domain"),
    ("xen.send_event", "repro.xen.hypervisor", "Hypervisor", "send_event"),
    ("xen.write_range", "repro.xen.memory", "GuestMemory", "write_range"),
    ("xen.total_pages", "repro.xen.memory", "GuestMemory", "total_pages"),
    ("xenstore.write_node", "repro.xenstore.store", "XenstoreDaemon",
     "write_node"),
    ("xenstore.read_node", "repro.xenstore.store", "XenstoreDaemon",
     "read_node"),
    ("xenstore.remove_node", "repro.xenstore.store", "XenstoreDaemon",
     "remove_node"),
    ("xenstore.fire_watches", "repro.xenstore.store", "XenstoreDaemon",
     "fire_watches"),
    ("xenstore.clone", "repro.xenstore.client", "XsHandle", "clone"),
    ("xenstore.run_transaction", "repro.xenstore.client", "XsHandle",
     "run_transaction"),
    ("devices.p9_clone", "repro.devices.p9", "P9Service", "clone"),
    ("devices.p9_remove", "repro.devices.p9", "P9Service", "remove"),
    ("devices.netfront_clone", "repro.devices.vif", "NetFrontend",
     "clone_for"),
    ("devices.netback_remove", "repro.devices.vif", "NetBackendDriver",
     "remove"),
    ("net.bridge_forward", "repro.net.bridge", "Bridge", "forward"),
    ("net.bond_forward", "repro.net.bond", "BondInterface", "forward"),
    ("net.bond_enslave", "repro.net.bond", "BondInterface", "enslave"),
    ("net.bond_release", "repro.net.bond", "BondInterface", "release"),
    ("obs.span", "repro.obs.tracer", "Tracer", "span"),
    ("obs.span_enter", "repro.obs.tracer", "_OpenSpan", "__enter__"),
    ("obs.span_exit", "repro.obs.tracer", "_OpenSpan", "__exit__"),
    ("obs.count", "repro.obs.tracer", "Tracer", "count"),
    ("obs.observe", "repro.obs.tracer", "Tracer", "observe"),
    ("obs.event", "repro.obs.tracer", "Tracer", "event"),
    ("sim.run", "repro.sim.engine", "Engine", "run"),
    ("sim.run_until", "repro.sim.engine", "Engine", "run_until"),
    ("sim.step", "repro.sim.engine", "Engine", "step"),
    ("fleet.create_family", "repro.fleet.fleet", "Fleet", "create_family"),
    ("fleet.clone_family", "repro.fleet.fleet", "Fleet", "clone_family"),
    ("fleet.tick", "repro.fleet.fleet", "Fleet", "tick"),
    ("fleet.destroy_family", "repro.fleet.fleet", "Fleet", "destroy_family"),
    ("fleet.refresh", "repro.frontdoor.dispatch", "FrontDoor", "refresh"),
    ("migration.plan_drain", "repro.fleet.migration", "MigrationPlanner",
     "plan_drain"),
    ("migration.tick", "repro.fleet.migration", "MigrationPlanner", "tick"),
    ("frontdoor.run_workload", "repro.frontdoor.dispatch", "FrontDoor",
     "run_workload"),
    ("resilience.take", "repro.frontdoor.resilience", "TokenBucket", "take"),
    ("resilience.grant", "repro.frontdoor.resilience", "RetryBudget",
     "grant"),
    ("resilience.allow_route", "repro.frontdoor.resilience",
     "ResilienceState", "allow_route"),
    ("resilience.record_success", "repro.frontdoor.resilience",
     "ResilienceState", "record_success"),
    ("resilience.record_failure", "repro.frontdoor.resilience",
     "ResilienceState", "record_failure"),
    ("resilience.effective_clone_factor", "repro.frontdoor.resilience",
     "ResilienceState", "effective_clone_factor"),
    ("control.handle", "repro.frontdoor.control", "ControlPlane", "handle"),
)

#: Layers in report order (every span name starts with one of them).
LAYERS = ("toolstack", "core", "xen", "xenstore", "devices", "net", "obs",
          "sim", "fleet", "migration", "frontdoor", "resilience", "control")

_MISSING = object()


class SpanRecorder:
    """Records nested spans while installed; rolls them up per name.

    ``vnow`` returns the world's current virtual time (the sum of all
    its clocks, so a charge to any host's clock counts). ``keep_ops``
    bounds how many ops keep their full span lists for export; every op
    still feeds the per-name aggregate.
    """

    def __init__(self, vnow, keep_ops: int = 2) -> None:
        self.vnow = vnow
        self.keep_ops = keep_ops
        #: Open spans: [sid, name, t0, v0, child_host_s, child_sim_ms].
        self._stack: list[list] = []
        self._next_sid = 1
        self._saved: list[tuple[object, str, object]] = []
        self.op_id: int | None = None
        #: name -> [calls, self host s, self sim ms] for the current op.
        self.op_agg: dict[str, list] = {}
        #: Host seconds the current op's top-level spans covered.
        self.op_covered_s = 0.0
        #: Exported spans: (op, sid, parent, name, t0, t1, v0, v1).
        self.spans: list[tuple] = []
        self._kept_ops: set[int] = set()
        #: Spans are recorded only between ``begin_op`` and ``end_op``,
        #: so the benchmark's own checks never count as layer time.
        self.active = False

    # Installation -------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for span_name, module, cls_name, attr in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__.get(attr, _MISSING)
            current = getattr(cls, attr)
            if isinstance(current, property):
                wrapped = property(self._wrap(span_name, current.fget))
            else:
                wrapped = self._wrap(span_name, current)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._saved = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = host_clock
        vnow = self.vnow

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_sid
            self._next_sid = sid + 1
            frame = [sid, name, clock(), vnow(), 0.0, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                v1 = vnow()
                stack.pop()
                self._close(frame, t1, v1)

        return wrapper

    def _close(self, frame: list, t1: float, v1: float) -> None:
        sid, name, t0, v0, child_s, child_v = frame
        host_s = t1 - t0
        sim_ms = v1 - v0
        agg = self.op_agg.get(name)
        if agg is None:
            agg = self.op_agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += host_s - child_s
        agg[2] += sim_ms - child_v
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[4] += host_s
            parent[5] += sim_ms
            parent_sid = parent[0]
        else:
            self.op_covered_s += host_s
            parent_sid = 0
        if self.op_id in self._kept_ops:
            self.spans.append((self.op_id, sid, parent_sid, name,
                               t0, t1, v0, v1))

    # Per-op bookkeeping ---------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_agg = {}
        self.op_covered_s = 0.0
        if len(self._kept_ops) < self.keep_ops:
            self._kept_ops.add(op_id)
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def export(self) -> list[dict]:
        keys = ("op", "sid", "parent", "name", "t0_s", "t1_s", "v0_ms",
                "v1_ms")
        return [dict(zip(keys, span)) for span in self.spans]


class LayerRollup:
    """Calibrated per-layer totals over the traced ops of a run."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_ms = 0.0
        self.unattributed_ms = 0.0
        #: span name -> [calls, calibrated self ms, self sim ms]
        self.by_name: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def add_op(self, recorder: SpanRecorder, raw_s: float, factor: float,
               counter_delta: dict[str, float]) -> None:
        """Fold one traced op (``raw_s`` host seconds, calibration
        ``factor``) into the totals."""
        self.ops += 1
        self.op_ms += raw_s * factor * 1000.0
        self.unattributed_ms += (raw_s - recorder.op_covered_s) * factor * 1000.0
        for name, (calls, self_s, sim_ms) in recorder.op_agg.items():
            agg = self.by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s * factor * 1000.0
            agg[2] += sim_ms
        for key, value in counter_delta.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def layer_totals(self, prefix: str) -> list:
        """[calls, self ms, sim ms] over span names under ``prefix``."""
        total = [0, 0.0, 0.0]
        for name, agg in self.by_name.items():
            if name == prefix or name.startswith(prefix + "."):
                for i in range(3):
                    total[i] += agg[i]
        return total

    def metrics(self, untraced_op_ms: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as per-traced-op means and ratios."""
        n = max(self.ops, 1)
        c = self.counters
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for layer in LAYERS:
            calls, self_ms, sim_ms = self.layer_totals(layer)
            put(f"{layer}.calls", calls / n, "count")
            put(f"{layer}.self_ms", self_ms / n, "ms")
            if layer in ("toolstack", "core", "xen", "xenstore", "devices",
                         "fleet"):
                put(f"{layer}.sim_ms", sim_ms / n, "ms")
        for sub in ("core.second_stage", "xen.total_pages",
                    "xenstore.write_node", "xenstore.fire_watches",
                    "xenstore.clone"):
            put(f"{sub}.self_ms", self.layer_totals(sub)[1] / n, "ms")
        put("xen.total_pages.calls", self.layer_totals("xen.total_pages")[0] / n,
            "count")
        for key in ("core.children", "core.pages_copied", "core.pages_shared",
                    "xenstore.requests", "xenstore.txn_conflicts",
                    "xenstore.log_rotations", "fleet.ticks",
                    "migration.pages_streamed", "migration.pages_aborted",
                    "frontdoor.copies", "frontdoor.failed",
                    "frontdoor.timed_out", "resilience.shed",
                    "resilience.retries", "resilience.breaker_trips"):
            put(key, c.get(key, 0.0) / n, "count")
        delivered = c.get("net.flood_delivered", 0.0)
        put("net.flood_useful",
            ratio(delivered, delivered + c.get("net.flood_filtered", 0.0)),
            "ratio")
        streamed = c.get("migration.pages_streamed", 0.0)
        put("migration.useful",
            ratio(streamed, streamed + c.get("migration.pages_aborted", 0.0)),
            "ratio")
        put("frontdoor.useful", ratio(c.get("frontdoor.copies_won", 0.0),
                                      c.get("frontdoor.copies", 0.0)), "ratio")
        put("frontdoor.host_us_per_request",
            ratio(self.layer_totals("frontdoor")[1] * 1000.0,
                  c.get("frontdoor.requests", 0.0)), "us")
        put("frontdoor.sim_wait_ms",
            ratio(c.get("frontdoor.latency_sum_ms", 0.0)
                  - c.get("frontdoor.demand_sum_ms", 0.0),
                  c.get("frontdoor.completed", 0.0)), "ms")
        put("trace.op_ms", self.op_ms / n, "ms")
        put("trace.unattributed_ms", self.unattributed_ms / n, "ms")
        put("trace.overhead_ms", self.op_ms / n - untraced_op_ms, "ms")
        return out
