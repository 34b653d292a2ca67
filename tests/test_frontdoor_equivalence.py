"""Tests: the virtual-time PS rewrite is bit-identical to the old model.

The front door's :class:`ReplicaServer` was rewritten from naive
per-job decrement (O(n) ``advance``, O(n) ``min()`` departure scan) to
virtual-time accounting (O(1) ``advance``, heap-hinted departures with
lazy exact replay of the share history). Because float subtraction is
not associative, that rewrite could silently perturb every remaining-
work value by an ulp — and an ulp is enough to flip a ``round(lat, 9)``
fingerprint digit over a million requests. These tests pin the contract
that it does not:

* a hypothesis state machine drives the new server and a verbatim copy
  of the **old per-job-decrement implementation (the oracle)** through
  random admit/advance/depart/cancel/kill/degrade interleavings and
  requires bit-equal departure times, remaining work, finished sets and
  work ledgers at every step;
* end-to-end golden fingerprints captured from the old implementation
  (plain runs, timeout runs, composed host-kill + autoscale +
  heartbeat runs, and resilient bursts dispatched across a host drain)
  must still come out of the new code byte for byte, with clean
  conservation ledgers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet
from repro.frontdoor import (
    AutoscalePolicy,
    FleetSession,
    ReplicaServer,
    ResiliencePolicy,
)
from repro.frontdoor.dispatch import EPS, _Copy, _Request


# ----------------------------------------------------------------------
# the oracle: the old per-job-decrement server, kept verbatim
# ----------------------------------------------------------------------

class _OracleJob:
    __slots__ = ("remaining_ms", "consumed_ms")

    def __init__(self, demand_ms):
        self.remaining_ms = demand_ms
        self.consumed_ms = 0.0


class _OracleServer:
    """The pre-rewrite ReplicaServer service model, decrement-per-job."""

    def __init__(self, now_ms=0.0):
        self.rate = 1.0
        self.jobs = []
        self.last_ms = now_ms
        self.work_done_ms = 0.0

    def advance(self, now_ms):
        dt = now_ms - self.last_ms
        self.last_ms = now_ms
        if dt <= 0.0 or not self.jobs:
            return
        share = dt * self.rate / len(self.jobs)
        for job in self.jobs:
            job.remaining_ms -= share
            job.consumed_ms += share
        self.work_done_ms += dt * self.rate

    def next_departure_ms(self):
        soonest = min(job.remaining_ms for job in self.jobs)
        return self.last_ms + max(soonest, 0.0) * len(self.jobs) / self.rate

    def finished(self):
        return [job for job in self.jobs if job.remaining_ms <= EPS]


# ----------------------------------------------------------------------
# random-interleaving equivalence (the hypothesis property)
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"),
                  st.floats(min_value=0.01, max_value=50.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=25.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("depart"), st.just(0.0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("kill"), st.just(0.0)),
        st.tuples(st.just("degrade"), st.just(0.0)),
    ),
    min_size=1, max_size=120)


def _check_parity(server, oracle, pairs):
    """Every simulation-visible value must be bit-equal, not approx."""
    assert server.work_done_ms == oracle.work_done_ms
    assert server.last_ms == oracle.last_ms
    assert len(server.jobs) == len(pairs)
    for copy, job in pairs:
        assert server.exact_remaining(copy) == job.remaining_ms
    if pairs:
        assert server.next_departure_ms() == oracle.next_departure_ms()


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_virtual_time_server_matches_decrement_oracle(ops):
    server = ReplicaServer("h0", 1, now_ms=0.0)
    oracle = _OracleServer(now_ms=0.0)
    #: index-aligned (new copy, oracle job) pairs — jobs lists mirror.
    pairs = []
    now = 0.0
    rid = 0
    for op, arg in ops:
        if op == "admit":
            if len(pairs) >= 64:
                continue
            request = _Request(rid=rid, t_arrive_ms=now, demand_ms=arg)
            rid += 1
            copy = _Copy(request, server)
            server.advance(now)
            oracle.advance(now)
            server.admit(copy)
            job = _OracleJob(arg)
            oracle.jobs.append(job)
            pairs.append((copy, job))
        elif op == "advance":
            now += arg
            server.advance(now)
            oracle.advance(now)
        elif op == "depart":
            if not pairs:
                continue
            t_new = server.next_departure_ms()
            t_old = oracle.next_departure_ms()
            assert t_new == t_old
            if t_new > now:
                now = t_new
            server.advance(now)
            oracle.advance(now)
            done_new = server.finished_jobs()
            done_old = oracle.finished()
            # Same set, and the new path reports them in admission
            # (jobs) order exactly like the old list scan did.
            assert [job for copy, job in pairs
                    if copy in done_new] == done_old
            assert done_new == [copy for copy, job in pairs
                                if copy in done_new]
            for copy in done_new:
                index = next(i for i, (c, _) in enumerate(pairs)
                             if c is copy)
                _, job = pairs.pop(index)
                server.remove(copy)
                oracle.jobs.remove(job)
        elif op == "cancel":
            if not pairs:
                continue
            copy, job = pairs.pop(arg % len(pairs))
            server.advance(now)
            oracle.advance(now)
            server.remove(copy)
            oracle.jobs.remove(job)
        elif op == "kill":
            # Host death: every resident copy is lost at once.
            server.advance(now)
            oracle.advance(now)
            for copy, job in pairs:
                server.remove(copy)
                oracle.jobs.remove(job)
            pairs.clear()
        elif op == "degrade":
            # Rate flips mid-service (DEGRADED marking / repair): the
            # old code changed the rate without advancing first, so the
            # elapsed slice bills at the new rate — replay must match
            # that quirk too.
            new_rate = 0.5 if server.rate == 1.0 else 1.0
            server.rate = new_rate
            oracle.rate = new_rate
        _check_parity(server, oracle, pairs)


# ----------------------------------------------------------------------
# end-to-end golden pins captured from the old implementation
# ----------------------------------------------------------------------

#: (seed, clone_factor, requests, arrival_rps, timeout_ms) ->
#: DispatchResult fingerprint of the pre-rewrite dispatcher.
_PLAIN_GOLDEN = {
    (0xC10E, 1, 2000, 700.0, None):
        "3b33a878243a3134b0acdd43ec87b468049361da26618240b2df3da72ba0f3f9",
    (0xC10E, 2, 2000, 700.0, None):
        "c0948b0ee1880ed427810394313d3e021c1780aaa6b7a7a8b1b6798a0c1397e3",
    (0xC10E, 3, 1500, 2500.0, 30.0):
        "387196cd818d2732d6351b645328c83da866b5134ad6500b767e996cd14c6f29",
    (0xBEEF, 4, 1200, 3000.0, None):
        "ef1b39456acb3992cd86e4f706c895bc511becf1ee2e0d9bb3de0d84650e6c1a",
    (3, 6, 900, 3500.0, 15.0):
        "5de49d478b9ff13390bc09339f5b47db50f7e272dccfbdc2c9e0561e1cb837db",
}

#: (seed, clone_factor, requests, kill_after) -> fingerprint of a
#: composed run: heartbeat-detected host kill + autoscale + timeouts.
_COMPOSED_GOLDEN = {
    (0xC10E, 2, 1500, 4):
        "57c4214b0031e6523dce6cc177de3fe84f0a40fbbdde71c683b32d82a649d1db",
    (0xC10E, 3, 1200, 6):
        "396efdc577fdd79f68ee3cb1de78a6e351db7d57b2f18afe1950e60b01dd07cb",
    (0xBEEF, 2, 1000, 3):
        "533c040ea51aa94f73ea47e64b596529cb39f459dea5cea2a39cc9e52f98e49b",
    (7, 4, 800, 5):
        "86e0cc8650764eaf3718ab0984d6304f567cd2132dba8ed9213a350cefbb8740",
}


def _plain_fingerprint(seed, d, requests, rps, timeout):
    with FleetSession(hosts=2, seed=seed) as sess:
        sess.create_family("pin", ip="10.66.0.1")
        sess.clone("pin", count=5)
        result = sess.dispatch("pin", "faas", requests=requests,
                               arrival_rps=rps, clone_factor=d,
                               timeout_ms=timeout, label="pin")
    return result.fingerprint


def _composed_fingerprint(seed, d, requests, kill_after):
    plan = FaultPlan(specs=[FaultSpec(site="host.crash",
                                      match={"op": "heartbeat"},
                                      after=kill_after, count=1)],
                     name=f"equiv-{seed}")
    with FleetSession(hosts=3, seed=seed, plan=plan) as sess:
        sess.create_family("eq", ip="10.77.0.1")
        sess.clone("eq", count=4)
        policy = AutoscalePolicy(threshold_rps=5.0, check_interval_ms=150.0,
                                 max_replicas=12, scale_step=2)
        result = sess.dispatch("eq", "faas", requests=requests,
                               arrival_rps=900.0, clone_factor=d,
                               autoscale=policy, heartbeat_every_ms=40.0,
                               timeout_ms=80.0, label="equiv")
        violations = audit_fleet(sess.fleet, sess.frontdoor)
        sess.close(check=False)  # a host was killed on purpose
    return result.fingerprint, violations


@pytest.mark.parametrize("params", sorted(_PLAIN_GOLDEN))
def test_plain_runs_match_old_implementation(params):
    seed, d, requests, rps, timeout = params
    assert _plain_fingerprint(seed, d, requests, rps, timeout) \
        == _PLAIN_GOLDEN[params]


@pytest.mark.parametrize("params", sorted(_COMPOSED_GOLDEN))
def test_composed_kill_runs_match_old_implementation(params):
    seed, d, requests, kill_after = params
    fingerprint, violations = _composed_fingerprint(seed, d, requests,
                                                    kill_after)
    assert violations == []
    assert fingerprint == _COMPOSED_GOLDEN[params]


#: Fingerprints of four resilient heartbeat + autoscale bursts on one
#: fleet, the last dispatched while its origin host drains: captured
#: from the two-scheduler dispatcher (arrivals and departures as engine
#: events whenever a periodic was armed). Heartbeats and clone-outs
#: charge the shared clock mid-run, past pending departure hints, so
#: these pin how a late hint is re-ordered. The run labels pick RNG
#: streams under which flooring a re-pushed hint at the clock instead
#: of at its popped bound changes the drain burst's fingerprint.
_DRAIN_GOLDEN = (
    "69af2ef225a42ccfbfa3962a167fd312d65b3dd884f72bf4c549115290896bbe",
    "4ab16276ed8281bd2d881d966b15f9ed56d53ee4824e48fb7a515d4aa6b08221",
    "db3e06a302e77a2664477b119a9e5e8218904b927d9fe7ce1cecf6af585d3095",
    "327cacc0a2f668e94d829e997bc09767d3537a5cb5054a5ec71d7820e1ef2115",
)


def test_bursts_across_a_drain_match_old_implementation():
    policy = AutoscalePolicy(threshold_rps=150, check_interval_ms=200,
                             max_replicas=12, scale_step=2)
    fingerprints = []
    with FleetSession(hosts=4, seed=0xC10E,
                      resilience=ResiliencePolicy()) as sess:
        for burst in range(4):
            name = f"drain-{burst}"
            placement = sess.create_family(name, ip=f"10.88.{burst}.1")
            sess.clone(name, count=3)
            drain = burst == 3
            if drain:
                sess.drain_host(placement.host)
            result = sess.dispatch(name, "faas", requests=1000,
                                   arrival_rps=1260.0, clone_factor=2,
                                   heartbeat_every_ms=50.0, autoscale=policy,
                                   label=f"drain:1:{burst}")
            if drain:
                for _ in range(400):
                    family = sess.handle("GET", f"/families/{name}")
                    if not family.body["migrating"]:
                        break
                    sess.fleet.tick()
                else:
                    pytest.fail("drain migration never finished")
                sess.fleet.repair_host(placement.host)
            assert audit_fleet(sess.fleet, sess.frontdoor) == []
            sess.destroy_family(name)
            fingerprints.append(result.fingerprint)
    assert tuple(fingerprints) == _DRAIN_GOLDEN
