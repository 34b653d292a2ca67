"""Tests: the REST-ish control plane and the typed result surface."""

import dataclasses

import pytest

import repro
from repro.errors import ReproError
from repro.fleet.fleet import CloneResult, FamilyPlacement
from repro.frontdoor import (
    DispatchTimeout,
    FleetSession,
    FrontDoorError,
    HostInventory,
    NoCapacity,
)


@pytest.fixture
def session():
    with FleetSession(hosts=2) as sess:
        yield sess
        sess.close(check=False)


@pytest.fixture
def populated(session):
    session.create_family("web", ip="10.6.0.1")
    session.clone("web", count=3)
    return session


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------

def test_get_hosts_lists_members(session):
    response = session.handle("GET", "/hosts")
    assert response.status == 200 and response.ok
    assert len(response.body["hosts"]) == 2


def test_get_single_host_and_404(populated):
    response = populated.handle("GET", "/hosts/host0")
    assert response.status == 200
    assert response.body["name"] == "host0"
    assert response.body["state"] == "up"
    assert populated.handle("GET", "/hosts/ghost").status == 404


def test_create_family_lifecycle(session):
    created = session.handle("POST", "/families",
                             {"name": "api", "ip": "10.6.1.1"})
    assert created.status == 201
    assert created.body["family"] == "api"
    assert session.handle("POST", "/families", {"name": "api"}).status == 409
    assert session.handle("POST", "/families", {}).status == 400

    listing = session.handle("GET", "/families")
    assert listing.body["families"] == ["api"]
    detail = session.handle("GET", "/families/api")
    assert detail.status == 200 and detail.body["name"] == "api"

    destroyed = session.handle("DELETE", "/families/api")
    assert destroyed.status == 200
    assert session.handle("GET", "/families/api").status == 404
    assert session.handle("DELETE", "/families/api").status == 404


def test_family_route_reports_topology_epoch(populated):
    before = populated.handle("GET", "/families/web")
    assert before.status == 200
    assert before.body["topology_epoch"] == populated.fleet.topology_epoch
    populated.clone("web", count=1)
    after = populated.handle("GET", "/families/web")
    # Placement changed: a poller keying on the epoch sees it move.
    assert after.body["topology_epoch"] > before.body["topology_epoch"]


def test_clone_route_places_instances(populated):
    response = populated.handle("POST", "/families/web/clone", {"count": 2})
    assert response.status == 200
    assert len(response.body["placed"]) == 2
    assert populated.handle("POST", "/families/none/clone").status == 404


def test_dispatch_route_runs_traffic(populated):
    response = populated.handle("POST", "/dispatch", {
        "family": "web", "workload": "faas", "requests": 50,
        "arrival_rps": 100.0, "clone_factor": 2})
    assert response.status == 200
    assert response.body["completed"] + response.body["failed"] \
        + response.body["timed_out"] == 50
    assert response.body["fingerprint"]


def test_dispatch_route_maps_errors(populated):
    assert populated.handle("POST", "/dispatch", {}).status == 400
    assert populated.handle(
        "POST", "/dispatch", {"family": "nope"}).status == 404
    # More clone copies than replicas: capacity exhaustion is a 503.
    response = populated.handle("POST", "/dispatch", {
        "family": "web", "requests": 5, "arrival_rps": 10.0,
        "clone_factor": 99})
    assert response.status == 503
    assert "clone_factor" in response.body["error"]


def _dispatch_error(populated, **fields):
    response = populated.handle("POST", "/dispatch", {
        "family": "web", "requests": 5, "arrival_rps": 10.0, **fields})
    assert response.status == 400, response.body
    return response.body["error"]


@pytest.mark.parametrize("rps", [float("inf"), float("nan")])
def test_dispatch_route_rejects_non_finite_arrival_rate(populated, rps):
    assert "non-finite arrival rate" in _dispatch_error(
        populated, arrival_rps=rps)


@pytest.mark.parametrize("timeout", [-5.0, 0.0, float("inf"), float("nan")])
def test_dispatch_route_rejects_bad_timeout(populated, timeout):
    assert "timeout_ms" in _dispatch_error(populated, timeout_ms=timeout)


@pytest.mark.parametrize("every", [-1.0, 0.0, float("inf"), float("nan")])
def test_dispatch_route_rejects_bad_heartbeat(populated, every):
    assert "heartbeat_every_ms" in _dispatch_error(
        populated, heartbeat_every_ms=every)


def test_method_mismatch_is_405_and_unknown_path_404(session):
    assert session.handle("PUT", "/hosts").status == 405
    assert session.handle("GET", "/dispatch").status == 405
    assert session.handle("GET", "/no/such/route").status == 404


def test_status_route_reports_both_layers(populated):
    response = populated.handle("GET", "/status")
    assert response.status == 200
    assert "fleet" in response.body and "frontdoor" in response.body
    assert response.body["frontdoor"]["stats"]["requests"] == 0


# ----------------------------------------------------------------------
# typed results
# ----------------------------------------------------------------------

def test_inventory_is_typed_and_frozen(populated):
    inventory = populated.inventory()
    assert isinstance(inventory, HostInventory)
    assert len(inventory.hosts) == 2
    host0 = inventory.host("host0")
    assert "web" in host0.replicas or host0.clones > 0
    assert len(inventory.live()) == 2
    with pytest.raises(FrontDoorError):
        inventory.host("ghost")
    with pytest.raises(dataclasses.FrozenInstanceError):
        host0.name = "other"
    as_dict = inventory.to_dict()
    assert as_dict["policy"] == "round-robin"


def test_family_placement_unpacks_like_the_old_tuple(session):
    placement = session.create_family("shim", ip="10.6.2.1")
    assert isinstance(placement, FamilyPlacement)
    # Deprecation shim: the pre-facade `(host, domid)` contract.
    host, domid = placement
    assert host == placement[0] == placement.host
    assert domid == placement[1] == placement.domid
    assert placement.to_dict()["family"] == "shim"
    with pytest.raises(dataclasses.FrozenInstanceError):
        placement.host = "other"


def test_clone_result_is_frozen_with_placements(populated):
    result = populated.clone("web", count=2)
    assert isinstance(result, CloneResult)
    assert result.requested == 2
    assert len(result.placed) + result.failed == result.requested
    assert all(isinstance(host, str) and isinstance(domid, int)
               for host, domid in result.placed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.requested = 0
    assert result.to_dict()["placed"]


def test_dispatch_result_is_frozen(populated):
    result = populated.dispatch("web", "faas", requests=20,
                                arrival_rps=50.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.completed = 0
    as_dict = result.to_dict()
    assert as_dict["workload"] == "faas"
    assert as_dict["clone_factor"] == 1


# ----------------------------------------------------------------------
# the public package surface
# ----------------------------------------------------------------------

def test_top_level_reexports():
    for name in ("FleetSession", "CloneResult", "FamilyPlacement",
                 "DispatchResult", "HostInventory", "FrontDoorError",
                 "DispatchTimeout", "NoCapacity"):
        assert hasattr(repro, name), name
        assert name in repro.__all__


def test_error_taxonomy_roots_at_repro_error():
    assert issubclass(FrontDoorError, ReproError)
    assert issubclass(NoCapacity, FrontDoorError)
    assert issubclass(DispatchTimeout, FrontDoorError)


def test_session_facade_reachable_from_nephele_session(session):
    assert isinstance(repro.NepheleSession.fleet(hosts=1), FleetSession)


def test_session_close_is_idempotent():
    sess = FleetSession(hosts=1)
    sess.close()
    sess.close()


def test_session_merged_stats(populated):
    populated.dispatch("web", "faas", requests=10, arrival_rps=50.0)
    stats = populated.stats
    assert stats["frontdoor"]["requests"] == 10
    assert "fleet" in stats


NAN = float("nan")


@pytest.mark.parametrize("method,path,body,named", [
    ("POST", "/families/web/clone", {"count": "three"}, "'count'"),
    ("POST", "/families/web/clone", {"count": True}, "'count'"),
    ("POST", "/families/web/clone", {"count": 1.5}, "'count'"),
    ("POST", "/families", {"name": "b"}, "'ip'"),
    ("POST", "/families", {"name": 5, "ip": "10.6.2.1"}, "'name'"),
    ("POST", "/families", {"name": "b", "ip": "10.6.2.1",
                           "memory_mb": "4"}, "'memory_mb'"),
    ("POST", "/families", [1, 2], "body"),
    ("POST", "/dispatch", [1, 2], "body"),
    ("POST", "/dispatch", {"family": "web", "requests": "x"}, "'requests'"),
    ("POST", "/dispatch", {"family": "web", "clone_factor": 1.5},
     "'clone_factor'"),
    ("POST", "/dispatch", {"family": "web", "timeout_ms": "5"},
     "'timeout_ms'"),
    ("POST", "/dispatch", {"family": "web", "arrival_rps": True},
     "'arrival_rps'"),
    ("POST", "/dispatch", {"family": "web", "arrival_rps": 10 ** 400},
     "'arrival_rps'"),
    ("POST", "/dispatch", {"family": "web", "arrival_rps": NAN},
     "arrival rate"),
    ("POST", "/dispatch", {"family": "web", "workload": ["faas"]},
     "'workload'"),
    ("POST", "/dispatch", {"family": "web", "workload": "nope"}, "workload"),
    ("POST", "/dispatch", {"family": "web", "label": 5}, "'label'"),
    ("POST", "/dispatch", {"family": "web", "resilience": {"bogus": 1}},
     "bogus"),
    ("POST", "/dispatch", {"family": "web", "resilience": "x"},
     "'resilience'"),
    ("POST", "/dispatch", {"family": "web",
                           "resilience": {"max_attempts": 2.5}},
     "'max_attempts'"),
    ("POST", "/dispatch", {"family": "web",
                           "resilience": {"deadline_ms": NAN}},
     "deadline_ms"),
    ("POST", "/hosts/host0/drain", {"mode": 3}, "'mode'"),
])
def test_malformed_body_is_a_400_naming_the_field(populated, method, path,
                                                  body, named):
    response = populated.handle(method, path, body)
    assert response.status == 400, response.body
    assert named in response.body["error"]
