"""Unit tests: clone_cow and clone_reset (the fuzzing subops, §7.2)."""

import pytest

from repro.core.cloneop import CloneOpError
from repro.apps.udp_server import UdpServerApp
from repro.xen.errors import XenPermissionError
from tests.conftest import udp_config


@pytest.fixture
def target(platform):
    """(platform, instrumentable clone) like KFX sets up."""
    config = udp_config("t", max_clones=4)
    config.start_clones_paused = True
    parent = platform.xl.create(config, app=UdpServerApp())
    clone_id = platform.xl.clone(parent.domid)[0]
    platform.cloneop.resume_clone(clone_id)
    return platform, platform.hypervisor.get_domain(clone_id)


def test_clone_cow_privatizes_pages(target):
    platform, clone = target
    text = clone.memory.segments[0]
    assert text.shared
    stats = platform.cloneop.clone_cow(0, clone.domid, text.pfn_start, 4)
    assert stats.copied == 4
    seg, _ = clone.memory.find(text.pfn_start)
    assert not seg.shared
    platform.check_invariants()


def test_clone_cow_requires_dom0(target):
    platform, clone = target
    with pytest.raises(XenPermissionError):
        platform.cloneop.clone_cow(clone.domid, clone.domid, 0, 1)


def test_snapshot_then_reset_rolls_back(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    segments_before = len(clone.memory.segments)
    # Dirty some shared pages (COW copies appear).
    clone.memory.write_range(0, 3)
    assert len(clone.memory.segments) != segments_before
    rolled = platform.cloneop.clone_reset(0, clone.domid)
    assert rolled == 3
    assert len(clone.memory.segments) == segments_before
    platform.check_invariants()


def test_reset_restores_shared_state(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    clone.memory.write_range(0, 3)
    platform.cloneop.clone_reset(0, clone.domid)
    seg, _ = clone.memory.find(0)
    assert seg.shared  # back to the COW original


def test_reset_is_idempotent_when_clean(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    assert platform.cloneop.clone_reset(0, clone.domid) == 0
    assert platform.cloneop.clone_reset(0, clone.domid) == 0


def test_reset_cost_scales_with_dirty_pages(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    clone.memory.write_range(0, 3)
    t0 = platform.now
    platform.cloneop.clone_reset(0, clone.domid)
    small = platform.now - t0
    clone.memory.write_range(0, 30)
    t0 = platform.now
    platform.cloneop.clone_reset(0, clone.domid)
    large = platform.now - t0
    assert large > small


def test_reset_without_snapshot_rejected(target):
    platform, clone = target
    with pytest.raises(CloneOpError):
        platform.cloneop.clone_reset(0, clone.domid)


def test_reset_requires_dom0(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    with pytest.raises(XenPermissionError):
        platform.cloneop.clone_reset(clone.domid, clone.domid)


def test_snapshot_keeps_instrumented_pages(target):
    """KFX instruments (clone_cow) then snapshots: resets must preserve
    the breakpoints, not roll them back."""
    platform, clone = target
    platform.cloneop.clone_cow(0, clone.domid, 0, 2)
    platform.cloneop.snapshot(clone.domid)
    clone.memory.write_range(0, 1)  # dirty an instrumented page
    platform.cloneop.clone_reset(0, clone.domid)
    seg, _ = clone.memory.find(0)
    assert not seg.shared  # stays private (instrumented)
    platform.check_invariants()


def test_repeated_fuzz_iterations_conserve_frames(target):
    platform, clone = target
    platform.cloneop.clone_cow(0, clone.domid, 0, 2)
    platform.cloneop.snapshot(clone.domid)
    free0 = platform.hypervisor.frames.free_frames
    for _ in range(50):
        clone.memory.write_range(0, 3)
        platform.cloneop.clone_reset(0, clone.domid)
        assert platform.hypervisor.frames.free_frames == free0
    platform.check_invariants()


def test_destroy_with_baseline_releases_refs(target):
    platform, clone = target
    platform.cloneop.snapshot(clone.domid)
    platform.xl.destroy(clone.domid)
    platform.check_invariants()


def test_total_pages_tracks_the_segment_list(target):
    platform, clone = target
    memory = clone.memory

    def check():
        assert memory.total_pages == sum(seg.npages for seg in memory.segments)

    check()
    memory.populate(2)
    check()
    platform.cloneop.snapshot(clone.domid)
    memory.write_range(0, 3)
    check()
    platform.cloneop.clone_reset(0, clone.domid)
    check()
    platform.xl.destroy(clone.domid)
    assert memory.total_pages == 0
    check()
    platform.check_invariants()
