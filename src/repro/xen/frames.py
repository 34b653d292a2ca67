"""Machine frames: ownership, sharing and COW accounting.

Xen tracks an owner for every machine page. Nephele's cloning (following
Snowflock's page-sharing mechanism, paper §5.2) transfers ownership of
shared pages to a pseudo-domain called ``dom_cow`` and bumps a reference
counter per sharing domain. A write to a shared page either copies it
(refcount > 1) or transfers ownership back to the writer (refcount == 1,
"adoption").

For scalability the simulation tracks frames as *extents* (runs of pages
with identical ownership) rather than one object per frame. Each
extent stores its reference counts as a run map: a sorted list of run
boundaries and one count per run, with :data:`DEAD` marking pages that
were freed or adopted. Sharing a whole guest updates every run of each
extent, and a range operation (a COW fault, a teardown) cuts runs at
its bounds and touches only the runs inside, so no operation walks
pages one at a time.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.faults.injector import NULL_INJECTOR
from repro.xen.domid import DOMID_COW, DOMID_INVALID
from repro.xen.errors import XenInvalidError, XenNoMemoryError


class PageType(enum.Enum):
    """Role of a page; determines clone policy (share / copy / rebuild)."""

    NORMAL = "normal"
    PAGE_TABLE = "page_table"
    P2M = "p2m"
    START_INFO = "start_info"
    SHARED_INFO = "shared_info"
    CONSOLE_RING = "console_ring"
    XENSTORE_RING = "xenstore_ring"
    IO_RING = "io_ring"
    RX_BUFFER = "rx_buffer"
    GRANT_TABLE = "grant_table"
    IDC_SHM = "idc_shm"


#: Page types that are private memory: never shared with clones but
#: duplicated or rebuilt instead (paper §4.1).
PRIVATE_PAGE_TYPES = frozenset(
    {
        PageType.PAGE_TABLE,
        PageType.P2M,
        PageType.START_INFO,
        PageType.SHARED_INFO,
        PageType.CONSOLE_RING,
        PageType.XENSTORE_RING,
        PageType.IO_RING,
        PageType.RX_BUFFER,
        PageType.GRANT_TABLE,
    }
)


_extent_ids = itertools.count(1)

#: Run-map value of pages that were freed or adopted out of their extent.
DEAD = -1


@dataclass(slots=True)
class Extent:
    """A run of machine pages in identical ownership state."""

    count: int
    owner: int
    page_type: PageType
    writable: bool = True
    label: str = ""
    #: True once ownership moved to dom_cow and refcounting is active.
    shared: bool = False
    #: Shared pages are normally read-only and copied on write. IDC
    #: shared-memory pages stay writable by the whole family (paper
    #: §5.2.2: IDC pages move to dom_cow "just like for any shared
    #: page", but both ends keep writing to them).
    cow_protected: bool = True
    #: Pages whose last reference was dropped and whose frame was freed.
    freed: int = 0
    #: Pages adopted by their sole remaining sharer (frame moved, not freed).
    adopted: int = 0
    #: True once the extent was split; its pages live on in the parts.
    retired: bool = False
    extent_id: int = field(default_factory=lambda: next(_extent_ids))
    #: The run map. Run ``k`` covers pages
    #: ``[run_bounds[k], run_bounds[k + 1])`` and each of its pages has
    #: reference count ``run_refs[k]`` (0 while private, :data:`DEAD`
    #: once freed or adopted). ``run_bounds`` starts at 0 and ends at
    #: ``count``; adjacent runs never hold the same value. Only
    #: :class:`FrameTable` changes it.
    run_bounds: list[int] = field(init=False)
    run_refs: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.run_bounds = [0, self.count]
        self.run_refs = [0]

    @property
    def live_pages(self) -> int:
        """Pages still accounted to this extent."""
        if self.retired:
            return 0
        return self.count - self.freed - self.adopted

    def run_at(self, index: int) -> tuple[int, int]:
        """``(ref, end)`` of the run holding page ``index`` (extent-local).

        Every page in ``[index, end)`` has reference count ``ref``, or
        ``ref`` is :data:`DEAD`; page ``end``, if any, holds another value.
        """
        if not 0 <= index < self.count:
            raise XenInvalidError(f"page index {index} outside extent of {self.count}")
        bounds = self.run_bounds
        k = bisect_right(bounds, index) - 1
        return self.run_refs[k], bounds[k + 1]

    def effective_ref(self, index: int) -> int:
        """Reference count of page ``index`` (extent-local).

        A dead page (freed or adopted out of this extent) has count 0.
        """
        ref = self.run_at(index)[0]
        return 0 if ref == DEAD else ref

    def is_dead(self, index: int) -> bool:
        """Was page ``index`` freed or adopted out of this extent?"""
        return self.run_at(index)[0] == DEAD

    def _cut(self, pos: int) -> int:
        """Make a run start at page ``pos``; return that run's index.

        ``pos == count`` needs no cut and returns the number of runs.
        """
        bounds = self.run_bounds
        k = bisect_right(bounds, pos) - 1
        if bounds[k] != pos:
            k += 1
            bounds.insert(k, pos)
            self.run_refs.insert(k, self.run_refs[k - 1])
        return k

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal neighbours across the starts of runs ``lo..hi``."""
        bounds = self.run_bounds
        refs = self.run_refs
        if hi == len(refs):
            hi -= 1
        for k in range(hi, max(lo, 1) - 1, -1):
            if refs[k] == refs[k - 1]:
                del refs[k]
                del bounds[k]

    def __hash__(self) -> int:
        return self.extent_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shared" if self.shared else "private"
        return (
            f"Extent(#{self.extent_id} {self.label or self.page_type.value} "
            f"{state} owner={self.owner} count={self.count} live={self.live_pages})"
        )


class FrameTable:
    """Machine frame accounting for one physical host.

    Tracks the free pool and per-owner page counts; extents move pages
    between owners. All methods are pure accounting - virtual-time costs
    are charged by the callers (hypervisor / clone engine).
    """

    def __init__(self, total_frames: int) -> None:
        if total_frames <= 0:
            raise XenInvalidError(f"non-positive frame count: {total_frames}")
        self.total_frames = total_frames
        self.free_frames = total_frames
        #: Fault-injection hooks (repro.faults); the hypervisor installs
        #: the platform injector here, everyone else gets the no-op.
        self.faults = NULL_INJECTOR
        self._owned: dict[int, int] = {}
        #: Cumulative counters, for tests and experiment reporting.
        self.stats = {
            "allocs": 0,
            "frees": 0,
            "shares": 0,
            "cow_copies": 0,
            "cow_adoptions": 0,
        }

    # ------------------------------------------------------------------
    # basic allocation
    # ------------------------------------------------------------------
    def pages_owned(self, domid: int) -> int:
        """Machine pages currently charged to ``domid``."""
        return self._owned.get(domid, 0)

    def alloc(self, owner: int, count: int, page_type: PageType = PageType.NORMAL,
              writable: bool = True, label: str = "") -> Extent:
        """Allocate ``count`` frames for ``owner``."""
        if count <= 0:
            raise XenInvalidError(f"non-positive page count: {count}")
        if owner == DOMID_INVALID:
            raise XenInvalidError("cannot allocate for DOMID_INVALID")
        if self.faults.enabled:
            self.faults.fire("frames.alloc", owner=owner, count=count,
                             page_type=page_type.value, label=label)
        if count > self.free_frames:
            raise XenNoMemoryError(
                f"requested {count} frames, {self.free_frames} free"
            )
        self.free_frames -= count
        self._credit(owner, count)
        self.stats["allocs"] += count
        return Extent(count=count, owner=owner, page_type=page_type,
                      writable=writable, label=label)

    def split_private(self, extent: Extent,
                      parts: list[tuple[int, PageType, str]]) -> list[Extent]:
        """Split an unshared extent into consecutive new extents.

        No frames move; the original extent is retired and each
        ``(count, page_type, label)`` part takes over its share of the
        pages. Used to retype a sub-range (e.g. carving an IDC area out
        of the guest heap).
        """
        if extent.shared:
            raise XenInvalidError(f"cannot split shared {extent!r}")
        if extent.retired:
            raise XenInvalidError(f"{extent!r} is already retired")
        if extent.freed or extent.adopted:
            raise XenInvalidError(f"cannot split partially-dead {extent!r}")
        if sum(count for count, _, _ in parts) != extent.count:
            raise XenInvalidError(
                f"split parts cover {sum(c for c, _, _ in parts)} pages, "
                f"extent has {extent.count}")
        pieces = [
            Extent(count=count, owner=extent.owner, page_type=page_type,
                   writable=extent.writable, label=label)
            for count, page_type, label in parts if count > 0
        ]
        extent.retired = True
        return pieces

    def free_extent(self, extent: Extent) -> int:
        """Release all live pages of a private extent back to the pool."""
        if extent.shared:
            raise XenInvalidError("shared extents are released via drop_ref_range")
        if extent.retired:
            raise XenInvalidError(f"{extent!r} was split; free its parts")
        live = extent.live_pages
        self._debit(extent.owner, live)
        self.free_frames += live
        extent.freed = extent.count - extent.adopted
        extent.run_bounds = [0, extent.count]
        extent.run_refs = [DEAD]
        self.stats["frees"] += live
        return live

    # ------------------------------------------------------------------
    # sharing / COW
    # ------------------------------------------------------------------
    def share_to_cow(self, extent: Extent) -> None:
        """Transfer ownership of a private extent to dom_cow.

        The previous owner keeps referencing every live page (refcount
        1); clones are added with :meth:`add_sharer`.
        """
        if extent.shared:
            raise XenInvalidError(f"{extent!r} is already shared")
        if extent.page_type in PRIVATE_PAGE_TYPES:
            raise XenInvalidError(
                f"page type {extent.page_type.value} is private memory"
            )
        self._debit(extent.owner, extent.live_pages)
        self._credit(DOMID_COW, extent.live_pages)
        extent.owner = DOMID_COW
        extent.shared = True
        # A private extent is one run (fresh, or DEAD once freed).
        extent.run_refs = [DEAD if ref == DEAD else 1 for ref in extent.run_refs]
        extent.cow_protected = extent.page_type is not PageType.IDC_SHM
        extent.writable = not extent.cow_protected
        self.stats["shares"] += extent.live_pages

    def add_sharer(self, extent: Extent) -> None:
        """Register one more domain mapping every live page of ``extent``."""
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        extent.run_refs = [DEAD if ref == DEAD else ref + 1
                           for ref in extent.run_refs]

    def add_ref_range(self, extent: Extent, start: int, count: int) -> None:
        """Add one reference to pages ``[start, start+count)`` only.

        Used by partial mappings (e.g. clone-reset baselines over split
        segments). Dead pages cannot be re-referenced.
        """
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        if start < 0 or count < 0 or start + count > extent.count:
            raise XenInvalidError(
                f"range [{start}, {start + count}) outside extent of {extent.count}"
            )
        end = start + count
        bounds = extent.run_bounds
        refs = extent.run_refs
        if count and DEAD in refs[bisect_right(bounds, start) - 1:
                                  bisect_left(bounds, end)]:
            raise XenInvalidError(
                f"cannot re-reference dead pages in [{start}, {end}) of {extent!r}")
        i = extent._cut(start)
        j = extent._cut(end)
        for k in range(i, j):
            refs[k] += 1
        extent._coalesce(i, j)

    def drop_ref_range(self, extent: Extent, start: int, count: int) -> int:
        """Drop one reference on pages ``[start, start+count)``.

        Returns the number of frames freed (pages whose last reference
        vanished). Used both by COW copies (the writer stops referencing
        the shared page) and by domain teardown.
        """
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        if start < 0 or count < 0 or start + count > extent.count:
            raise XenInvalidError(
                f"range [{start}, {start + count}) outside extent of {extent.count}"
            )
        bounds = extent.run_bounds
        refs = extent.run_refs
        i = extent._cut(start)
        j = extent._cut(start + count)
        freed = 0
        for k in range(i, j):
            ref = refs[k]
            if ref > 1:
                refs[k] = ref - 1
            elif ref == 1:
                refs[k] = DEAD
                freed += bounds[k + 1] - bounds[k]
        extent._coalesce(i, j)
        if freed:
            extent.freed += freed
            self._debit(DOMID_COW, freed)
            self.free_frames += freed
            self.stats["frees"] += freed
        return freed

    def cow_copy(self, extent: Extent, index: int, new_owner: int,
                 count: int = 1) -> Extent:
        """Copy pages ``[index, index+count)`` of a shared extent for a writer.

        Allocates fresh private frames for ``new_owner`` and drops the
        writer's references on the shared originals.
        """
        copy = self.alloc(new_owner, count, PageType.NORMAL, writable=True,
                          label=f"cow:{extent.label or extent.extent_id}")
        self.drop_ref_range(extent, index, count)
        self.stats["cow_copies"] += count
        return copy

    def cow_adopt(self, extent: Extent, index: int, new_owner: int,
                  count: int = 1) -> Extent:
        """Sole-sharer fast path: move pages back to the writer.

        No frame is allocated or copied; ownership transfers from dom_cow
        to ``new_owner`` (paper §5.2: "on the next page fault the
        ownership is transferred from dom_cow to the domain generating
        the fault"). Every page in the range must have refcount 1.
        """
        ref, run_end = extent.run_at(index)
        if count < 1 or ref != 1 or run_end < index + count:
            raise XenInvalidError(
                f"pages [{index}, {index + count}) of {extent!r} do not all "
                f"have refcount 1, adoption needs exactly 1"
            )
        i = extent._cut(index)
        j = extent._cut(index + count)
        extent.run_refs[i] = DEAD
        extent._coalesce(i, j)
        extent.adopted += count
        self._debit(DOMID_COW, count)
        self._credit(new_owner, count)
        self.stats["cow_adoptions"] += count
        return Extent(count=count, owner=new_owner, page_type=PageType.NORMAL,
                      writable=True,
                      label=f"adopted:{extent.label or extent.extent_id}")

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Frame conservation: free + owned == total. Raises on violation."""
        owned = sum(self._owned.values())
        if self.free_frames + owned != self.total_frames:
            raise AssertionError(
                f"frame leak: free={self.free_frames} owned={owned} "
                f"total={self.total_frames}"
            )
        if self.free_frames < 0:
            raise AssertionError(f"negative free frames: {self.free_frames}")
        for domid, count in self._owned.items():
            if count < 0:
                raise AssertionError(f"negative ownership for dom {domid}: {count}")

    def _credit(self, owner: int, count: int) -> None:
        if count == 0:
            return
        self._owned[owner] = self._owned.get(owner, 0) + count

    def _debit(self, owner: int, count: int) -> None:
        if count == 0:
            return
        current = self._owned.get(owner, 0)
        if current < count:
            raise XenInvalidError(
                f"domain {owner} owns {current} pages, cannot release {count}"
            )
        remaining = current - count
        if remaining:
            self._owned[owner] = remaining
        else:
            del self._owned[owner]
