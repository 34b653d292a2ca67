"""Simulated Xen hypervisor.

Implements the subset of Xen that Nephele touches: machine frames with
ownership and COW sharing (via the ``dom_cow`` pseudo-domain), domains
and vCPUs, direct-paging page tables plus the p2m map, grant tables
(including the Nephele ``DOMID_CHILD`` wildcard), event channels and
virtual IRQs (including the Nephele ``VIRQ_CLONED``), domctl, and
save/restore images.
"""

from repro.xen.domain import Domain, DomainState
from repro.xen.domid import (
    DOMID_CHILD,
    DOMID_COW,
    DOMID_INVALID,
    DOMID_SELF,
    DOM0,
)
from repro.xen.errors import (
    XenError,
    XenBusyError,
    XenDomidExhaustedError,
    XenInvalidError,
    XenNoEntryError,
    XenNoMemoryError,
    XenPermissionError,
)
from repro.xen.events import VIRQ_CLONED, VIRQ_DOM_EXC, EventChannel
from repro.xen.frames import Extent, FrameTable, PageType
from repro.xen.grants import GrantEntry, GrantTable
from repro.xen.hypervisor import Hypervisor
from repro.xen.vcpu import VCPU

__all__ = [
    "Hypervisor",
    "Domain",
    "DomainState",
    "VCPU",
    "FrameTable",
    "Extent",
    "PageType",
    "GrantTable",
    "GrantEntry",
    "EventChannel",
    "VIRQ_CLONED",
    "VIRQ_DOM_EXC",
    "DOM0",
    "DOMID_COW",
    "DOMID_CHILD",
    "DOMID_SELF",
    "DOMID_INVALID",
    "XenError",
    "XenNoMemoryError",
    "XenDomidExhaustedError",
    "XenPermissionError",
    "XenInvalidError",
    "XenNoEntryError",
    "XenBusyError",
]
