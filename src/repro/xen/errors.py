"""Hypervisor error hierarchy, mirroring Xen's errno-style returns."""

from repro.errors import ReproError


class XenError(ReproError):
    """Base class for hypervisor-level failures."""

    errno_name = "EIO"


class XenNoMemoryError(XenError):
    """Out of machine frames (ENOMEM)."""

    errno_name = "ENOMEM"


class XenDomidExhaustedError(XenNoMemoryError):
    """Every guest domain ID is live (ENOMEM from the domid space)."""


class XenPermissionError(XenError):
    """Caller is not allowed to perform the operation (EPERM)."""

    errno_name = "EPERM"


class XenInvalidError(XenError):
    """Malformed arguments (EINVAL)."""

    errno_name = "EINVAL"


class XenNoEntryError(XenError):
    """Referenced object does not exist (ENOENT)."""

    errno_name = "ENOENT"


class XenBusyError(XenError):
    """Resource temporarily unavailable (EBUSY)."""

    errno_name = "EBUSY"
