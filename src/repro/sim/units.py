"""Units used across the simulation.

Time is expressed in milliseconds because that is the unit the paper's
figures use. Memory is expressed in bytes, with x86 4 KiB pages.
"""

from repro.errors import InvalidArgumentError

# --- time (base unit: millisecond) ---
USEC: float = 1e-3
MSEC: float = 1.0
SEC: float = 1000.0

# --- memory ---
KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

PAGE_SHIFT: int = 12
PAGE_SIZE: int = 1 << PAGE_SHIFT  # 4096


def pages_of(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes`` (rounded up)."""
    if nbytes < 0:
        raise InvalidArgumentError(f"negative byte count: {nbytes}")
    return (nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT
