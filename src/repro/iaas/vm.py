"""VM flavors: the rentable unit of the IaaS platform.

A flavor is a fixed slice of a physical node: cores, memory, and the
matching proportional slices of disk and network bandwidth (a 4-core
flavor on a 40-core node gets a tenth of the node's NIC).  Boot times are
tens of seconds — three orders of magnitude above a container cold start,
which is why the hybrid engine boots VMs *before* flipping the route
(§V-B) rather than on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VMFlavor", "DEFAULT_FLAVOR"]


@dataclass(frozen=True)
class VMFlavor:
    """One rentable VM shape."""

    name: str = "c4.large"
    cores: float = 4.0
    memory_mb: float = 8 * 1024.0
    io_mbps: float = 200.0
    net_mbps: float = 312.5
    #: VM boot time: lognormal median (s) and sigma
    boot_median: float = 25.0
    boot_sigma: float = 0.20

    def __post_init__(self) -> None:
        for attr in ("cores", "memory_mb", "io_mbps", "net_mbps", "boot_median"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.boot_sigma < 0:
            raise ValueError("boot_sigma must be >= 0")


#: the default rental unit: a 4-core slice of the Table II node
DEFAULT_FLAVOR = VMFlavor()
