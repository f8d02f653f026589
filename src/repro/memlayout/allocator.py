"""Region-tagged bump allocators for the simulated address space.

:class:`AddressSpace` plays the role of the process heap in the paper's
system: the graph framework asks it for memory for metadata, structure
arrays, and property arrays.  ``pmr_malloc`` is the paper's customized
allocator (Section III-A): it returns property-region memory flagged as
belonging to the PIM Memory Region.  Whether the PMR is actually treated
as uncacheable/offloadable is decided later by the system configuration,
so a single allocation layout serves all three evaluated systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import AllocationError
from repro.common.units import CACHE_LINE_BYTES
from repro.memlayout.regions import REGION_BASE, REGION_SHIFT, Region


@dataclass(frozen=True)
class Allocation:
    """A contiguous simulated allocation.

    ``element_size`` lets callers compute element addresses with
    :meth:`addr_of` (or :meth:`addrs_of` for an array of indices).
    """

    label: str
    region: Region
    base: int
    size_bytes: int
    element_size: int = 1
    in_pmr: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.base + self.size_bytes

    @property
    def num_elements(self) -> int:
        """How many elements of ``element_size`` fit in the allocation."""
        return self.size_bytes // self.element_size

    def addr_of(self, index: int) -> int:
        """Simulated address of element ``index``."""
        if not 0 <= index < self.num_elements:
            raise AllocationError(
                f"{self.label}: element index {index} out of range "
                f"[0, {self.num_elements})"
            )
        return self.base + index * self.element_size

    def addrs_of(self, indices) -> np.ndarray:
        """Simulated addresses of elements ``indices`` (an int array)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= self.num_elements:
                raise AllocationError(
                    f"{self.label}: element index "
                    f"{low if low < 0 else high} out of range "
                    f"[0, {self.num_elements})"
                )
        return self.base + indices * self.element_size

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this allocation."""
        return self.base <= addr < self.end


@dataclass
class AddressSpace:
    """A per-simulation virtual address space with region bump pointers."""

    alignment: int = CACHE_LINE_BYTES
    _cursors: dict[Region, int] = field(default_factory=dict)
    _allocations: list[Allocation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.alignment <= 0 or (self.alignment & (self.alignment - 1)):
            raise AllocationError("alignment must be a positive power of two")
        for region in Region:
            self._cursors.setdefault(region, REGION_BASE[region])

    # ------------------------------------------------------------------
    # Allocation API (mirrors malloc / pmr_malloc in the paper)
    # ------------------------------------------------------------------

    def malloc(
        self,
        label: str,
        region: Region,
        num_elements: int,
        element_size: int,
    ) -> Allocation:
        """Allocate ``num_elements * element_size`` bytes in ``region``."""
        return self._allocate(label, region, num_elements, element_size, False)

    def pmr_malloc(
        self, label: str, num_elements: int, element_size: int
    ) -> Allocation:
        """Allocate property memory inside the PIM Memory Region.

        The paper's graph framework calls this for the graph property
        arrays; it is the only framework change GraphPIM requires.
        """
        return self._allocate(
            label, Region.PROPERTY, num_elements, element_size, True
        )

    def _allocate(
        self,
        label: str,
        region: Region,
        num_elements: int,
        element_size: int,
        in_pmr: bool,
    ) -> Allocation:
        if num_elements < 0:
            raise AllocationError(f"{label}: negative element count")
        if element_size <= 0:
            raise AllocationError(f"{label}: element size must be positive")
        size = num_elements * element_size
        base = self._cursors[region]
        mask = self.alignment - 1
        base = (base + mask) & ~mask
        end = base + size
        region_limit = REGION_BASE[region] + (1 << REGION_SHIFT)
        if end > region_limit:
            raise AllocationError(
                f"{label}: region {region.name} exhausted "
                f"(requested {size} bytes)"
            )
        self._cursors[region] = end
        allocation = Allocation(
            label=label,
            region=region,
            base=base,
            size_bytes=size,
            element_size=element_size,
            in_pmr=in_pmr,
        )
        self._allocations.append(allocation)
        return allocation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        """All allocations in creation order."""
        return tuple(self._allocations)

    def region_bytes(self, region: Region) -> int:
        """Total bytes allocated in ``region``."""
        return sum(
            a.size_bytes for a in self._allocations if a.region is region
        )

    def pmr_bytes(self) -> int:
        """Total bytes allocated via ``pmr_malloc``."""
        return sum(a.size_bytes for a in self._allocations if a.in_pmr)

    def total_bytes(self) -> int:
        """Total bytes allocated across all regions."""
        return sum(a.size_bytes for a in self._allocations)

    def find(self, label: str) -> Allocation:
        """Look up an allocation by label (first match)."""
        for allocation in self._allocations:
            if allocation.label == label:
                return allocation
        raise AllocationError(f"no allocation labelled {label!r}")
