"""What :class:`~repro.core.e2nvm.E2NVM` and :class:`~repro.core.sketch.
SketchEngine` share: the claimed-address map, the batched write with its
retired-row retry, directed writes, quarantine and spares.  A subclass
supplies the free set: ``_claim(values)`` (all-or-nothing; one tag per row
for ``_written``), ``release_many``, ``_take``, ``_bar``, ``_pool_spare``
and ``_pooled``."""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.address_pool import PoolExhaustedError
from repro.core.config import E2NVMConfig
from repro.nvm.controller import MemoryController
from repro.nvm.device import WriteResult
from repro.nvm.health import SegmentRetiredError


class PlacementEngine:
    """Write placement over a :class:`MemoryController`, never inside
    its ``reserved_segments`` leading segments (a pool's catalog); a
    ``faults`` injector sees ``"device.write"`` once per row written."""

    def __init__(
        self,
        controller: MemoryController,
        config: E2NVMConfig | None = None,
        faults=None,
        reserved_segments: int = 0,
    ) -> None:
        if not 0 <= reserved_segments < controller.n_segments:
            raise ValueError("reserved_segments must leave placeable space")
        self.controller = controller
        self.config = config or E2NVMConfig()
        self.faults = faults
        self.reserved_segments = reserved_segments
        self.segment_size = controller.segment_size
        self.failed_writes = 0
        # Claimed address → the engine's note on its value (E2NVM: the
        # label a full-width value re-pools under; otherwise None).
        self._allocated: dict[int, object] = {}

    @property
    def health(self):
        """The controller's health manager (``None`` without wear-out)."""
        return getattr(self.controller, "health_manager", None)

    # ------------------------------------------------------------ operations

    def place(self, value) -> int:
        """Claim the best free address for one value (a batch of one)."""
        return self.place_many([value])[0]

    def place_many(self, values: list) -> list[int]:
        """Claim one free address per value, all-or-nothing: a
        pool-exhaustion failure leaves the free set untouched."""
        return self._claim(values)[0]

    def write(self, value: bytes) -> tuple[int, WriteResult]:
        """Place and write one value; see :meth:`write_many`."""
        return self.write_many([value])[0]

    def write_many(
        self, values: list[bytes]
    ) -> list[tuple[int, WriteResult]]:
        """Place a batch and write each value's own bytes with one batched
        differential write; see :meth:`place_and_write`."""
        addrs, results = self.place_and_write(values)
        self.record_committed_writes(len(addrs))
        return list(zip(addrs, results))

    def place_and_write(
        self, values: list[bytes]
    ) -> tuple[list[int], Sequence[WriteResult]]:
        """Place and write a batch without counting it as committed (the
        durable KV store counts once the catalog transaction commits).

        Returns ``(addresses, results)``.  A row whose segment
        verify-after-write retired is quarantined (a spare adopted in its
        place) and only that row is re-placed and retried.  Any other
        failure, pool exhaustion included, un-claims every address of the
        batch before propagating.
        """
        values = list(values)
        if not values:
            return [], []
        self._check_value(max(values, key=len))
        addrs, tags = self._place_with_spares(values)
        try:
            results, todo = self._write_claimed(addrs, values)
            while todo:
                for i in todo:
                    addrs[i] = None
                retry = [values[i] for i in todo]
                replaced, retags = self._place_with_spares(retry)
                for i, addr, tag in zip(todo, replaced, retags):
                    addrs[i], tags[i] = addr, tag
                written, failed = self._write_claimed(replaced, retry)
                for i, result in zip(todo, written):
                    results[i] = result
                todo = [todo[row] for row in failed]
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: claimed addresses would leak.
            self._abandon([addr for addr in addrs if addr is not None])
            raise
        self._written(addrs, values, tags)
        return addrs, results

    def _place_with_spares(self, values: list[bytes]) -> tuple[list, list]:
        """:meth:`_claim`, pulling in reserved spares one by one while
        free capacity runs dry."""
        while True:
            try:
                return self._claim(values)
            except PoolExhaustedError:
                if self.adopt_spare() is None:
                    raise

    def _write_claimed(
        self, addrs: list[int], values: list[bytes]
    ) -> tuple[Sequence[WriteResult | None], list[int]]:
        """One ``controller.write_many`` of claimed rows.  Returns the
        results and the rows whose segment retired (already quarantined, a
        spare adopted for each); any other error propagates."""
        try:
            if self.faults is not None:
                for _ in values:
                    self.faults.fire("device.write")
            return self.controller.write_many(addrs, values), []
        except SegmentRetiredError as exc:
            self.failed_writes += len(exc.rows)
            for row in exc.rows:
                self.quarantine_address(addrs[row])
                self.adopt_spare()
            return exc.results, exc.rows
        except Exception:
            self.failed_writes += len(values)
            raise

    def claim_address(self, addr: int) -> bool:
        """Claim a *specific* free address (the compactor's wear-leveling
        target); False, changing nothing, when it is not free."""
        self._check_segment_address(addr)
        if not self._take(addr):
            return False
        self._allocated[addr] = None
        return True

    def write_at(self, addr: int, value: bytes) -> WriteResult:
        """Differential-write ``value`` at an address claimed by
        :meth:`claim_address`, uncounted.  On :class:`SegmentRetiredError`
        the address is quarantined before the error propagates; on any
        other failure it is released."""
        self._check_value(value)
        if addr not in self._allocated:
            raise KeyError(f"address {addr} is not claimed")
        self._allocated[addr] = None  # a directed write carries no tag
        try:
            (result,), failed = self._write_claimed([addr], [value])
        except BaseException:
            # Also KeyboardInterrupt/SystemExit: un-claim the address.
            self._abandon([addr])
            raise
        if failed:
            raise SegmentRetiredError(addr // self.segment_size)
        return result

    def _written(self, addrs, values, tags) -> None:
        """Note a batch now on the media; nothing by default."""

    def record_committed_writes(self, count: int) -> None:
        """Post-write bookkeeping for ``count`` committed writes (the KV
        store calls it once a batch is installed); nothing by default."""

    def release(self, addr: int) -> None:
        """Return one freed address to the free set."""
        self.release_many([addr])

    def _abandon(self, addrs: list[int]) -> None:
        """Un-claim addresses a failed write may have left half-written."""
        self.release_many(addrs)

    def mark_allocated(self, addr: int) -> None:
        """Register ``addr`` as live without :meth:`place` (recovery)."""
        self._check_segment_address(addr)
        self._take(addr)
        self._allocated[addr] = None

    # ------------------------------------------------------ endurance health

    def quarantine_address(self, addr: int) -> None:
        """Take ``addr`` out of circulation permanently (retired media):
        un-claim it if allocated and bar it from the free set for good."""
        self._check_segment_address(addr)
        self._allocated.pop(addr, None)
        self._bar(addr)

    def adopt_spare(self) -> int | None:
        """Activate one reserved spare into the free set; its address, or
        ``None`` when none (or no health manager) remains."""
        health = self.health
        if health is None:
            return None
        spare = health.take_spare()
        if spare is None:
            return None
        self._pool_spare(spare)
        return spare

    def reserve_spares(self, count: int) -> list[int]:
        """Withhold the ``count`` highest free segments as spares, which
        :meth:`adopt_spare` activates one per later retirement."""
        health = self.health
        if health is None:
            raise RuntimeError(
                "reserve_spares needs verify-after-write enabled"
            )
        if count <= 0:
            return []
        free = sorted(self._pooled(), reverse=True)[:count]
        if len(free) < count:
            raise RuntimeError("not enough free segments to reserve as spares")
        for addr in free:
            self._bar(addr)
        spares = sorted(free)
        health.add_spares(spares)
        return spares

    # ------------------------------------------------------------ inspection

    @property
    def stats(self):
        """The underlying device's cumulative counters."""
        return self.controller.stats

    def is_allocated(self, addr: int) -> bool:
        """Whether ``addr`` is currently claimed (placed or live)."""
        return addr in self._allocated

    @property
    def allocated_count(self) -> int:
        """Number of segments currently claimed by live values."""
        return len(self._allocated)

    # -------------------------------------------------------------- internals

    def _check_segment_address(self, addr: int) -> None:
        if addr % self.segment_size:
            raise ValueError(f"address {addr} is not segment-aligned")
        if not 0 <= addr < self.controller.n_segments * self.segment_size:
            raise IndexError(f"address {addr} out of range")
        if addr < self.reserved_segments * self.segment_size:
            raise ValueError(
                f"address {addr} is inside the {self.reserved_segments} "
                "reserved (log/catalog) segments"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) > self.segment_size:
            raise ValueError(
                f"value of {len(value)} bytes exceeds segment size "
                f"{self.segment_size}"
            )
