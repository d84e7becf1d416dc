"""Persistent object pool over the simulated device (``pmemobj`` style).

The pool's first ``meta_segments`` segments are reserved for application
metadata (the KV store keeps its persistent catalog there — see
:mod:`repro.pmem.catalog`); the remaining *object* segments hold values.
The pool only numbers them: which are free, live or dead is the
placement engine's DAP and the media's (catalog slots, the device's
health state) to say.

There is no log.  A :class:`~repro.pmem.transaction.Transaction` is a
commit group: it stages writes, and :meth:`PersistentPool.commit` lands
them in one ``write_many`` with no undo read.  Failure atomicity is the
writer's: the catalog only ever writes a record's non-newest slot, and
every slot checks itself (see :mod:`repro.pmem.catalog`).
"""

from __future__ import annotations

import numpy as np

from repro.nvm.controller import MemoryController
from repro.pmem.transaction import Transaction


class PersistentPool:
    """Metadata region + object address arithmetic + commit groups.

    Args:
        controller: the NVM front-end backing the pool.
        meta_segments: segments reserved at the start of the device for
            application metadata such as the KV store's persistent
            catalog; they are addressable through :meth:`read` /
            :meth:`write` / transactions but hold no values.
        faults: optional :class:`repro.testing.faults.FaultInjector`.  When
            set, :meth:`commit` fires its site (``"catalog.write"`` for a
            transaction) once per row, torn-capable.
    """

    def __init__(
        self,
        controller: MemoryController,
        meta_segments: int = 0,
        faults=None,
    ) -> None:
        if meta_segments < 0:
            raise ValueError("meta_segments must be non-negative")
        if meta_segments >= controller.n_segments:
            raise ValueError("meta_segments must leave object segments")
        self.controller = controller
        #: Object granularity (the controller's, fixed here).
        self.segment_size = controller.segment_size
        self.meta_segments = meta_segments
        self.faults = faults

    @property
    def capacity_objects(self) -> int:
        """Number of object segments in the pool."""
        return self.controller.n_segments - self.meta_segments

    def meta_address(self, index: int) -> int:
        """Byte address of reserved metadata segment ``index``."""
        if not 0 <= index < self.meta_segments:
            raise IndexError(f"metadata segment {index} out of range")
        return index * self.segment_size

    def object_address(self, index: int) -> int:
        """Byte address of object segment ``index`` (0-based)."""
        if not 0 <= index < self.capacity_objects:
            raise IndexError(f"object segment {index} out of range")
        return (self.meta_segments + index) * self.segment_size

    def object_index(self, addr: int) -> int:
        """Object-segment index of address ``addr`` (inverse of
        :meth:`object_address`)."""
        start = self.meta_segments * self.segment_size
        end = self.controller.n_segments * self.segment_size
        if addr % self.segment_size:
            raise ValueError(
                f"address {addr} is not segment-aligned "
                f"(segment size {self.segment_size})"
            )
        if not start <= addr < end:
            region = "metadata" if addr < start else "out-of-range"
            raise ValueError(
                f"address {addr} is in the pool's {region} region, not an "
                f"object segment (objects start at {start})"
            )
        return addr // self.segment_size - self.meta_segments

    def read(self, addr: int, length: int) -> bytes:
        """Direct (non-transactional) read."""
        return self.controller.read(addr, length)

    def write(self, addr: int, data: bytes) -> None:
        """Direct (non-transactional, non-failure-atomic) write."""
        self.controller.write(addr, data)

    def transaction(self) -> Transaction:
        """Begin a commit group::

            with pool.transaction() as tx:
                tx.write(addr, new_bytes)
        """
        return Transaction(self)

    def commit(self, addrs: list[int], data: list[bytes], site: str) -> None:
        """Land ``data[i]`` at ``addrs[i]`` in one ``write_many``.

        With an injector attached, ``site`` fires once per row first, in
        the order ``write_many`` programs them (``controller.passes``), and
        a torn firing of row ``j`` persists every row before it in that
        order plus a prefix of row ``j``: exactly the states a crash
        inside the ``write_many`` can leave, which need not be a prefix
        of ``addrs``.  The last row's payload stops short of its last byte
        that differs from the media: once that byte lands the commit has
        happened, and a crash after the commit point is not a crash inside
        it.
        """
        controller = self.controller
        if self.faults is not None:
            sizes = [len(d) for d in data]
            order = [i for b in controller.passes(addrs, sizes) for i in b]
            last = order[-1]
            differs = np.flatnonzero(
                controller.peek(addrs[last], sizes[last])
                != np.frombuffer(data[last], dtype=np.uint8)
            )
            sizes[last] = int(differs[-1]) if differs.size else 0
            for j, row in enumerate(order):
                self.faults.fire(
                    site,
                    payload_len=sizes[row],
                    payload_writer=lambda n, landed=order[:j], row=row: (
                        self._torn(addrs, data, landed, row, n)
                    ),
                )
        controller.write_many(addrs, data)

    def _torn(self, addrs, data, landed, row: int, n: int) -> None:
        """What a crash leaves of a ``write_many``: the ``landed`` rows
        whole and the first ``n`` bytes of ``row`` (through the
        crash-interrupted program path, which needs no live controller
        afterwards)."""
        for i in landed:
            self.controller.torn_program(addrs[i], data[i])
        self.controller.torn_program(addrs[row], data[row][:n])
