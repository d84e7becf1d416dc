"""Write batching for small values (§4.1.4).

"To overcome the overhead incurred due to small key-value pairs, batching
can be applied so that small writes are grouped together to form larger
writes to memory segments.  This way, E2-NVM needs to map the free memory
locations based on the batch size rather than the key-value pair size."

``WriteBatcher`` accumulates small values into a segment-sized buffer; when
the buffer fills (or ``flush`` is called), the whole batch is placed by the
engine as one segment write.  ``put`` returns a :class:`PendingValue`
handle whose ``locator`` resolves to (batch address, offset, length) once
its batch is flushed.  Deleting a value tombstones it inside its batch; a
batch whose live bytes drop to zero is released back to the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.e2nvm import E2NVM


@dataclass(frozen=True)
class BatchLocator:
    """Where a batched value lives: its batch's segment and slice."""

    batch_addr: int
    offset: int
    length: int


class PendingValue:
    """Handle for a buffered value; resolves to a locator at flush time."""

    def __init__(self, batcher: "WriteBatcher", offset: int, length: int) -> None:
        self._batcher = batcher
        self._offset = offset
        self._length = length
        self._locator: BatchLocator | None = None

    def _resolve(self, batch_addr: int) -> None:
        self._locator = BatchLocator(batch_addr, self._offset, self._length)

    @property
    def locator(self) -> BatchLocator:
        """The value's final location (flushes the open batch if needed)."""
        if self._locator is None:
            self._batcher.flush()
        assert self._locator is not None
        return self._locator


class WriteBatcher:
    """Groups small values into engine-segment-sized batch writes.

    Args:
        engine: a trained :class:`E2NVM` engine providing placement.

    A flushed batch's unused tail is zero-filled.
    """

    def __init__(self, engine: E2NVM) -> None:
        self.engine = engine
        self.segment_size = engine.segment_size
        self._buffer = bytearray()
        self._open_handles: list[PendingValue] = []
        self._live_bytes: dict[int, int] = {}  # batch addr -> live payload
        self._dead: dict[int, set[int]] = {}  # batch addr -> deleted offsets

    def put(self, value: bytes) -> PendingValue:
        """Buffer a value; returns a handle that resolves after flush
        (a one-value :meth:`put_many`)."""
        return self.put_many([value])[0]

    def put_many(self, values: list[bytes]) -> list[PendingValue]:
        """Buffer many values; full batches are written in one engine call.

        Every batch that fills up along the way is flushed through
        ``engine.write_many`` — one forward pass and one vectorised device
        write for all of them.  Values longer than a segment are rejected —
        write those directly through the engine.  On a write failure no
        batcher state changes: the engine has already un-claimed the batch
        addresses and none of the values (or handles) are committed.
        """
        values = list(values)
        for value in values:
            if not isinstance(value, bytes) or not value:
                raise TypeError("values must be non-empty bytes")
            if len(value) > self.segment_size:
                raise ValueError(
                    f"value of {len(value)} bytes exceeds the "
                    f"{self.segment_size}-byte batch size"
                )
        handles: list[PendingValue] = []
        full: list[tuple[bytearray, list[PendingValue]]] = []
        buffer = bytearray(self._buffer)
        open_handles = list(self._open_handles)
        for value in values:
            if len(buffer) + len(value) > self.segment_size:
                full.append((buffer, open_handles))
                buffer, open_handles = bytearray(), []
            handle = PendingValue(self, len(buffer), len(value))
            buffer.extend(value)
            open_handles.append(handle)
            handles.append(handle)
        self._write_batches(full)
        self._buffer, self._open_handles = buffer, open_handles
        return handles

    def flush(self) -> int | None:
        """Write the open batch through the engine; returns its address."""
        if not self._buffer:
            return None
        (addr,) = self._write_batches([(self._buffer, self._open_handles)])
        self._buffer, self._open_handles = bytearray(), []
        return addr

    def _write_batches(self, batches) -> list[int]:
        """Write each ``(buffer, handles)`` batch as one padded segment —
        all of them in one ``engine.write_many`` — and resolve its handles."""
        if not batches:
            return []
        results = self.engine.write_many(
            [bytes(buf).ljust(self.segment_size, b"\0") for buf, _ in batches]
        )
        for (addr, _), (_, handles) in zip(results, batches):
            self._live_bytes[addr] = sum(h._length for h in handles)
            for handle in handles:
                handle._resolve(addr)
        return [addr for addr, _ in results]

    def read(self, locator: BatchLocator) -> bytes:
        """Read one batched value back through the engine's controller."""
        return self.engine.controller.read(
            locator.batch_addr + locator.offset, locator.length
        )

    def delete(self, locator: BatchLocator) -> None:
        """Tombstone a value; releases the batch when it empties.

        Deleting the same locator twice raises ``KeyError`` — a repeated
        delete must not double-decrement the batch's live-byte count (which
        would prematurely release a batch still holding live values).
        """
        if locator.batch_addr not in self._live_bytes:
            raise KeyError(f"unknown batch {locator.batch_addr}")
        dead = self._dead.setdefault(locator.batch_addr, set())
        if locator.offset in dead:
            raise KeyError(
                f"value at batch {locator.batch_addr} offset "
                f"{locator.offset} is already deleted"
            )
        dead.add(locator.offset)
        self._live_bytes[locator.batch_addr] -= locator.length
        if self._live_bytes[locator.batch_addr] <= 0:
            del self._live_bytes[locator.batch_addr]
            del self._dead[locator.batch_addr]
            self.engine.release(locator.batch_addr)
