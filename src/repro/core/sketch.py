"""Placement by nearest content: a bit-sampled sketch of every segment.

Each object segment keeps one ``uint64`` word in DRAM: its logical content
sampled at :data:`SKETCH_BITS` bit positions drawn from the seed and the
segment size (Indyk and Motwani's locality-sensitive hash for Hamming
distance, 1998).  A value claims the free segment whose word differs least
from its own at the positions inside the value's prefix, the segment freed
first on a tie, row by row, so a batch places as B scalar claims would.  A
write updates the prefix positions of its word; a release only frees the
segment.  Nothing is trained, and no RNG or thread is on the write path.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.address_pool import PoolExhaustedError
from repro.core.engine import PlacementEngine
from repro.util.bits import popcount_words

#: Sampled bit positions per segment: one ``uint64`` word.
SKETCH_BITS = 64


class SegmentSketch:
    """The sketch words of ``n_segments`` segments, and which are free.

    ``words`` holds one row of ``n_words`` ``uint64`` per segment; bit ``i``
    of a row is the content bit at ``positions[i]``.  A free segment carries
    the stamp of its release: the lower, the earlier it was freed.
    """

    def __init__(self, segment_size: int, n_segments: int, seed: int,
                 n_bits: int = SKETCH_BITS) -> None:
        if not 0 < n_bits < 256:
            raise ValueError("n_bits must be 1-255: distances count in uint8")
        cells = segment_size * 8
        rng = np.random.default_rng([seed, segment_size])
        self.positions = np.sort(rng.choice(cells, min(n_bits, cells), False))
        self.segment_size = segment_size
        self.n_words = -(-self.positions.size // 64)
        # Where each word bit is read from; padding bits read bit 0 of byte
        # 0 through a zero mask, so they are always clear.
        pad = self.n_words * 64 - self.positions.size
        self._bytes = np.pad(self.positions // 8, (0, pad))
        bits = (0x80 >> self.positions % 8).astype(np.uint8)
        self._bits = np.pad(bits, (0, pad))
        # Row L: the sampled positions inside an L-byte prefix.
        inside = np.arange(segment_size + 1)[:, None] * 8 > self.positions
        self._prefix = self._pack(np.pad(inside, ((0, 0), (0, pad))))
        self.words = np.zeros((n_segments, self.n_words), dtype=np.uint64)
        self.free = np.zeros(n_segments, dtype=bool)
        self._stamps = np.zeros(n_segments, dtype=np.int64)
        self._tick = 0

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """``(B, 64 * n_words)`` flags (nonzero = set) as words."""
        packed = np.packbits(bits.ravel(), bitorder="little")
        return packed.view(np.uint64).reshape(len(bits), self.n_words)

    def sketch(self, rows: np.ndarray) -> np.ndarray:
        """Words of a ``(B, segment_size)`` ``uint8`` block of contents."""
        return self._pack(rows[:, self._bytes] & self._bits)

    def sketch_values(self, values) -> tuple[np.ndarray, np.ndarray | None]:
        """Words of byte values (zero-padded to a segment) and the masks of
        the positions each one's prefix covers; ``None`` when every value
        fills its segment and so covers them all."""
        size = self.segment_size
        lengths = [len(v) for v in values]
        if min(lengths) == size:
            data, masks = b"".join(values), None
        else:
            data = b"".join([bytes(v).ljust(size, b"\0") for v in values])
            masks = self._prefix[lengths]
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, size)
        return self.sketch(rows), masks

    def claim(self, words: np.ndarray, masks: np.ndarray | None):
        """Claim, row by row, the free segment at the least masked distance
        from each row of ``words``, the earliest freed on a tie; the
        claimed words take the rows' masked positions (a write that does
        not land re-reads them).  Returns ``(segments, chosen, fifo)``: the
        summed distance of the picks and of each row's earliest-freed
        segment.  :class:`PoolExhaustedError` claims nothing."""
        free = np.flatnonzero(self.free)
        n = len(words)
        if free.size < n:
            raise PoolExhaustedError("no free segment is left to place on")
        order = free[np.argsort(self._stamps[free])]  # earliest freed first
        dist = None  # (rows, free) distances, one 2-D pass per word
        for w in range(self.n_words):
            diff = words[:, w, None] ^ self.words[order, w]
            if masks is not None:
                diff &= masks[:, w, None]
            counts = popcount_words(diff)
            dist = counts if dist is None else dist + counts
        picks = dist.argmin(axis=1).tolist()  # first minimum: earliest
        heads, taken, head = [], set(), 0
        for row, pick in enumerate(picks):
            while head in taken:
                head += 1
            heads.append(head)
            if pick in taken:  # an earlier row of the batch took it
                key = dist[row].astype(np.intp)
                key[list(taken)] = np.iinfo(np.intp).max
                picks[row] = pick = int(key.argmin())
            taken.add(pick)
        at = np.array([picks, heads])
        segments = order[at[0]]
        self.free[segments] = False
        self.write(segments, words, masks)
        chosen, fifo = dist[np.arange(n), at].sum(axis=1).tolist()
        return segments, chosen, fifo

    def write(self, segments, words: np.ndarray, masks) -> None:
        """Set the masked positions of each segment's word from ``words``
        (all of them when ``masks`` is ``None``)."""
        if masks is not None:
            words = (self.words[segments] & ~masks) | (words & masks)
        self.words[segments] = words

    def release(self, segments) -> None:
        """Free ``segments``, stamped in the order given (newest last)."""
        self.free[segments] = True
        self._stamps[segments] = self._tick + np.arange(len(segments))
        self._tick += len(segments)

    def memory_footprint_bytes(self) -> int:
        """DRAM bytes: words, free flags and release stamps."""
        return self.words.nbytes + self.free.nbytes + self._stamps.nbytes


class SketchEngine(PlacementEngine):
    """The durable store's engine.  Built over a medium as it stands:
    every object segment is sketched (:meth:`content_words`) and free, in
    address order, until recovery claims the live ones
    (:meth:`mark_allocated`) and bars the dead.  Reads ``config.seed``."""

    def __init__(
        self, controller, config=None, faults=None, reserved_segments=0
    ) -> None:
        super().__init__(controller, config, faults, reserved_segments)
        n = controller.n_segments - reserved_segments
        self.sketch = SegmentSketch(self.segment_size, n, self.config.seed)
        self.sketch.words[:] = self.content_words()
        self.sketch.release(range(n))
        # Foreground ops and an in-flight maintenance round share the set.
        self._lock = threading.Lock()
        self._placed = self._chosen_distance = self._fifo_distance = 0

    def _segments(self, addrs) -> list[int]:
        size, first = self.segment_size, self.reserved_segments
        return [addr // size - first for addr in addrs]

    def content_words(self) -> np.ndarray:
        """Every object segment's word, from one gather of the medium's
        content plane with ECP replacements applied: the stored charge,
        not its drifted reading, since drift mis-senses a cell without
        changing what was written."""
        device, size = self.controller.device, self.segment_size
        start = self.reserved_segments * size
        span = device.capacity_bytes - start
        rows = device.peek(start, span) ^ device.drift_mask(start, span)
        rows = rows.reshape(-1, size)
        ecc = self.controller.ecc
        if ecc is not None and ecc.any_entries():
            segs, offsets, values = ecc.state_arrays()
            keep = segs >= self.reserved_segments
            at = (segs[keep] - self.reserved_segments, offsets[keep] // 8)
            bits = (0x80 >> offsets[keep] % 8).astype(np.uint8)
            np.bitwise_and.at(rows, at, ~bits)
            np.bitwise_or.at(rows, at, bits * values[keep].astype(np.uint8))
        return self.sketch.sketch(rows)

    def _resketch(self, addrs) -> None:
        """Re-read words the engine did not write (failed rows, spares)."""
        segments = self._segments(addrs)
        self.sketch.words[segments] = self.content_words()[segments]

    # ------------------------------------------------------------- placement

    def _claim(self, values: list) -> tuple[list[int], list[None]]:
        words, masks = self.sketch.sketch_values(values)
        size, first = self.segment_size, self.reserved_segments
        with self._lock:
            segments, chosen, fifo = self.sketch.claim(words, masks)
            addrs = ((segments + first) * size).tolist()
            self._allocated.update(dict.fromkeys(addrs))
            self._placed += len(addrs)
            self._chosen_distance += chosen
            self._fifo_distance += fifo
        return addrs, [None] * len(addrs)

    def write_at(self, addr: int, value: bytes):
        result = super().write_at(addr, value)
        words, masks = self.sketch.sketch_values([value])
        with self._lock:
            self.sketch.write(self._segments([addr]), words, masks)
        return result

    def release_many(self, addrs: list[int]) -> None:
        """Free ``addrs`` in the caller's order (newest last); a retired or
        retiring segment is quarantined instead."""
        addrs = list(addrs)
        for addr in addrs:
            if addr not in self._allocated:
                raise KeyError(f"address {addr} is not allocated")
        health, size = self.health, self.segment_size
        dying = [a for a in addrs
                 if health is not None and health.is_unplaceable(a // size)]
        for addr in dying:
            self.quarantine_address(addr)
        with self._lock:
            for addr in addrs:
                self._allocated.pop(addr, None)
            self.sketch.release(
                self._segments([a for a in addrs if a not in dying])
            )

    def _abandon(self, addrs: list[int]) -> None:  # content unknown
        with self._lock:
            self._resketch(addrs)
        self.release_many(addrs)

    # -------------------------------------------------------------- free set

    def _take(self, addr: int) -> bool:
        (segment,) = self._segments([addr])
        with self._lock:
            if not self.sketch.free[segment]:
                return False
            self.sketch.free[segment] = False
            return True

    def _bar(self, addr: int) -> None:
        (segment,) = self._segments([addr])
        with self._lock:
            self.sketch.free[segment] = False
            self._resketch([addr])

    def _pool_spare(self, addr: int) -> None:
        with self._lock:
            self._resketch([addr])
            self.sketch.release(self._segments([addr]))

    def free_addresses(self) -> list[int]:
        """Addresses of the free set, ascending."""
        free = np.flatnonzero(self.sketch.free) + self.reserved_segments
        return (free * self.segment_size).tolist()

    _pooled = free_addresses

    # ------------------------------------------------------------ inspection

    def placement_telemetry(self) -> dict:
        """``chosen_distance`` and ``fifo_distance`` sum, over ``placed``
        values, the sampled distance to the segment taken and to the one a
        FIFO free list would have handed out.  :class:`~repro.core.e2nvm.
        E2NVM`'s cache and model keys read 0: there is no model."""
        keys = ("cache_hits", "cache_misses", "student_served",
                "teacher_served")
        return dict.fromkeys(keys, 0) | {
            "placed": self._placed,
            "chosen_distance": self._chosen_distance,
            "fifo_distance": self._fifo_distance,
        }
