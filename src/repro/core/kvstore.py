"""The persistent key/value store of Figure 3.

Four components cooperate exactly as the paper's diagram shows:

- the **placement engine** serves addresses: a plain ``KVStore(E2NVM(...))``
  runs the paper's engine (VAE + K-means + the Dynamic Address Pool); a
  durable store places by content sketch (:mod:`repro.core.sketch`) and
  fits no model;
- the **data index** — a DRAM-resident red-black tree — maps keys to the NVM
  address and length of their value;
- **NVM storage** holds the values, one per fixed-size segment.

PUT/UPDATE follow Algorithm 1 (new writes go to a freshly predicted similar
segment; the update's old segment is recycled).  DELETE follows Algorithm 2
(the validity flag is reset and the address returns to the engine's free
set).  GET
and SCAN go through the index only.

The store runs in one of two modes:

- **volatile** (``KVStore(engine)``): the historical simulator mode — index
  and validity flags are DRAM-only and die with the process;
- **durable** (:meth:`KVStore.create` / :meth:`KVStore.open` over a
  :class:`~repro.pmem.pool.PersistentPool`): a value is first written to
  its free — hence unreachable — segment, then one commit group publishes
  it in a slot of its key's :class:`~repro.pmem.catalog.PersistentCatalog`
  record (one write per pair, the record's non-newest slot), a whole
  batch of pairs per commit; the paper's Algorithm 2 validity flag
  becomes a persisted tombstone, and :meth:`KVStore.open` rebuilds the
  index, validity map and the engine's live and free sets from the media
  alone after a crash.  See the README's "Durability contract" section.
"""

from __future__ import annotations

import zlib
from bisect import insort
from dataclasses import dataclass

from repro.core.address_pool import PoolExhaustedError
from repro.core.config import E2NVMConfig
from repro.core.engine import PlacementEngine
from repro.core.sketch import SketchEngine
from repro.index.rbtree import RedBlackTree
from repro.nvm.health import SegmentRetiredError
from repro.pmem.catalog import (
    DEFAULT_KEY_CAPACITY,
    MAX_BATCH,
    PersistentCatalog,
)
from repro.pmem.pool import PersistentPool
from repro.testing.faults import CrashError


class StoreReadOnlyError(RuntimeError):
    """Wear-out exhausted every placement option (free capacity and
    reserved spares alike): the store now serves reads only.  Every value
    written before the transition stays readable — retirement never loses
    committed data — but PUT/DELETE raise this error from here on."""


class CorruptValueError(RuntimeError):
    """A value failed its CRC32 check and could not be repaired.

    The read path *never* returns bytes that disagree with the checksum
    persisted alongside the value: on mismatch it first re-reads through
    the ECP-corrected path, then (when a scrubber is attached) refresh-
    writes the segment to heal resistance drift and re-reads — and only
    when every repair avenue fails does this error surface, instead of
    silently returning garbage."""


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`KVStore.open` found and rebuilt from the media."""

    #: Slots of the batch a crash interrupted that recovery dropped (and
    #: zeroed): those past the batch's first missing index.
    dropped_slots: int
    live_objects: int
    free_objects: int
    duplicate_keys_dropped: int
    max_epoch: int
    #: Live values whose bytes disagreed with their catalog CRC32 during
    #: the recovery scan (drift or undetected media damage); the values
    #: stay in place — GET repairs them on demand or raises
    #: :class:`CorruptValueError`, and an attached scrubber heals them.
    crc_mismatches: int = 0
    #: Drained retiring segments the recovery scan reclaimed into the
    #: spares pool (the crash-safe replay of ``HealthManager.reclaim``:
    #: a retiring segment with no live catalog record was fully
    #: evacuated before the crash).
    reclaimed_segments: int = 0


class KVStore:
    """Persistent KV store with memory-aware write placement.

    Args:
        engine: a placement engine — a trained (or to-be-trained)
            :class:`~repro.core.e2nvm.E2NVM`, or the durable store's
            :class:`~repro.core.sketch.SketchEngine`.
        catalog: optional :class:`PersistentCatalog` enabling the durable
            write path over its pool; prefer :meth:`create`/:meth:`open`
            over passing it directly.
    """

    def __init__(
        self,
        engine: PlacementEngine,
        *,
        catalog: PersistentCatalog | None = None,
    ) -> None:
        self.engine = engine
        #: The key → location index: a red-black tree, as in Figure 3
        #: ("RB-Tree.put(D, A)").
        self.index = RedBlackTree()
        self.pool: PersistentPool | None = (
            catalog.pool if catalog is not None else None
        )
        self.catalog = catalog
        # The one address-keyed DRAM mirror, ``addr → (key, crc, heat,
        # record)`` per live value.  Presence is the validity flag (durable
        # mode: mirrors the catalog's persisted bit; volatile mode: the
        # only copy); ``key`` is the reverse map relocation, scrubbing and
        # wear leveling use; ``crc`` mirrors the persisted CRC32 every read
        # is verified against; ``heat`` is the write-temperature stamp
        # below; ``record`` is the key's catalog record id (``None`` when
        # volatile).
        self._live: dict[int, tuple[bytes, int, int, int | None]] = {}
        #: Catalog record ids no live key holds, ascending (durable mode).
        self._free_records = list(range(catalog.n_records)) if catalog else []
        self._next_epoch = 1
        # Degraded mode: set when wear-out retirement exhausts the last
        # placement option; see :class:`StoreReadOnlyError`.
        self._read_only = False
        self._relocating = False
        self.recovery: RecoveryReport | None = None
        # Optional background scrubber (repro.nvm.scrubber.Scrubber); when
        # attached, the read path can refresh-write a drifted segment to
        # repair a CRC mismatch instead of raising CorruptValueError.
        self.scrubber = None
        # Optional background compactor (repro.nvm.compactor.Compactor):
        # drains the relocation queue and runs static wear-leveling swaps
        # off the PUT path.
        self.compactor = None
        self.corrupt_reads_detected = 0
        self.read_repairs = 0
        self.corrupt_relocations_skipped = 0
        # Write-temperature tracking for static wear leveling: the heat
        # stamp of a live address is the "last user write" sequence number.
        # Migrations forward the stamp unchanged (moving a value does not
        # make it hot), so coldness = _write_seq - stamp measures genuine
        # dormancy.  DRAM-only; recovery re-seeds it from catalog epochs
        # (an equivalent monotone clock).
        self._write_seq = 0

    # ------------------------------------------------------- durable set-up

    @classmethod
    def create(
        cls,
        pool: PersistentPool,
        *,
        config: E2NVMConfig | None = None,
        faults=None,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ) -> "KVStore":
        """Format fresh media and build a durable store over ``pool``:
        zero the catalog and sketch the object segments as they stand."""
        catalog = PersistentCatalog(pool, key_capacity)
        catalog.format()
        engine = SketchEngine(
            pool.controller, config, faults,
            reserved_segments=pool.meta_segments,
        )
        return cls(engine, catalog=catalog)

    @classmethod
    def open(
        cls,
        pool: PersistentPool,
        *,
        config: E2NVMConfig | None = None,
        faults=None,
        key_capacity: int = DEFAULT_KEY_CAPACITY,
    ) -> "KVStore":
        """Re-open an existing store from the media alone (full recovery).

        1. Resolves the persistent catalog (:meth:`PersistentCatalog.
           recover`): the batch a crash interrupted keeps its longest
           batch-order prefix and the rest is zeroed (idempotent — a crash
           *during* recovery just recovers again); every live record
           rebuilds one index entry, validity flag and allocator
           registration.
        2. Rebuilds the engine's sketch words from one gather of the
           medium (:class:`~repro.core.sketch.SketchEngine`); nothing is
           fitted.  A worn store opens writable: a PUT that finds no free
           segment enters read-only, as on a live store.

        No DRAM state of the previous incarnation is consulted; the report
        of what was rebuilt lands on :attr:`recovery`.
        """
        catalog = PersistentCatalog(pool, key_capacity)
        resolution = catalog.recover()

        # Live records, newest epoch first: a record whose key or segment
        # a newer record already claimed — or that names no object segment
        # — is deleted (it cannot happen under atomic PUTs; this is the
        # one defensive rule), each by a tombstone batch of its own.
        keys: set[bytes] = set()
        taken: dict[int, object] = {}  # value address -> its live record
        stale = []
        max_epoch = resolution.max_epoch
        for entry in sorted(resolution.entries, key=lambda e: -e.epoch):
            addr = (
                pool.object_address(entry.segment)
                if entry.segment < pool.capacity_objects else None
            )
            if addr is None or entry.key in keys or addr in taken:
                stale.append(entry)
            else:
                keys.add(entry.key)
                taken[addr] = entry
        if stale:
            with pool.transaction() as tx:
                cleared = [
                    (e.record, catalog.tx_clear(tx, e.record, epoch))
                    for epoch, e in enumerate(stale, max_epoch + 1)
                ]
            catalog.published(cleared)

        # Wear-out state lives on the device object (simulated media
        # metadata): retired/retiring segments and reserved spares survive
        # the crash and must be excluded from the rebuilt free pool.
        health_state = pool.controller.device.health
        quarantine: set[int] = set()
        reclaimed_on_open = 0
        if health_state is not None:
            seg_size = pool.segment_size
            # Crash-safe reclamation replay: a retiring segment with no
            # live catalog record was fully drained before the crash.
            # Fold it into the spares pool instead of stranding it — the
            # ``compact.reclaim`` site fires *before* the health-state
            # mutation, so recovery always redoes an interrupted reclaim.
            for seg in sorted(health_state.retiring):
                if seg * seg_size in taken:
                    continue
                health_state.reclaimed.add(seg)
                health_state.spares.extend([seg * seg_size])
                reclaimed_on_open += 1
            quarantine = {
                s * seg_size
                for s in health_state.retired | health_state.retiring
            } | set(health_state.spares)

        engine = SketchEngine(
            pool.controller, config, faults,
            reserved_segments=pool.meta_segments,
        )
        store = cls(engine, catalog=catalog)
        store._free_records = sorted(
            set(store._free_records) - {e.record for e in taken.values()}
        )
        crc_mismatches = 0
        for addr, entry in sorted(taken.items()):
            key = entry.key
            engine.mark_allocated(addr)
            store.index.put(key, (addr, entry.value_len))
            # Approximate the write-temperature stamp from the persisted
            # epoch: both are monotone per-PUT clocks, so relative
            # coldness survives the crash even though the DRAM heat map
            # does not.  (Migration bumps the epoch, so a value moved by
            # wear leveling looks warmer after recovery than before — a
            # conservative error: it only delays re-migrating it.)
            store._live[addr] = (key, entry.crc, entry.epoch, entry.record)
            # Recovery-time integrity scan: verify every live value against
            # its persisted CRC.  Mismatches (resistance drift while the
            # store was down, or media damage) are only *counted* here —
            # the data stays put, and the read path repairs or refuses it.
            value = pool.read(addr, entry.value_len)
            if zlib.crc32(value) & 0xFFFFFFFF != entry.crc:
                crc_mismatches += 1
        store._next_epoch = max_epoch + len(stale) + 1
        store._write_seq = max_epoch

        if health_state is not None:
            # Bar every dead/dying/spare address from the free set, and
            # re-queue retiring segments that still hold live data so the
            # next PUT resumes their evacuation.
            # A retiring segment that holds live data stays claimed.
            for addr in sorted(quarantine - taken.keys()):
                engine.quarantine_address(addr)
            health = engine.health
            if health is not None:
                for seg in sorted(health_state.retiring):
                    if seg * seg_size in taken:
                        health.queue_relocation(seg)
        store.recovery = RecoveryReport(
            dropped_slots=len(resolution.dropped),
            live_objects=len(taken),
            free_objects=len(engine.free_addresses()),
            duplicate_keys_dropped=len(stale),
            max_epoch=max_epoch,
            crc_mismatches=crc_mismatches,
            reclaimed_segments=reclaimed_on_open,
        )
        return store

    # -------------------------------------------------------------- training

    def train(self, verbose: bool = False) -> dict:
        """Train the placement engine on the current memory contents."""
        return self.engine.train(verbose=verbose)

    # ------------------------------------------------------------ operations

    def put(self, key: bytes, value: bytes) -> int:
        """Insert or update; returns the NVM address chosen for the value
        (a :meth:`put_many` batch of one)."""
        return self.put_many([(key, value)])[0]

    @property
    def read_only(self) -> bool:
        """Whether wear-out has degraded the store to read-only."""
        return self._read_only

    def _check_writable(self) -> None:
        if self._read_only:
            raise StoreReadOnlyError(
                "wear-out exhausted free capacity and spares; the store "
                "is read-only"
            )

    def put_many(self, items: list[tuple[bytes, bytes]]) -> list[int]:
        """Insert or update a batch of pairs; returns one address per item.

        Algorithm 1 for the whole batch: one engine claim and one batched
        differential write put every value on a
        free segment (a row whose segment verify-after-write retires is
        re-placed and retried alone).  In durable mode the values are
        still unreachable at that point — a crash simply leaves them as
        free-segment content, which recovery sketches as it stands — and
        become
        visible when their catalog slots commit, the whole batch in one
        catalog pass.  A crash mid-batch leaves a *prefix* of the batch
        committed, as sequential :meth:`put` calls would (recovery trims
        the interrupted batch at its first missing slot), and the batch
        is acknowledged only after the pass.
        """
        items = list(items)
        for key, value in items:
            if not isinstance(key, bytes):
                raise TypeError("keys must be bytes")
            if not isinstance(value, bytes) or not value:
                raise TypeError("values must be non-empty bytes")
            if self.pool is not None:
                self._check_durable_key(key)
        if not items:
            return []
        self._check_writable()
        # Drain pending evacuations *before* this batch's own writes:
        # every relocation is content-neutral (same key, same value, new
        # home), so a crash anywhere inside one never changes observable
        # store contents — whereas relocating after the commit would open
        # a window where this PUT is committed but not yet acknowledged.
        self.drain_relocations()
        values = [value for _, value in items]
        for last_try in (False, True):
            try:
                addrs, _ = self.engine.place_and_write(values)
                break
            except PoolExhaustedError as exc:
                # The engine exhausted free capacity *and* reserved
                # spares.  Before degrading, reclaim stranded drained
                # retiring segments into spares and retry once.
                if last_try or not self._reclaim_stranded():
                    self._enter_read_only(exc)
        self._install(items, addrs)
        return addrs

    def _install(self, items, addrs: list[int]) -> None:
        """Make written values the live ones of their keys and recycle the
        addresses they supersede.  Volatile mode only has DRAM mirrors to
        update; durable mode first commits the catalog slots, one batch
        at a time (:meth:`_batches`), and a failed commit un-claims its
        own addresses and everything after them before the error
        propagates (:meth:`_commit_catalog`).  A :class:`CrashError`
        propagates raw: no DRAM cleanup, the harness re-opens from media.

        A key repeated within one group keeps only its last value: the
        earlier ones were superseded before they could become visible, so
        their segments go straight back to the pool.
        """
        crcs = [zlib.crc32(value) & 0xFFFFFFFF for _, value in items]
        for group in self._batches(items):
            last = {items[i][0]: i for i in group}
            live = [i for i in group if last[items[i][0]] == i]
            superseded = [addrs[i] for i in group if last[items[i][0]] != i]
            records = [None] * len(live)
            if self.pool is not None:
                records = self._commit_catalog(
                    [(*items[i], addrs[i], crcs[i]) for i in live],
                    addrs[group.start:],
                )
            stale = []
            for i, record in zip(live, records):
                (key, value), addr = items[i], addrs[i]
                old = self.index.get(key)
                self._write_seq += 1
                self._live[addr] = (key, crcs[i], self._write_seq, record)
                self.index.put(key, (addr, len(value)))
                if old is not None:
                    # UPDATE: the previous location is recycled
                    # (Algorithm 2's path).
                    self._live.pop(old[0], None)
                    stale.append(old[0])
            self._recycle_many(stale)
            if superseded:
                self.engine.release_many(superseded)
            self.engine.record_committed_writes(len(group))

    def _batches(self, items):
        """The groups :meth:`_install` publishes ``items`` in: all of them
        at once in volatile mode; in durable mode, consecutive batches of
        distinct keys, at most :data:`~repro.pmem.catalog.MAX_BATCH`
        pairs each — a key that repeats starts the next batch.  A crash
        keeps a batch-order prefix of the interrupted batch, so every
        crash state stays a prefix of the call; dropping a repeated key's
        first occurrence instead would leave states no prefix matches."""
        if self.pool is None:
            yield range(len(items))
            return
        start = 0
        while start < len(items):
            seen: set[bytes] = set()
            end = start
            while (
                end < len(items)
                and end - start < MAX_BATCH
                and items[end][0] not in seen
            ):
                seen.add(items[end][0])
                end += 1
            yield range(start, end)
            start = end

    def _commit_catalog(self, group, claimed: list[int]) -> list[int]:
        """One commit group publishing ``(key, value, addr, crc)`` pairs as
        one batch — a ``None`` value is a DELETE's tombstone — and
        returns each pair's catalog record id.  Every slot carries the
        batch's first epoch and the pair's index.  An UPDATE writes the
        non-newest slot of the key's record; an INSERT fills the lowest
        free record id, claimed only once the commit has landed.  On a
        non-crash failure the addresses in ``claimed`` are un-claimed."""
        epoch = self._next_epoch
        self._next_epoch += len(group)  # a failed batch burns its epochs
        catalog = self.catalog
        free = self._free_records
        records, slots = [], []
        inserts = 0
        try:
            with self.pool.transaction() as tx:
                for index, (key, value, addr, crc) in enumerate(group):
                    old = self.index.get(key)
                    if old is None:
                        record = free[inserts]
                        inserts += 1
                        slot = catalog.tx_set(
                            tx, record, self.pool.object_index(addr), key,
                            len(value), epoch, index, crc,
                        )
                    elif value is None:
                        record = self._live[old[0]][3]
                        slot = catalog.tx_clear(tx, record, epoch)
                    else:
                        record = self._live[old[0]][3]
                        slot = catalog.tx_move(
                            tx, record, key, self.pool.object_index(addr),
                            len(value), epoch, index, crc,
                        )
                    records.append(record)
                    slots.append((record, slot))
        except CrashError:
            raise
        except BaseException:
            # Hazard 3 (DESIGN.md, "A log-free commit"): with no log, slots
            # that landed before the failure stay valid, and a later reopen
            # would let them win over segments this process is about to
            # release and reuse.  So zero every slot the batch staged, and
            # only then un-claim.  Also KeyboardInterrupt/SystemExit: an
            # interrupt lands between rows just as an error does, and the
            # process may carry on with this store.  Should the zeroing
            # fail too, the store stays read-only until a reopen resolves
            # the media.
            self._read_only = True
            catalog.invalidate(slots)
            self._read_only = False
            self.engine.release_many(claimed)
            raise
        catalog.published(slots)
        del free[:inserts]
        return records

    def _check_durable_key(self, key: bytes) -> None:
        if len(key) > self.catalog.key_capacity:
            raise ValueError(
                f"key of {len(key)} bytes exceeds catalog key capacity "
                f"{self.catalog.key_capacity}"
            )

    def get(self, key: bytes) -> bytes | None:
        """Value for ``key``, or ``None`` when absent.

        Every read is verified against the value's CRC32 (persisted in the
        catalog record in durable mode); see :class:`CorruptValueError`
        for the mismatch contract.

        Raises:
            CorruptValueError: the value failed its checksum and no repair
                avenue (ECP-corrected re-read, scrubber refresh-write)
                produced matching bytes.
        """
        return self._read_value(key)

    def attach_scrubber(self, scrubber) -> None:
        """Register a :class:`~repro.nvm.scrubber.Scrubber` so CRC-failed
        reads can attempt a refresh-write repair before giving up."""
        self.scrubber = scrubber

    def attach_compactor(self, compactor) -> None:
        """Register a :class:`~repro.nvm.compactor.Compactor` (capacity
        reclamation + static wear leveling); test harnesses drive it
        synchronously through ``store.compactor.compact_round()``."""
        self.compactor = compactor

    @property
    def write_seq(self) -> int:
        """Monotone user-write clock backing the per-address temperature
        stamps (coldness of an address = ``write_seq`` minus its stamp)."""
        return self._write_seq

    def heat_of(self, addr: int) -> int | None:
        """Temperature stamp of a live address (``None`` when not live)."""
        live = self._live.get(addr)
        return None if live is None else live[2]

    def _fire_site(self, site: str) -> None:
        if self.engine.faults is not None:
            self.engine.faults.fire(site)

    def get_many(self, keys: list[bytes]) -> list[bytes | None]:
        """:meth:`get` of each key, in order, as one batch: one index
        lookup per key (a dict hit, see :mod:`repro.index.rbtree`), one
        device gather for every hit, then one :meth:`_checked` per row.
        A duplicate key is read once per occurrence, an absent one not at
        all.  A row that raced a relocation or update is re-read through
        :meth:`get`'s retry loop; a CRC mismatch goes through the same
        repair ladder and raises the same :class:`CorruptValueError`.

        Every key costs the device what its :meth:`get` would, except where
        the gather has read a row before an earlier one was checked (see
        DESIGN.md, "Arity policy"): rows after a raising one were already
        read, and a key repeated after its scrubber repair was gathered
        stale, so its check pays one more ECP re-read and counts one more
        detected corruption and one more repair.
        """
        out: list[bytes | None] = [None] * len(keys)
        lookup = self.index.get
        live_of = self._live.get
        hits = []  # (position, entry, live tuple seen before the read)
        addrs, lengths = [], []
        for i, key in enumerate(keys):
            entry = lookup(key)
            if entry is not None:
                addr, length = entry
                hits.append((i, entry, live_of(addr)))
                addrs.append(addr)
                lengths.append(length)
        if not hits:
            return out
        values = self.engine.controller.read_many(addrs, lengths)
        checked = self._checked
        for (i, entry, live), value in zip(hits, values):
            key = keys[i]
            value = checked(key, entry, live, value)
            # ``None``: raced, so re-read through the scalar retry loop.
            out[i] = value if value is not None else self._read_value(key)
        return out

    def _checked(self, key: bytes, entry, live, value: bytes):
        """The one read-validation rule of :meth:`get` and
        :meth:`get_many`.  ``value`` was read at ``entry`` after ``live``
        was taken from ``_live``; it comes back as it is, repaired, or as
        ``None`` when the read must be retried.

        The bytes are ``key``'s value (*settled*) when ``live`` is still
        installed after the read and names ``key``: a segment holds the
        value its installed tuple describes, because values are only
        written to free segments and :meth:`_install` installs a new tuple
        before it pops the old one, which precedes recycling the old
        segment.  ``migrate``'s heat forwarding also swaps the tuple, which
        costs a retry and nothing else.  A CRC mismatch is believed only
        while the index still names ``entry``: otherwise the length read
        with may be that of an older value at a since-recycled address.
        """
        if (
            live is None
            or live[0] != key
            or self._live.get(entry[0]) is not live
        ):
            return None
        expected = live[1]
        if zlib.crc32(value) == expected:
            return value
        if self.index.get(key) != entry:
            return None
        addr, length = entry
        repaired = self._attempt_repair(key, addr, length, expected)
        if repaired is not None:
            return repaired
        raise CorruptValueError(
            f"value of key {key!r} at address {addr} fails its CRC32 "
            "and could not be repaired"
        )

    def _read_value(self, key: bytes) -> bytes | None:
        """Read, verify and (if needed) repair the value of ``key``.

        The read is raced against concurrent relocation/update of the same
        key (:meth:`_checked`), and retries when the value moved
        mid-flight (the read-after-retire window of background
        evacuation).  A CRC mismatch on a stable entry goes through the
        repair ladder — ECP-corrected re-read, then scrubber refresh-write
        — and raises :class:`CorruptValueError` when nothing restores
        matching bytes.
        """
        for _ in range(16):
            entry = self.index.get(key)
            if entry is None:
                return None
            addr, length = entry
            live = self._live.get(addr)
            value = self._checked(
                key, entry, live, self.engine.controller.read(addr, length)
            )
            if value is not None:
                return value
        raise RuntimeError(
            f"read of key {key!r} kept racing concurrent relocation"
        )

    def _attempt_repair(
        self, key: bytes, addr: int, length: int, expected: int
    ) -> bytes | None:
        """The repair ladder for a CRC-failed read.

        1. Re-read through the ECP-corrected path — catches corrections
           recorded between our first read and the verify.
        2. With a scrubber attached: refresh-write the segment (healing
           resistance drift *persistently* — the margin read recovers the
           true charge and the rewrite re-programs it), then re-read.

        Returns the repaired bytes, or ``None`` when the value really is
        lost (the caller raises :class:`CorruptValueError`).
        """
        self.corrupt_reads_detected += 1
        value = self.engine.controller.read(addr, length)
        if zlib.crc32(value) & 0xFFFFFFFF == expected:
            self.read_repairs += 1
            return value
        if self.scrubber is not None:
            self.scrubber.scrub_segment(addr // self.engine.segment_size)
            value = self.engine.controller.read(addr, length)
            if zlib.crc32(value) & 0xFFFFFFFF == expected:
                self.read_repairs += 1
                return value
        return None

    def delete(self, key: bytes) -> bool:
        """Algorithm 2: unlink, reset the flag, recycle the address."""
        self._check_writable()
        entry = self.index.get(key)
        if entry is None:
            return False
        addr, _ = entry
        if self.pool is not None:
            # The persisted tombstone is the durable part; it commits
            # before any DRAM structure changes.
            [record] = self._commit_catalog([(key, None, addr, 0)], [])
            insort(self._free_records, record)
        self.index.delete(key)
        self._live.pop(addr, None)
        self._recycle_many([addr])
        return True

    # ---------------------------------------------------- wear-out degradation

    def _recycle_many(self, stale: list[int]) -> None:
        """Recycle no-longer-live addresses through the engine.  Healthy
        segments return to the free set in one engine call; dying
        segments do not:

        - a *retired* segment's media is dead: it is quarantined, for
          good;
        - a *retiring* segment that this free has just fully drained (one
          value per segment) is **reclaimed**: its address joins the
          spares list as spare-class capacity instead of being stranded
          (see :meth:`HealthManager.reclaim`).  The ``compact.reclaim``
          site fires inside ``reclaim()`` before the health-state
          mutation; a crash there is idempotent because recovery reclaims
          any drained retiring segment it finds.
        """
        health = self.engine.health
        healthy = []
        for addr in stale:
            seg = addr // self.engine.segment_size
            if health is None or not health.is_unplaceable(seg):
                healthy.append(addr)
            elif health.is_retired(seg):
                self.engine.release(addr)  # quarantined by the release
            else:
                # Retiring and now empty: reclaim into the spares pool.
                # The address stays quarantined in the DAP (exactly like a
                # reserved spare) until adopt_spare() activates it.
                self.engine.quarantine_address(addr)
                health.reclaim(seg)
        if healthy:
            self.engine.release_many(healthy)

    def _reclaim_stranded(self) -> int:
        """Last-ditch reclamation before read-only degradation: fold any
        *drained* retiring segment — one that no longer holds a live value
        but was never recycled through :meth:`_recycle_many` (e.g. freed
        by an engine-level release) — into the spares list.  Returns how
        many segments were reclaimed."""
        health = self.engine.health
        if health is None:
            return 0
        count = 0
        for seg in sorted(health.state.retiring):
            addr = seg * self.engine.segment_size
            if self.engine.is_allocated(addr):
                continue  # live (or being written); not drained
            if health.reclaim(seg) is not None:
                self.engine.quarantine_address(addr)
                count += 1
        return count

    def _enter_read_only(self, exc: BaseException):
        """Pool exhaustion under a wear-out model means capacity is truly
        gone (spares included): flip to read-only and raise the dedicated
        error.  Without wear-out the exhaustion propagates unchanged (a
        full store, not a degraded one)."""
        if self.engine.health is None:
            raise exc
        self._read_only = True
        raise StoreReadOnlyError(
            "wear-out exhausted free capacity and spares; the store is "
            "now read-only"
        ) from exc

    def drain_relocations(self, budget: int | None = None) -> int:
        """Evacuate live values off retiring segments (ECP at capacity).

        Each queued segment's value is read back (patched through its ECP
        entries), re-placed via a normal PUT — the ``health.relocate``
        fault site fires just before the rewrite — and the drained dying
        segment is reclaimed (or retired) by the PUT's own update path.
        Re-entrant PUTs the relocation itself performs are guarded from
        recursing.

        Args:
            budget: queue entries to process at most (the compactor's
                rate limit); ``None`` drains the whole queue.

        Returns the number of values actually moved.
        """
        health = self.engine.health
        if health is None or self._relocating or self._read_only:
            return 0
        moved = 0
        popped = 0
        tried: set[int] = set()
        self._relocating = True
        try:
            while budget is None or popped < budget:
                seg = health.pop_pending_relocation()
                if seg is None:
                    return moved
                popped += 1
                if seg in tried:
                    continue  # re-queued by this drain's own repair reads
                tried.add(seg)
                addr = seg * self.engine.segment_size
                live = self._live.get(addr)
                if live is None:
                    continue  # freed since it was queued; nothing to move
                key = live[0]
                entry = self.index.get(key)
                if entry is None or entry[0] != addr:
                    continue
                health.fire_relocate()
                try:
                    value = self._read_value(key)
                except CorruptValueError:
                    # Unrepairable value on the dying segment: leave it in
                    # place (GET keeps refusing it explicitly) rather than
                    # relocating garbage under a now-wrong checksum, and
                    # don't re-queue — retrying cannot make the bytes come
                    # back.
                    self.corrupt_relocations_skipped += 1
                    continue
                if value is None:
                    continue  # deleted while we were looking at it
                try:
                    self.put(key, value)
                except StoreReadOnlyError:
                    # No capacity left to move it to.  The value stays
                    # readable where it is (its ECP entries still hold);
                    # re-queue so a future incarnation can retry.
                    health.queue_relocation(seg)
                    return moved
                moved += 1
        finally:
            self._relocating = False
        return moved

    def migrate(self, key: bytes, target_addr: int) -> bool:
        """Move the live value of ``key`` onto the specific free segment
        at ``target_addr`` — the compactor's static wear-leveling
        primitive (cold data is parked on worn media; the barely-worn
        segment it vacates re-enters the free pool).

        The move reuses the normal PUT path end to end — DCW differential
        write onto the (free) target, energy/endurance accounting, CRC,
        then the catalog record's re-pointing in its non-newest slot
        (:meth:`PersistentCatalog.tx_move`) — so fsck and the crash sweep
        stay authoritative over migrated values, and a crash at any point
        leaves exactly one committed copy.  The value's
        write-temperature stamp is forwarded unchanged: migration must not
        make cold data look hot.

        Fault sites: ``compact.migrate`` fires after the target is
        claimed, before any media write; the usual ``device.write`` site
        fires inside the write itself.

        Returns True when the value now lives at ``target_addr``; False
        when nothing needed to change or the move was refused (unknown
        key, busy/quarantined target, unreadable value, store read-only)
        — except that a target retiring mid-write is quarantined and a
        spare adopted in its place before returning False.
        """
        if self._read_only:
            return False
        entry = self.index.get(key)
        if entry is None:
            return False
        old_addr, _ = entry
        if old_addr == target_addr:
            return False
        try:
            value = self._read_value(key)
        except CorruptValueError:
            self.corrupt_relocations_skipped += 1
            return False
        if value is None:
            return False
        if not self.engine.claim_address(target_addr):
            return False
        heat = self.heat_of(old_addr)
        self._fire_site("compact.migrate")
        try:
            self.engine.write_at(target_addr, value)
        except SegmentRetiredError:
            # The engine already quarantined the dead target and pulled in
            # a spare.
            return False
        self._install([(key, value)], [target_addr])
        if heat is not None:
            # Forward the temperature stamp (the fresh-write stamp the
            # install set would make every migrated value look hot).
            live = self._live[target_addr]
            self._live[target_addr] = (*live[:2], heat, live[3])
        return True

    def scan(self, start_key: bytes, end_key: bytes) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs with start_key <= key <= end_key, in order
        (one :meth:`get_many` gather)."""
        keys = [key for key, _ in self.index.range(start_key, end_key)]
        return [
            (key, value)
            for key, value in zip(keys, self.get_many(keys))
            if value is not None
        ]

    def items(self):
        """Yield every (key, value) pair in key order (CRC-verified)."""
        for key, _ in self.index.items():
            value = self._read_value(key)
            if value is not None:
                yield key, value

    def keys(self):
        """Yield every key in order."""
        yield from self.index.keys()

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: bytes) -> bool:
        return self.index.get(key) is not None
