"""Offline consistency checker for durable KV-store snapshots.

``python -m repro.tools.fsck store.npz`` loads an :meth:`NVMDevice.save`
snapshot *read-only* (nothing is repaired or rolled back) and
cross-checks every layer of the persistent format:

- **Catalog** — resolved by the catalog's own recovery rule
  (:meth:`~repro.pmem.catalog.PersistentCatalog.resolve`), writing
  nothing: the slots of a batch a crash interrupted that recovery will
  drop are a warning, not an error.  Every live record must name an
  object segment no other live record names; the value bytes there are
  read back through the controller (ECP-corrected when the snapshot
  carries a wear-out model) and checked against the record's CRC32;
  duplicate live keys and records of another layout version are errors.
- **ECP table** — bit offsets within the segment (the table's shape
  bounds the segments and the entries per segment).
- **Health/catalog agreement** — live values on retired segments
  (awaiting relocation) or retiring segments (awaiting compaction) are
  warnings; spare segments that the catalog claims hold live data and
  spare segments that are also retired/retiring are errors (a segment
  holds one health state, so reclaimed-and-retired cannot be stored).

Exit status is 0 when no errors were found (warnings alone stay 0) and
1 otherwise, so the checker drops into scripts and CI as-is.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.nvm.controller import MemoryController
from repro.nvm.device import NVMDevice
from repro.pmem.catalog import (
    DEFAULT_KEY_CAPACITY,
    CatalogLayoutError,
    PersistentCatalog,
)
from repro.pmem.pool import PersistentPool


@dataclass
class FsckReport:
    """Findings of one :func:`fsck` run."""

    path: str
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: Live catalog entries whose value CRC verified clean.
    values_ok: int = 0
    #: Slots of a crash-interrupted batch that recovery will drop.
    pending_dropped_slots: int = 0
    #: Distinct live catalog keys (the cross-shard checker routes these
    #: through the manifest ring).
    live_keys: list[bytes] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warning(self, message: str) -> None:
        self.warnings.append(message)


def _scan_catalog(pool, catalog, report: FsckReport) -> set[int]:
    """Check every live record; returns the device segments they name."""
    try:
        resolution = catalog.resolve()
    except CatalogLayoutError as exc:
        report.error(str(exc))
        return set()
    if resolution.dropped:
        report.pending_dropped_slots = len(resolution.dropped)
        report.warning(
            f"catalog: {len(resolution.dropped)} slot(s) of a batch a crash "
            "interrupted lie past its first missing index (recovery drops "
            "them on the next open)"
        )
    seen_keys: dict[bytes, int] = {}
    named: dict[int, int] = {}
    for entry in resolution.entries:
        record = entry.record
        if entry.key in seen_keys:
            report.error(
                f"duplicate live key {entry.key!r} in records "
                f"{seen_keys[entry.key]} and {record}"
            )
        seen_keys.setdefault(entry.key, record)
        if entry.segment >= pool.capacity_objects:
            report.error(
                f"record {record} (key {entry.key!r}) names segment index "
                f"{entry.segment}, outside the object range"
            )
            continue
        addr = pool.object_address(entry.segment)
        other = named.setdefault(addr, record)
        if other != record:
            report.error(
                f"records {other} and {record} both name the segment at "
                f"address {addr}"
            )
        value = pool.read(addr, entry.value_len)
        if zlib.crc32(value) & 0xFFFFFFFF == entry.crc:
            report.values_ok += 1
        else:
            report.error(
                f"record {record} (segment address {addr}): value of key "
                f"{entry.key!r} fails its catalog CRC32"
            )
    report.live_keys = sorted(seen_keys)
    return {addr // pool.segment_size for addr in named}


def _scan_ecp(device, report: FsckReport) -> None:
    if device.ecc is None:
        return
    segs, offs, _vals = device.ecc.state_arrays()
    bits = device.segment_size * 8
    for seg, off in zip(segs.tolist(), offs.tolist()):
        if not 0 <= off < bits:
            report.error(
                f"ECP table: segment {seg} entry points at bit {off}, "
                f"beyond the segment's {bits} bits"
            )


def _scan_health(device, live_segments: set[int], report) -> None:
    health = getattr(device, "health", None)
    if health is None:
        return
    for seg in sorted(health.retired & live_segments):
        report.warning(
            f"retired segment {seg} still holds a live catalog value "
            "(readable in place; awaiting relocation)"
        )
    retiring = health.retiring
    for seg in sorted(retiring & live_segments):
        report.warning(
            f"retiring segment {seg} still holds a live catalog value "
            "(readable in place; awaiting compaction)"
        )
    spare_segments = {addr // device.segment_size for addr in health.spares}
    for seg in sorted(spare_segments & live_segments):
        report.error(
            f"spare segment {seg} is simultaneously live in the catalog"
        )
    for seg in sorted(spare_segments & (health.retired | retiring)):
        report.error(
            f"spare segment {seg} is simultaneously retired/retiring — "
            "activation would hand out dying media"
        )


def fsck(path, *, key_capacity: int = DEFAULT_KEY_CAPACITY) -> FsckReport:
    """Check the store snapshot at ``path``; see the module docstring.

    ``key_capacity`` must match the value the store was created with — it
    fixes the media layout and is not itself recorded on the media (real
    deployments bake it into a superblock).
    """
    report = FsckReport(path=str(path))
    device = NVMDevice.load(path)
    controller = MemoryController(device)
    meta_segments = PersistentCatalog.meta_segments_for(
        controller.n_segments, controller.segment_size, key_capacity
    )
    pool = PersistentPool(controller, meta_segments=meta_segments)
    catalog = PersistentCatalog(pool, key_capacity=key_capacity)

    live_segments = _scan_catalog(pool, catalog, report)
    _scan_ecp(device, report)
    _scan_health(device, live_segments, report)
    return report


@dataclass
class ShardedFsckReport:
    """Findings of one :func:`fsck_sharded` run: per-shard reports plus
    the cross-shard routing checks."""

    root: str
    shards: list[FsckReport] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: Live keys that ring-route to the shard actually holding them.
    placed_ok: int = 0
    #: Journal state when a rebalance was in flight (else ``None``).
    rebalance_state: str | None = None

    @property
    def all_errors(self) -> list[str]:
        """Cross-shard errors followed by every shard's own."""
        return self.errors + [e for r in self.shards for e in r.errors]

    @property
    def ok(self) -> bool:
        return not self.all_errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warning(self, message: str) -> None:
        self.warnings.append(message)


def fsck_sharded(root) -> ShardedFsckReport:
    """Cross-shard consistency check of a sharded store directory.

    Runs :func:`fsck` on every shard snapshot named by the manifest (with
    that shard's own geometry — no guessed parameters), then checks the
    *placement* invariant rebalancing must preserve: every live key on
    shard ``s`` ring-routes to ``s`` under the manifest ring, and no key
    is live on two shards.

    A ``rebalance.json`` journal in ``planned``/``draining`` state relaxes
    exactly the states the drain protocol passes through: a key on its
    *old* owner that now routes elsewhere is mid-migration (warning, not
    error), and a key live on precisely its {old owner, new owner} pair is
    inside a copy window whose delete has not landed yet (warning).  Any
    other misplacement or duplication is an error either way.  The
    authoritative ring is the journal's *new* ring when one is active —
    writes already route by it — and the manifest ring otherwise.

    A manifest of a version :meth:`ShardedKVStore.open` refuses is one
    error, and nothing else is checked.
    """
    # Local import: the tool must stay importable for single snapshots
    # even if the sharding package grows heavier dependencies.
    from repro.sharding.rebalance import RebalanceJournal
    from repro.sharding.ring import HashRing
    from repro.sharding.store import check_manifest_version

    root = Path(root)
    report = ShardedFsckReport(root=str(root))
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        report.error(f"{root} has no manifest.json (not a sharded store?)")
        return report
    manifest = json.loads(manifest_path.read_text())
    try:
        # Another version's shards have another media layout: judging
        # them by this one would misread their catalogs.
        check_manifest_version(manifest)
    except ValueError as exc:
        report.error(str(exc))
        return report
    ring = HashRing(**manifest["ring"])
    old_ring = None
    journal = RebalanceJournal.load(root)
    if journal is not None:
        report.rebalance_state = journal.state
        if journal.state in ("planned", "draining"):
            ring = HashRing(**journal.new_ring)
            old_ring = HashRing(**journal.old_ring)
        elif journal.state == "flipped":
            # Past the point of no return: open() rewrites the manifest
            # with the journal's new ring, so judge placement by it.
            ring = HashRing(**journal.new_ring)

    holders: dict[bytes, list[int]] = {}
    for entry in manifest["shards"]:
        shard_id = entry["shard_id"]
        snapshot = entry["path"]
        if not Path(snapshot).exists():
            report.warning(
                f"shard {shard_id}: no snapshot on disk (crashed before "
                "save; recovery covers it on open) — placement unchecked"
            )
            continue
        shard_report = fsck(snapshot, key_capacity=entry["key_capacity"])
        report.shards.append(shard_report)
        for key in shard_report.live_keys:
            holders.setdefault(key, []).append(shard_id)
            owner = ring.shard_of(key)
            if owner == shard_id:
                report.placed_ok += 1
            elif old_ring is not None and old_ring.shard_of(key) == shard_id:
                report.warning(
                    f"key {key!r} on shard {shard_id} now routes to shard "
                    f"{owner} — mid-migration (rebalance "
                    f"{report.rebalance_state})"
                )
            else:
                report.error(
                    f"misplaced key {key!r}: live on shard {shard_id} but "
                    f"ring-routes to shard {owner}"
                )
    for key, shards in sorted(holders.items()):
        if len(shards) < 2:
            continue
        owner = ring.shard_of(key)
        pair = {owner} | (
            {old_ring.shard_of(key)} if old_ring is not None else set()
        )
        if old_ring is not None and set(shards) == pair and len(pair) == 2:
            report.warning(
                f"key {key!r} live on shards {shards} — inside a "
                "copy window (rebalance draining; delete-from-source "
                "pending)"
            )
        else:
            report.error(f"key {key!r} live on multiple shards {shards}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fsck",
        description="Offline consistency check of a KV-store snapshot "
        "(an NVMDevice.save .npz file) or a sharded store directory "
        "(per-shard checks plus cross-shard key placement).",
    )
    parser.add_argument(
        "pool",
        help="path to a device snapshot (.npz) or a sharded store directory",
    )
    parser.add_argument(
        "--key-capacity", type=int, default=DEFAULT_KEY_CAPACITY,
        help="catalog key capacity the store was created with "
        f"(default: {DEFAULT_KEY_CAPACITY}; ignored for directories)",
    )
    args = parser.parse_args(argv)
    if Path(args.pool).is_dir():
        report = fsck_sharded(args.pool)
        print(f"fsck {report.root} (sharded)")
        if report.rebalance_state is not None:
            print(f"  rebalance in flight: {report.rebalance_state}")
        values_ok = sum(r.values_ok for r in report.shards)
        print(
            f"  {len(report.shards)} shard(s): {values_ok} live value(s) "
            f"verified, {report.placed_ok} correctly placed"
        )
        for shard_report in report.shards:
            for message in shard_report.warnings:
                print(f"  WARNING [{shard_report.path}]: {message}")
            for message in shard_report.errors:
                print(f"  ERROR [{shard_report.path}]: {message}")
        for message in report.warnings:
            print(f"  WARNING: {message}")
        for message in report.errors:
            print(f"  ERROR: {message}")
        n_errors = len(report.all_errors)
        print(f"  {'clean' if report.ok else f'{n_errors} error(s)'}")
        return 0 if report.ok else 1
    report = fsck(args.pool, key_capacity=args.key_capacity)
    print(f"fsck {report.path}")
    print(
        f"  {report.values_ok} live value(s) verified, "
        f"{report.pending_dropped_slots} slot(s) pending invalidation"
    )
    for message in report.warnings:
        print(f"  WARNING: {message}")
    for message in report.errors:
        print(f"  ERROR: {message}")
    print(f"  {'clean' if report.ok else f'{len(report.errors)} error(s)'}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
