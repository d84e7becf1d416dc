"""PMDK-like persistent-memory programming layer.

The paper's Figure 1 experiment "use[s] PMDK's transactions to persist
writes" on a real Optane device.  This package provides the equivalent
programming model over the simulated device:

- :class:`~repro.pmem.pool.PersistentPool` — a metadata region plus
  object-segment address arithmetic over the device;
- :class:`~repro.pmem.transaction.Transaction` — commit groups
  (``TX_BEGIN``-style staging, no log): staged writes land in one batched
  device write;
- :class:`~repro.pmem.catalog.PersistentCatalog` — a media-resident
  per-key record table whose two self-checking slots make every catalog
  write failure-atomic without a log, so the device alone describes the
  KV store and a restart can rebuild every DRAM structure from a catalog
  scan.
"""

from repro.pmem.catalog import CatalogEntry, PersistentCatalog
from repro.pmem.pool import PersistentPool
from repro.pmem.transaction import Transaction

__all__ = [
    "CatalogEntry",
    "PersistentCatalog",
    "PersistentPool",
    "Transaction",
]
