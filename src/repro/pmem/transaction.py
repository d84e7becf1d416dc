"""Commit groups over the simulated NVM (PMDK ``tx`` style, minus the log).

A :class:`Transaction` is *staged*: :meth:`Transaction.write` only records
the intended write, and commit (leaving the ``with`` block normally) lands
every staged write in one batched ``write_many`` through
:meth:`~repro.pmem.pool.PersistentPool.commit` — no log, no undo read.
An exception inside the ``with`` block simply drops the staged writes:
nothing has touched the media yet, so reads inside the block still see
the old content.

A commit is *not* failure-atomic by itself: a crash inside it may land
any subset of its rows, one of them torn.  Its one client, the KV
store's catalog, makes that safe by construction — every row writes a
slot no reader depends on yet, each slot checks itself, and recovery
keeps the longest batch-order prefix of the newest batch (see
:mod:`repro.pmem.catalog`).  A :class:`~repro.testing.faults.CrashError`
is process death: nothing more touches the media.
"""

from __future__ import annotations

import numpy as np


class Transaction:
    """One commit group; use as a context manager.

    Created by :meth:`repro.pmem.pool.PersistentPool.transaction`.
    Transaction objects are single-use: re-entering one that already
    committed or dropped its writes raises ``RuntimeError``.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self._active = False
        self._finished = False
        self._addrs: list[int] = []
        self._data: list[bytes] = []

    def __enter__(self) -> "Transaction":
        if self._active:
            raise RuntimeError("transaction is already active")
        if self._finished:
            raise RuntimeError(
                "transaction objects are single-use; begin a new one with "
                "pool.transaction()"
            )
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._active = False
        self._finished = True
        # On an exception the staged writes never reach the media, and
        # the exception propagates.
        if exc_type is None and self._addrs:
            self._pool.commit(self._addrs, self._data, "catalog.write")

    def write(self, addr: int, data: bytes) -> None:
        """Stage a write of ``data`` at ``addr``."""
        if not self._active:
            raise RuntimeError("transaction is not active")
        self._addrs.append(addr)
        self._data.append(as_bytes(data))


def as_bytes(data) -> bytes:
    """Normalise ``bytes``/``ndarray`` write payloads."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    return np.asarray(data, dtype=np.uint8).tobytes()
