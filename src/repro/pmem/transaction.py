"""Undo-log transactions over the simulated NVM (PMDK ``tx`` style).

Transactions are *staged*: :meth:`Transaction.write` only records the
intended write, and commit (leaving the ``with`` block normally) does the
media work in four steps — read every target's *old* content in one
batched read, persist the log header (raised active flag) and all undo
records as one payload in the pool's media-resident log region, apply the
writes in place as one batched write, clear the log's active flag.  Abort
(an exception inside the ``with`` block) simply drops the staged writes:
nothing has touched the media yet.  Reads inside the block therefore still see the old content.

Because the log lives on the simulated media, a *crash* mid-commit is
recoverable: a new :class:`~repro.pmem.pool.PersistentPool` constructed
over the same device with ``recover=True`` finds the active log and rolls
the half-applied transaction back — see ``tests/pmem/test_crash_recovery.py``.
A :class:`~repro.testing.faults.CrashError` raised at a fault site is
treated as process death: the context manager performs *no* rollback and
no cleanup, leaving the media exactly as the crash left it for a later
recovery to repair.

All log traffic is real device writes, so transactional overhead shows up
in the energy/latency accounting, as it does on real Optane through PMDK.
"""

from __future__ import annotations

import numpy as np

from repro.testing.faults import CrashError


class TransactionAborted(Exception):
    """Raised by :meth:`Transaction.abort` to roll back explicitly."""


class Transaction:
    """One undo-log transaction; use as a context manager.

    Created by :meth:`repro.pmem.pool.PersistentPool.transaction`.  Only one
    transaction may be active per pool at a time (the log holds one
    transaction's records); beginning a second while one is active raises
    ``RuntimeError`` instead of silently corrupting the first transaction's
    undo records.  Transaction objects are single-use: re-entering one that
    already committed or rolled back also raises.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self._active = False
        self._finished = False
        self._writes: list[tuple[int, bytes, int]] = []
        self._log_bytes = 0

    def __enter__(self) -> "Transaction":
        if self._active:
            raise RuntimeError("transaction is already active")
        if self._finished:
            raise RuntimeError(
                "transaction objects are single-use; begin a new one with "
                "pool.transaction()"
            )
        self._pool._log_begin()
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._active = False
        self._finished = True
        if exc_type is not None and issubclass(exc_type, CrashError):
            # Simulated process death: nothing more touches the media.
            return False
        if exc_type is None:
            # Commit: a crash inside leaves the active undo log behind for
            # recover() to roll back; any other failure is rolled back by
            # the pool before it propagates.
            self._pool._log_commit(self._writes)
            return False
        # Abort: the staged writes never reached the media.
        self._pool._tx_active = False
        # Swallow only explicit aborts; real errors propagate.
        return exc_type is TransactionAborted

    def write(
        self, addr: int, data: bytes, undo_len: int | None = None
    ) -> None:
        """Stage an in-place write of ``data`` at ``addr``; commit logs the
        range's old content before applying it — or only its leading
        ``undo_len`` bytes, when restoring those alone undoes the write
        (a catalog insert: the flag byte decides whether the rest counts)."""
        if not self._active:
            raise RuntimeError("transaction is not active")
        undo_len = len(data) if undo_len is None else undo_len
        self._log_bytes += self._pool.record_overhead_bytes() + undo_len
        if self._log_bytes > self._pool.log_capacity_bytes:
            raise RuntimeError(
                "undo log full: transaction touches more data than the log "
                f"region holds ({self._pool.log_capacity_bytes} B)"
            )
        self._writes.append((addr, as_bytes(data), undo_len))

    def abort(self) -> None:
        """Drop everything staged so far and leave the ``with`` block."""
        raise TransactionAborted()


def as_bytes(data) -> bytes:
    """Normalise ``bytes``/``ndarray`` write payloads."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    return np.asarray(data, dtype=np.uint8).tobytes()
