"""Padding strategies (§4 of the paper).

The VAE's input width is fixed at model-creation time; values shorter than a
memory segment are *padded to the model width for prediction only* — padded
bits are never written to NVM (§4.1: "the padded part ... is added to the
data just for clustering purposes").

Seven padding types across four positions are implemented:

=============  =================================================================
type           padding bit source
=============  =================================================================
``zero``       all zeros (universal data-agnostic)
``one``        all ones (universal data-agnostic)
``random``     iid fair coin flips (universal data-agnostic)
``input``      Bernoulli(p) with p = fraction of ones in this input item (IB)
``dataset``    Bernoulli(p) with p = fraction of ones over all items seen (DB)
``memory``     Bernoulli(p) with p = fraction of ones in the memory pool (MB)
``learned``    LSTM sliding-window extrapolation of the item's bit stream (LB)
=============  =================================================================

Positions: ``begin`` (pad before the data), ``end`` (after), ``edges`` (data
centred, pad split to both sides — Figure 14's "padding in the edges"), and
``middle`` (pad inserted in the middle of the data — Figure 5's rendering).
"""

from __future__ import annotations

import numpy as np

from repro.ml.lstm import LSTMPredictor
from repro.util.rng import rng_from_seed

PaddingStrategy = ("zero", "one", "random", "input", "dataset", "memory", "learned")
PaddingPosition = ("begin", "end", "middle", "edges")


class DatasetDistributionTracker:
    """Running count of ones/bits over every item the system has received.

    Backs the dataset-based (DB) strategy, whose padding distribution "uses
    the distribution of 1's and 0's in all the items it has received so far"
    (§4.1.2).
    """

    def __init__(self) -> None:
        self.ones = 0
        self.bits = 0

    def observe(self, bits: np.ndarray) -> None:
        """Fold one item's bit vector into the running distribution."""
        bits = np.asarray(bits)
        self.ones += int(np.count_nonzero(bits > 0.5))
        self.bits += int(bits.size)

    @property
    def ones_fraction(self) -> float:
        """P(bit = 1) over everything observed; 0.5 before any data."""
        return self.ones / self.bits if self.bits else 0.5


def split_pad_counts(q: int, position: str) -> tuple[int, int]:
    """How many padding bits go before/after the data for a position.

    For ``middle`` the "before" half is the part inserted after the data's
    first half (the counts still describe the pad split).
    """
    if position not in PaddingPosition:
        raise ValueError(f"unknown padding position {position!r}")
    if position == "begin":
        return q, 0
    if position == "end":
        return 0, q
    # middle and edges split the padding in two (extra bit goes first).
    first = (q + 1) // 2
    return first, q - first


def assemble(data: np.ndarray, pad_before: np.ndarray, pad_after: np.ndarray,
             position: str) -> np.ndarray:
    """Place data and padding according to ``position``."""
    if position == "begin":
        return np.concatenate([pad_before, pad_after, data])
    if position == "end":
        return np.concatenate([data, pad_before, pad_after])
    if position == "edges":
        return np.concatenate([pad_before, data, pad_after])
    if position == "middle":
        half = data.size // 2
        return np.concatenate(
            [data[:half], pad_before, pad_after, data[half:]]
        )
    raise ValueError(f"unknown padding position {position!r}")


class Padder:
    """Pads variable-size items to the model's fixed input width.

    Args:
        target_bits: the model input width ``w``.
        strategy: one of :data:`PaddingStrategy`.
        position: one of :data:`PaddingPosition`.
        seed: RNG for the stochastic strategies.
        lstm: a (trained or trainable) :class:`LSTMPredictor`; required for
            the ``learned`` strategy.
    """

    def __init__(
        self,
        target_bits: int,
        strategy: str = "zero",
        position: str = "end",
        seed: int | np.random.Generator | None = 0,
        lstm: LSTMPredictor | None = None,
    ) -> None:
        if target_bits <= 0:
            raise ValueError("target_bits must be positive")
        if strategy not in PaddingStrategy:
            raise ValueError(
                f"unknown padding strategy {strategy!r}; "
                f"choose from {PaddingStrategy}"
            )
        if position not in PaddingPosition:
            raise ValueError(
                f"unknown padding position {position!r}; "
                f"choose from {PaddingPosition}"
            )
        if strategy == "learned" and lstm is None:
            raise ValueError("the learned strategy needs an LSTMPredictor")
        self.target_bits = target_bits
        self.strategy = strategy
        self.position = position
        self.lstm = lstm
        self.tracker = DatasetDistributionTracker()
        self._rng = rng_from_seed(seed)

    def pad(
        self, data_bits: np.ndarray, memory_ones_fraction: float | None = None
    ) -> np.ndarray:
        """Return a ``target_bits``-long vector containing the data + padding.

        One-item :meth:`pad_batch`; see there for the arguments.
        """
        return self.pad_batch([data_bits], memory_ones_fraction)[0]

    def pad_batch(
        self,
        items: list[np.ndarray],
        memory_ones_fraction: float | None = None,
    ) -> np.ndarray:
        """Pad a batch of items into one ``(B, target_bits)`` matrix.

        Independent of how a stream of items is cut into batches: the
        dataset tracker is folded item by item and the stochastic strategies
        draw from the RNG one item at a time, so a batched prediction and a
        per-value prediction see identical model inputs.

        Args:
            items: each item's bits (length ``p`` ≤ ``target_bits``).
            memory_ones_fraction: ones fraction of the memory pool content,
                required by the ``memory`` strategy.
        """
        rows = [
            np.asarray(bits, dtype=np.float32).reshape(-1) for bits in items
        ]
        for row in rows:
            if row.size > self.target_bits:
                raise ValueError(
                    f"item of {row.size} bits exceeds model width "
                    f"{self.target_bits}"
                )
        out = np.empty((len(rows), self.target_bits), dtype=np.float32)
        if self.strategy == "zero":
            out.fill(0.0)
        elif self.strategy == "one":
            out.fill(1.0)
        for i, data in enumerate(rows):
            self.tracker.observe(data)
            q = self.target_bits - data.size
            if q == 0:
                out[i] = data
                continue
            if self.strategy in ("zero", "one"):
                # Padding is pre-filled; only the data needs placing.
                self._place_data(out[i], data, q)
                continue
            n_before, n_after = split_pad_counts(q, self.position)
            before, after = self._make_pad(
                data, n_before, n_after, memory_ones_fraction
            )
            out[i] = assemble(data, before, after, self.position)
        return out

    def _place_data(self, row: np.ndarray, data: np.ndarray, q: int) -> None:
        """Write ``data`` into its :attr:`position` slice of a padded row."""
        if self.position == "begin":
            row[q:] = data
        elif self.position == "end":
            row[: data.size] = data
        elif self.position == "edges":
            n_before, _ = split_pad_counts(q, self.position)
            row[n_before : n_before + data.size] = data
        else:  # middle
            half = data.size // 2
            row[:half] = data[:half]
            row[half + q :] = data[half:]

    def _make_pad(
        self,
        data: np.ndarray,
        n_before: int,
        n_after: int,
        memory_ones_fraction: float | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # ``zero``/``one`` never get here: ``pad_batch`` pre-fills them.
        total = n_before + n_after
        if self.strategy == "random":
            pad = self._bernoulli(0.5, total)
        elif self.strategy == "input":
            p = float(data.mean()) if data.size else 0.5
            pad = self._bernoulli(p, total)
        elif self.strategy == "dataset":
            pad = self._bernoulli(self.tracker.ones_fraction, total)
        elif self.strategy == "memory":
            if memory_ones_fraction is None:
                raise ValueError(
                    "memory-based padding needs memory_ones_fraction"
                )
            pad = self._bernoulli(float(memory_ones_fraction), total)
        else:  # learned
            return self._learned_pad(data, n_before, n_after)
        return pad[:n_before], pad[n_before:]

    def _learned_pad(
        self, data: np.ndarray, n_before: int, n_after: int
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self.lstm is not None
        after = (
            self.lstm.generate(data, n_after).astype(np.float32)
            if n_after
            else np.zeros(0, dtype=np.float32)
        )
        if n_before:
            # Predict bits *preceding* the data by extrapolating the reversed
            # stream (the LSTM trains on reversed windows too).
            reversed_pad = self.lstm.generate(data[::-1], n_before)
            before = reversed_pad[::-1].astype(np.float32)
        else:
            before = np.zeros(0, dtype=np.float32)
        return before, after

    def _bernoulli(self, p: float, n: int) -> np.ndarray:
        p = min(max(p, 0.0), 1.0)
        return (self._rng.random(n) < p).astype(np.float32)
