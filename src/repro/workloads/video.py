"""Synthetic surveillance video (Sherbrooke / AAU CCTV stand-in).

The video experiments (Figures 14–15) exploit frame-to-frame redundancy:
overwriting an old frame with a nearby frame flips few bits.  The generator
renders a static background with moving rectangular objects plus sensor
noise, so consecutive frames differ only where objects moved — the same
redundancy profile as fixed-camera CCTV footage.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import rng_from_seed

#: Moving rectangles in every scene.
N_OBJECTS = 3


class SyntheticVideo:
    """Fixed-camera grayscale video generator.

    Args:
        width, height: frame size in pixels (1 byte per pixel).
        noise: per-pixel sensor noise standard deviation (0–255 scale).
        seed: RNG seed.
    """

    def __init__(
        self,
        width: int = 64,
        height: int = 48,
        noise: float = 4.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if width <= 4 or height <= 4:
            raise ValueError("frame must be at least 5x5")
        self.width = width
        self.height = height
        self.noise = noise
        self._rng = rng_from_seed(seed)
        # Smooth static background.
        base = self._rng.normal(128.0, 40.0, size=(height // 4 + 1, width // 4 + 1))
        self._background = np.clip(
            np.kron(base, np.ones((4, 4)))[:height, :width], 0, 255
        )
        self._objects = [
            {
                "x": float(self._rng.uniform(0, width)),
                "y": float(self._rng.uniform(0, height)),
                "vx": float(self._rng.uniform(-2.0, 2.0)),
                "vy": float(self._rng.uniform(-1.0, 1.0)),
                "w": int(self._rng.integers(4, max(5, width // 6))),
                "h": int(self._rng.integers(4, max(5, height // 6))),
                "shade": float(self._rng.uniform(0, 255)),
            }
            for _ in range(N_OBJECTS)
        ]

    @property
    def frame_bytes(self) -> int:
        """Serialized size of one frame."""
        return self.width * self.height

    def frames(self, n_frames: int):
        """Yield ``n_frames`` consecutive frames as ``bytes``."""
        if n_frames <= 0:
            raise ValueError("n_frames must be positive")
        for _ in range(n_frames):
            frame = self._background.copy()
            for obj in self._advance_objects():
                x0, y0 = int(obj["x"]), int(obj["y"])
                x1 = min(x0 + obj["w"], self.width)
                y1 = min(y0 + obj["h"], self.height)
                frame[y0:y1, x0:x1] = obj["shade"]
            frame += self._rng.normal(0.0, self.noise, size=frame.shape)
            yield np.clip(frame, 0, 255).astype(np.uint8).tobytes()

    def frame_bits(self, n_frames: int) -> np.ndarray:
        """Return (n_frames, frame_bytes*8) 0/1 matrix of frame contents."""
        packed = np.frombuffer(
            b"".join(self.frames(n_frames)), dtype=np.uint8
        ).reshape(n_frames, self.frame_bytes)
        return np.unpackbits(packed, axis=1).astype(np.float64)

    def _advance_objects(self):
        for obj in self._objects:
            obj["x"] += obj["vx"]
            obj["y"] += obj["vy"]
            if not 0 <= obj["x"] <= self.width - obj["w"]:
                obj["vx"] = -obj["vx"]
                obj["x"] = float(np.clip(obj["x"], 0, self.width - obj["w"]))
            if not 0 <= obj["y"] <= self.height - obj["h"]:
                obj["vy"] = -obj["vy"]
                obj["y"] = float(np.clip(obj["y"], 0, self.height - obj["h"]))
        return self._objects
