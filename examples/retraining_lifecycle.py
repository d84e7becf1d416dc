"""Operational example: the retraining lifecycle of a long-lived store.

Shows the §4.1.4 / §5.3 mechanisms working together on a store whose
content distribution drifts:

1. the retrain *policy* notices a cluster's free list starving;
2. `train_async` retrains in the background while writes continue, then
   swaps the model atomically;
3. retraining is *transactional*: a fault-injected training failure leaves
   the Dynamic Address Pool byte-identical and the old model serving, with
   the failure recorded on `engine.retrain_stats`;
4. the refreshed model is snapshotted with `save_joint` so a restart (or
   another node) can load it without retraining.

Failure semantics in one paragraph: `train()` / `train_async()` fit a fresh
candidate model off to the side and swap model + relabelled pool atomically
only on success — any exception restores the pool and keeps the old model.
`maybe_retrain()` (the `auto_retrain` path) never blocks or fails a write:
with fewer free segments than clusters the retrain is deferred and retried
later, while placement degrades to the pool's first-fit fallback.

Run:  python examples/retraining_lifecycle.py
"""

from repro import E2NVMConfig, MemoryController, NVMDevice
from repro.core import E2NVM
from repro.ml.serialization import load_joint, save_joint
from repro.testing import FaultError, FaultInjector
from repro.workloads.datasets import bits_to_values, make_image_dataset

SEGMENT = 64
N_SEGMENTS = 192


def flips_over(engine, values) -> float:
    total = 0
    for value in values:
        addr, result = engine.write(value)
        total += result.bits_programmed
        engine.release(addr)
    return total / len(values)


def main() -> None:
    # Era 1 content: one family of prototypes.
    era1, _ = make_image_dataset(400, SEGMENT * 8, n_classes=5, noise=0.06, seed=1)
    # Era 2 content: a different family — the drift.
    era2, _ = make_image_dataset(400, SEGMENT * 8, n_classes=5, noise=0.06, seed=99)
    era1_values = bits_to_values(era1)
    era2_values = bits_to_values(era2)

    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT, segment_size=SEGMENT,
        initial_fill="zero",
    )
    controller = MemoryController(device)
    for i, value in enumerate(era1_values[:N_SEGMENTS]):
        controller.write(i * SEGMENT, value)
    device.reset_stats()
    engine = E2NVM(
        controller,
        E2NVMConfig(n_clusters=5, hidden=(64,), pretrain_epochs=6,
                    joint_epochs=2, retrain_threshold=2, seed=1),
    )
    engine.train()

    print(f"era-1 stream on era-1 model: "
          f"{flips_over(engine, era1_values[N_SEGMENTS:N_SEGMENTS + 80]):.0f} "
          f"bits/write")

    # Content drifts: era-2 values arrive; the old model misplaces them.
    drift_flips = flips_over(engine, era2_values[:80])
    print(f"era-2 stream on era-1 model: {drift_flips:.0f} bits/write "
          f"(drift penalty)")

    # The policy watches the pool; here the signal is performance, so the
    # operator (us) kicks off a lazy background retrain. Writes continue.
    thread = engine.train_async()
    served = 0
    while thread.is_alive():
        addr, _ = engine.write(era2_values[(80 + served) % 400])
        engine.release(addr)
        served += 1
    thread.join()
    retrains = engine.retrain_stats.succeeded
    print(f"background retrain finished; {served} writes served during it; "
          f"model swaps atomically (retrains so far: {retrains})")

    recovered = flips_over(engine, era2_values[120:200])
    print(f"era-2 stream on retrained model: {recovered:.0f} bits/write "
          f"({1 - recovered / drift_flips:.0%} better)")

    # Retraining is transactional: inject a training failure and show the
    # engine shrug it off — pool untouched, old model still serving.
    engine.faults = FaultInjector()
    engine.faults.arm("train.fit", error=FaultError("injected crash"), times=1)
    pool_before = engine.dap.snapshot()
    thread = engine.train_async()
    thread.join()
    assert engine.dap.snapshot() == pool_before
    assert engine.retrain_stats.failed == 1
    survived = flips_over(engine, era2_values[200:240])
    print(f"injected retrain failure absorbed: pool byte-identical, "
          f"old model still serving at {survived:.0f} bits/write")
    stats = engine.retrain_stats.as_dict()
    print("retrain stats: " + ", ".join(
        f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in stats.items()))

    # Snapshot the refreshed model for restarts / other nodes.
    save_joint(engine.pipeline.model, "/tmp/e2nvm-model.npz")
    restored = load_joint("/tmp/e2nvm-model.npz")
    sample = era2[0]
    assert restored.predict_one(sample) == engine.pipeline.model.predict_one(sample)
    print("model snapshot saved and verified: /tmp/e2nvm-model.npz")


if __name__ == "__main__":
    main()
