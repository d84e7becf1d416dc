"""Figure 17: adaptability to workload and content drift (five scenarios).

The paper streams image data through the store while the content
distribution shifts, tracking bit updates over time:

1. random-seeded memory, MNIST stream + deletes — flips fall as recycling
   populates the clusters with real content;
2. retrain, more MNIST — low and stable;
3. a 1:2 Fashion-MNIST:MNIST mixture — flips jump (unseen content);
4. CIFAR stream — flips jump further and fluctuate;
5. retrain on current content, more CIFAR — flips recover quickly.

A companion scenario drives the same drift through the *lazy* auto-retrain
path (§5.3): retrains are deferred while the pool runs below ``n_clusters``
free segments and completed in the background once capacity returns, with
zero failed PUTs throughout; the engine's retrain/recovery counters are
reported.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from common import bench_config, print_table, run_once, values_from_bits

from repro.core import E2NVM
from repro.nvm import MemoryController, NVMDevice
from repro.workloads.datasets import (
    cifar_like,
    fashion_mnist_like,
    mnist_like,
)
from repro.workloads.mixing import DriftSchedule

SEGMENT = 96
N_SEGMENTS = 192
PHASE_ITEMS = 180
WINDOW = 30


def build_schedule(seed: int) -> DriftSchedule:
    width = SEGMENT * 8
    mnist = values_from_bits(mnist_like(PHASE_ITEMS * 3, n_pixels=width, seed=seed)[0])
    fashion = values_from_bits(
        fashion_mnist_like(PHASE_ITEMS * 2, n_pixels=width, seed=seed + 1)[0]
    )
    cifar = values_from_bits(
        cifar_like(PHASE_ITEMS * 3, n_pixels=width, seed=seed + 2)[0]
    )
    schedule = DriftSchedule()
    schedule.add_phase("1:mnist-cold", mnist[:PHASE_ITEMS])
    schedule.add_phase("2:mnist-retrained", mnist[PHASE_ITEMS : 2 * PHASE_ITEMS],
                       retrain_before=True)
    schedule.add_mixture(
        "3:fashion+mnist", [fashion, mnist[2 * PHASE_ITEMS :]], [1.0, 2.0],
        PHASE_ITEMS, seed=seed,
    )
    schedule.add_phase("4:cifar-cold", cifar[:PHASE_ITEMS])
    schedule.add_phase("5:cifar-retrained", cifar[PHASE_ITEMS : 2 * PHASE_ITEMS],
                       retrain_before=True)
    return schedule


def run_figure17(seed: int = 0):
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
    )
    controller = MemoryController(device)
    engine = E2NVM(controller, bench_config(n_clusters=6, seed=seed))
    engine.train()  # scenario 1: trained on the random seed content

    rng = np.random.default_rng(seed)
    live: list[int] = []
    series: list[tuple[str, float]] = []
    for phase in build_schedule(seed):
        if phase.retrain_before:
            engine.train()
        for value in phase.values:
            addr, result = engine.write(value)
            live.append(addr)
            series.append((phase.name, float(result.bits_programmed)))
            # Keep the pool dynamic: delete about half of what we write.
            if len(live) > N_SEGMENTS // 3 or rng.random() < 0.5:
                victim = live.pop(int(rng.integers(0, len(live))))
                engine.release(victim)
    return series


def run_fig17_lazy_retrain(seed: int = 0):
    """Drift under ``auto_retrain``: writes never block and never fail.

    The live set is held just below capacity so the pool runs at fewer
    free segments than clusters — retrain triggers must defer, writes fall
    back to first-fit placement, and the deferred retrain completes in the
    background once deletes return capacity.
    """
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=seed,
    )
    controller = MemoryController(device)
    engine = E2NVM(
        controller,
        bench_config(
            n_clusters=6,
            seed=seed,
            auto_retrain=True,
            retrain_threshold=4,
            # The cooldown expires only once the live set has filled past
            # the high-water mark, so the first trigger lands while fewer
            # than n_clusters segments are free and must defer.
            retrain_cooldown_writes=200,
        ),
    )
    engine.train()

    width = SEGMENT * 8
    stream = values_from_bits(
        mnist_like(150, n_pixels=width, seed=seed)[0]
    ) + values_from_bits(cifar_like(150, n_pixels=width, seed=seed + 2)[0])
    rng = np.random.default_rng(seed)
    live: list[int] = []
    failed_puts = 0
    high_water = N_SEGMENTS - 4  # pool runs at < n_clusters free segments
    for value in stream:
        try:
            addr, _ = engine.write(value)
            live.append(addr)
        except Exception:
            failed_puts += 1
            continue
        if len(live) > high_water:
            victim = live.pop(int(rng.integers(0, len(live))))
            engine.release(victim)
    # Deletes return capacity: the deferred retrain can now complete.
    while len(live) > N_SEGMENTS // 2:
        engine.release(live.pop())
    for value in stream[:60]:
        try:
            addr, _ = engine.write(value)
            engine.release(addr)
        except Exception:
            failed_puts += 1
    engine.wait_for_retrain(timeout=300)
    return failed_puts, engine


def report_lazy(failed_puts, engine) -> None:
    rows = [[k, float(v)] for k, v in asdict(engine.retrain_stats).items()]
    rows.append(["failed_puts", float(failed_puts)])
    rows.append(["failed_writes", float(engine.failed_writes)])
    print_table(
        "Figure 17 companion: lazy auto-retrain resilience",
        ["metric", "value"],
        rows,
    )


def summarise(series) -> list[list]:
    rows = []
    by_phase: dict[str, list[float]] = {}
    for name, flips in series:
        by_phase.setdefault(name, []).append(flips)
    for name, flips in by_phase.items():
        arr = np.array(flips)
        early = arr[: WINDOW].mean()
        late = arr[-WINDOW:].mean()
        rows.append([name, arr.mean(), early, late, arr.std()])
    return rows


def report(series) -> None:
    print_table(
        "Figure 17: bits programmed per write across drift scenarios",
        ["phase", "mean", "first-30", "last-30", "stddev"],
        summarise(series),
    )


def test_fig17_adaptability(benchmark):
    series = run_once(benchmark, run_figure17)
    report(series)
    rows = {r[0]: r for r in summarise(series)}
    cold = rows["1:mnist-cold"]
    warm = rows["2:mnist-retrained"]
    mixed = rows["3:fashion+mnist"]
    cifar_cold = rows["4:cifar-cold"]
    cifar_warm = rows["5:cifar-retrained"]
    # Scenario 1: flips shrink over the phase as recycling takes hold.
    assert cold[3] < cold[2]
    # Scenario 2: retraining on real content beats the cold phase.
    assert warm[1] < cold[1]
    # Scenario 3: unseen content degrades performance.
    assert mixed[1] > warm[1]
    # Scenario 5: retraining on the new distribution recovers quickly.
    assert cifar_warm[1] < cifar_cold[1]


def test_fig17_lazy_auto_retrain(benchmark):
    failed_puts, engine = run_once(benchmark, run_fig17_lazy_retrain)
    report_lazy(failed_puts, engine)
    stats = engine.retrain_stats
    # The operational claim of §5.3: retraining never stops or fails a PUT.
    assert failed_puts == 0
    assert engine.failed_writes == 0
    assert stats.deferred >= 1
    assert stats.succeeded >= 1


if __name__ == "__main__":
    report(run_figure17())
    report_lazy(*run_fig17_lazy_retrain())
