"""The e2e benchmark's telemetry names must exist on the product.

``benchmarks/e2e/run.py`` (outside tier-1's ``testpaths``) reads the
facade's ``telemetry()["device"]`` by its ``DEVICE_KEYS``, a local store's
``controller.stats`` by the same names, and each engine's
``placement_telemetry()`` and ``controller`` by the names its
``layer_counters`` lists.  A renamed stats field would break the benchmark
with nothing in tier-1 noticing.  This parses those names out of the
runner by AST, without importing it, and checks that a tiny sharded store
and engine expose them.
"""

import ast
import pathlib

from repro.core.config import fast_test_config
from repro.sharding import ShardedKVStore

RUNNER = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "run.py"
)


def _runner_names() -> tuple[list[str], list[str], list[str]]:
    """``DEVICE_KEYS``, the placement keys ``layer_counters`` sums, and the
    attributes it reads off ``engine.controller``."""
    tree = ast.parse(RUNNER.read_text())
    device_keys = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "DEVICE_KEYS" for t in node.targets)
    )
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "layer_counters"
    )
    placement_keys = [
        key
        for node in ast.walk(func)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
        for key in ast.literal_eval(node.iter)
    ]
    controller_attrs = [
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "controller"
    ]
    return list(device_keys), placement_keys, controller_attrs


def test_runner_names_are_parsed():
    device_keys, placement_keys, controller_attrs = _runner_names()
    assert "bits_flipped" in device_keys
    assert "cache_hits" in placement_keys
    assert "verify_reads" in controller_attrs


def test_store_and_engine_expose_every_name_the_runner_reads(tmp_path):
    device_keys, placement_keys, controller_attrs = _runner_names()
    with ShardedKVStore.create(
        tmp_path / "store",
        2,
        segment_size=64,
        n_segments_per_shard=64,
        config=fast_test_config(),
    ) as store:
        store.put_many([(b"key-%02d" % i, b"v" * 24) for i in range(8)])
        device = store.telemetry()["device"]
        engine = store.backend.shard(0).engine
        placement = engine.placement_telemetry()
        assert [k for k in device_keys if k not in device] == []
        assert [
            k for k in device_keys
            if not hasattr(engine.controller.stats, k)
        ] == []
        assert [k for k in placement_keys if k not in placement] == []
        assert [
            a for a in controller_attrs if not hasattr(engine.controller, a)
        ] == []
