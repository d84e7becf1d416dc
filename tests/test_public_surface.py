"""Surface ratchet: tests are not callers.

An AST audit of ``src/repro`` minus ``testing/``, asking of two kinds of
surface whether a program reaches them.  The evidence is ``src/`` (the
``repro.testing`` harnesses included) and ``benchmarks/``; ``tests/`` and
``examples/`` are not read.  A test exercises the surface; it does not
justify it.

- **Options.**  Every defaulted parameter of a public method
  (``__init__`` included) of a module-level class, and every defaulted
  field of the four configuration dataclasses.  One counts as set when a
  module *other than the one that defines it* sets it by one of

  - a call passing it by keyword (``dict(name=...)`` and
    ``replace(spec, name=...)`` are such calls),
  - a call to the method (or, for ``__init__``, the class) by name with
    enough positional arguments to reach it,
  - a dict literal key, ``d["name"] = ...`` or ``setdefault("name", ...)``
    — how keyword bundles are assembled before a ``**`` splat,
  - for a config field, an attribute assignment ``cfg.name = ...``.

- **Methods.**  Every public method (properties included) of a
  module-level class in a gated package.  One counts as reached when its
  name is read anywhere in the evidence: an attribute ``x.name``, a bare
  ``name``, or the string ``"name"`` (``getattr`` and op-name dispatch).

Evidence is matched by *name*, not by resolved callee: a common name
(``seed``, ``get``) counts for everything so named.  That makes the ratchet
lenient, never wrong in the failing direction: what it reports has no
caller under any reading.

Gated are the packages a user of the store configures — ``core/``,
``nvm/``, ``pmem/``, ``sharding/``, ``tools/`` — and the config fields.
``ml/``, ``index/``, ``baselines/``, ``workloads/`` and ``profiling/`` are
the paper's experiments; their options are counted and printed, not
gated.  An option or method nothing reaches becomes a constant, goes, or
earns an ``ALLOWED`` entry saying why it stays.

``python tests/test_public_surface.py`` prints the totals CI logs.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from dataclasses import dataclass as _dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "benchmarks")
GATED_PACKAGES = ("core", "nvm", "pmem", "sharding", "tools")
CONFIG_CLASSES = ("E2NVMConfig", "ShardSpec", "WearOutConfig", "DriftConfig")

_FROZEN_BENCHMARK = (
    "the padding/LSTM group whose siblings the frozen benchmarks/e2e/"
    "workloads.py sets; goes with them in a change to that benchmark"
)
_REFERENCE_TWIN = (
    "mirrored by the per-bit reference model (tests/nvm/"
    "reference_device.py) that pins the device; goes with a change to it"
)

#: ``"Class.method.parameter"`` (``"Class.field"`` for a config field,
#: ``"Class.method"`` for a method) → why it stays although nothing in the
#: evidence reaches it.  An entry that stops being needed (the surface
#: went away, or found a caller) fails the test.
ALLOWED = {
    "KVStore.__init__.catalog": (
        "the durable half of the constructor, passed with `pool` by "
        "KVStore.create / KVStore.open in-module"
    ),
    "ShardedKVStore.save.deadline": (
        "close() passes the close grace in-module"
    ),
    "ShardedKVStore.create.scrub_interval_s": (
        "persisted in every version-3 manifest; goes with the next "
        "manifest version"
    ),
    "ShardedKVStore.recovery_reports": "the operator-facing recovery view",
    "ShardSupervisor.reset": (
        "the operator override ShardCircuitOpenError's message names"
    ),
    "DeviceStats.bits_programmed_per_write": (
        "the paper's bits-per-write metric, printed by the examples"
    ),
    "DeviceStats.energy_per_write_pj": (
        "the paper's energy-per-write metric, printed by the examples"
    ),
    "E2NVMConfig.padding_strategy": _FROZEN_BENCHMARK,
    "E2NVMConfig.padding_position": _FROZEN_BENCHMARK,
    "E2NVMConfig.ones_fraction_sample_segments": _FROZEN_BENCHMARK,
    "E2NVMConfig.lstm_window_bits": _FROZEN_BENCHMARK,
    "E2NVMConfig.lstm_chunk_bits": _FROZEN_BENCHMARK,
    "DriftConfig.wear_scale": _REFERENCE_TWIN,
    "NVMDevice.__init__.energy_model": _REFERENCE_TWIN,
}


@_dataclass(frozen=True)
class Option:
    module: Path  # defining file
    package: str  # first path component under src/repro
    owner: str  # "Class.method", or "Class" for a config field or a method
    name: str  # the parameter, field or method
    index: int | None  # positional index after self/cls; None = keyword-only

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.name}"

    @property
    def gated(self) -> bool:
        # A config field is gated wherever it lives; methods are collected
        # from gated packages only.
        return "." not in self.owner or self.package in GATED_PACKAGES


def _product_files() -> list[Path]:
    return sorted(
        p
        for p in PRODUCT.rglob("*.py")
        if p.relative_to(PRODUCT).parts[0] != "testing"
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _method_options(path, package, cls, fn) -> list[Option]:
    args = fn.args
    positional = args.posonlyargs + args.args
    bound = not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list
    )
    first_default = len(positional) - len(args.defaults)
    owner = f"{cls.name}.{fn.name}"
    out = [
        Option(path, package, owner, arg.arg, i - bound)
        for i, arg in enumerate(positional)
        if i >= first_default
    ]
    out += [
        Option(path, package, owner, arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def collect_surface() -> dict:
    """Over the whole product: ``params`` (defaulted parameters),
    ``fields`` (defaulted config fields), ``field_totals`` (fields per
    config class) and ``methods`` (public methods of gated packages)."""
    params: list[Option] = []
    fields: list[Option] = []
    methods: list[Option] = []
    field_totals: dict[str, int] = {}
    for path in _product_files():
        package = path.relative_to(PRODUCT).parts[0]
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                public = not node.name.startswith("_")
                if public or node.name == "__init__":
                    params += _method_options(path, package, cls, node)
                if public and package in GATED_PACKAGES:
                    methods.append(
                        Option(path, package, cls.name, node.name, None)
                    )
            if cls.name in CONFIG_CLASSES and _is_dataclass(cls):
                declared = [
                    n for n in cls.body if isinstance(n, ast.AnnAssign)
                ]
                field_totals[cls.name] = len(declared)
                fields += [
                    Option(path, package, cls.name, n.target.id, i)
                    for i, n in enumerate(declared)
                    if n.value is not None
                ]
    return {
        "params": params,
        "fields": fields,
        "field_totals": field_totals,
        "methods": methods,
    }


class Evidence:
    """Everything the corpus sets or reads, by name, with the files that
    do it."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[Path]] = defaultdict(set)
        self.keys: dict[str, set[Path]] = defaultdict(set)
        self.attributes: dict[str, set[Path]] = defaultdict(set)
        #: callee name → file → most positional arguments in one call.
        self.arity: dict[str, dict[Path, int]] = defaultdict(dict)
        #: Names read as an attribute, a bare name or a string constant.
        self.reads: set[str] = set()
        for top in CORPUS_DIRS:
            for path in sorted((ROOT / top).rglob("*.py")):
                self._scan(path)

    def _scan(self, path: Path) -> None:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                self._scan_call(path, node)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    self._note_key(path, key)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                self._note_key(path, node.slice)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    self.attributes[node.attr].add(path)
                else:
                    self.reads.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                self.reads.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                self.reads.add(node.value)

    def _note_key(self, path: Path, key) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            self.keys[key.value].add(path)

    def _scan_call(self, path: Path, call: ast.Call) -> None:
        for keyword in call.keywords:
            if keyword.arg is not None:
                self.keywords[keyword.arg].add(path)
        func = call.func
        if isinstance(func, ast.Attribute):
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            return
        if callee == "setdefault" and call.args:
            self._note_key(path, call.args[0])
        # A ``*args`` splat may reach any position.
        reach = (
            10**6
            if any(isinstance(a, ast.Starred) for a in call.args)
            else len(call.args)
        )
        per_file = self.arity[callee]
        per_file[path] = max(per_file.get(path, 0), reach)

    def sets(self, option: Option) -> bool:
        """Does a module other than ``option.module`` set it?"""
        own = {option.module}
        if (self.keywords[option.name] | self.keys[option.name]) - own:
            return True
        cls, _, method = option.owner.partition(".")
        if not method and self.attributes[option.name] - own:
            return True
        if option.index is None:
            return False
        callee = cls if method in ("", "__init__") else method
        return any(
            path != option.module and reach > option.index
            for path, reach in self.arity[callee].items()
        )


@functools.cache
def audit() -> dict:
    report = collect_surface()
    evidence = Evidence()
    never = [
        o for o in report["params"] + report["fields"] if not evidence.sets(o)
    ]
    gated = [o for o in never if o.gated]
    unreached = [m for m in report["methods"] if m.name not in evidence.reads]
    report.update(
        never_set=never,
        unreached=unreached,
        bad_options=[o for o in gated if o.key not in ALLOWED],
        bad_methods=[m for m in unreached if m.key not in ALLOWED],
        stale_allowed=sorted(
            set(ALLOWED) - {o.key for o in gated + unreached}
        ),
    )
    return report


def _where(option: Option) -> str:
    return f"{option.module.relative_to(ROOT)}: {option.key}"


class TestSurfaceRatchet:
    def test_every_defaulted_option_has_a_caller(self):
        unjustified = audit()["bad_options"]
        assert not unjustified, (
            "defaulted options only tests (or their own module) set — make "
            "each a constant, delete it, or add an ALLOWED entry saying "
            "why it stays:\n  " + "\n  ".join(_where(o) for o in unjustified)
        )

    def test_every_public_method_has_a_caller(self):
        unjustified = audit()["bad_methods"]
        assert not unjustified, (
            "public methods only tests reach — delete each (tests read the "
            "state directly), or add an ALLOWED entry saying why it "
            "stays:\n  " + "\n  ".join(_where(m) for m in unjustified)
        )

    def test_allow_list_has_no_dead_entries(self):
        assert audit()["stale_allowed"] == []
        assert all(reason.strip() for reason in ALLOWED.values())


class TestManifestEntryIsTheSpec:
    """A shard setting is stated once: the manifest entry is the dataclass
    minus the three code-carried fields, so a field cannot be forgotten
    there and silently reset on reopen."""

    def test_round_trip_with_every_field_non_default(self):
        from dataclasses import fields

        from repro.core.config import fast_test_config
        from repro.nvm.device import DriftConfig, WearOutConfig
        from repro.sharding.shard import ShardSpec

        code_carried = {
            "config": fast_test_config(n_clusters=4),
            "wearout": WearOutConfig(seed=3),
            "drift": DriftConfig(seed=5),
        }
        spec = ShardSpec(
            shard_id=2,
            segment_size=128,
            n_segments=96,
            durable=False,
            key_capacity=24,
            seed=9,
            path="/tmp/shard-2.npz",
            scrubber=True,
            compactor=True,
            maintenance=True,
            scrub_interval_s=0.25,
            retrain_interval_s=0.5,
            **code_carried,
        )
        blank = ShardSpec(shard_id=0, segment_size=64, n_segments=1)
        same = [
            f.name
            for f in fields(ShardSpec)
            if f.name != "config"
            and getattr(spec, f.name) == getattr(blank, f.name)
        ]
        assert same == [], f"fields left at their default: {same}"

        entry = spec.manifest_entry()
        assert set(entry) == {f.name for f in fields(ShardSpec)} - set(
            code_carried
        )
        assert ShardSpec(**entry, **code_carried) == spec

    def test_entry_is_json_plain(self):
        import json

        from repro.sharding.shard import ShardSpec

        entry = ShardSpec(
            shard_id=1, segment_size=64, n_segments=8
        ).manifest_entry()
        assert json.loads(json.dumps(entry)) == entry


class TestBaseExceptionArms:
    def test_every_arm_says_why_it_catches_interrupts(self):
        """An ``except BaseException`` arm also catches KeyboardInterrupt
        and SystemExit; a comment in the two lines after it says why."""
        bare = []
        for path in sorted(PRODUCT.rglob("*.py")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                said = any(
                    after.lstrip().startswith("#")
                    for after in lines[i + 1:i + 3]
                )
                arm = line.lstrip().startswith("except BaseException")
                if arm and not said:
                    bare.append(f"{path.relative_to(ROOT)}:{i + 1}")
        assert bare == [], f"uncommented except BaseException: {bare}"


def _line_count(paths) -> int:
    return sum(len(p.read_text().splitlines()) for p in paths)


def _tag(option: Option) -> str:
    if not option.gated:
        return "ungated"
    return "allowed" if option.key in ALLOWED else "FAIL"


def main() -> None:
    report = audit()
    testing = sorted((PRODUCT / "testing").rglob("*.py"))
    print(f"src/repro product lines : {_line_count(_product_files())}")
    print(f"src/repro testing/ lines: {_line_count(testing)}")
    print(f"defaulted public parameters (product): {len(report['params'])}")
    for name, total in report["field_totals"].items():
        defaulted = sum(o.owner == name for o in report["fields"])
        print(f"  {name} fields: {total} ({defaulted} with a default)")
    never = report["never_set"]
    print(f"never set outside their module: {len(never)}")
    print(f"  gated packages + config fields: {sum(o.gated for o in never)}")
    print(f"  unjustified : {len(report['bad_options'])}")
    print(f"public methods (gated packages): {len(report['methods'])}")
    print(f"  reached by nothing: {len(report['unreached'])}")
    print(f"  unjustified : {len(report['bad_methods'])}")
    print(f"ALLOWED entries: {len(ALLOWED)}")
    for option in never + report["unreached"]:
        print(f"  [{_tag(option)}] {_where(option)}")


if __name__ == "__main__":
    main()
