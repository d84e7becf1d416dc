"""Surface ratchet: every defaulted option of the product has a caller.

An AST audit of ``src/repro`` minus ``testing/``.  It collects every
defaulted parameter of a public method (``__init__`` included) of a
module-level class, and every defaulted field of the four configuration
dataclasses, and asks of each: does anything *outside the module that
defines it* — in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` —
ever set it?  "Set" is one of

- a call passing it by keyword (``dict(name=...)`` and
  ``replace(spec, name=...)`` are such calls),
- a call to the method (or, for ``__init__``, the class) by name with
  enough positional arguments to reach it,
- a dict literal key, ``d["name"] = ...`` or ``setdefault("name", ...)`` —
  how keyword bundles are assembled before a ``**`` splat,
- for a config field, an attribute assignment ``cfg.name = ...``.

Evidence is matched by *name*, not by resolved callee: a common name
(``seed``, ``timeout``) counts as set if anyone sets a parameter so named.
That makes the ratchet lenient, never wrong in the failing direction: what
it reports has no caller under any reading.

Gated are the packages a user of the store configures — ``core/``,
``nvm/``, ``pmem/``, ``sharding/``, ``tools/`` — and the config fields.
``ml/``, ``index/``, ``baselines/``, ``workloads/`` and ``profiling/`` are
the paper's experiments; they are counted and printed, not gated.  An
option nobody sets either becomes a constant or earns an ``ALLOWED`` entry
naming the caller or paper section that justifies it.

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
CORPUS_DIRS = ("src", "tests", "benchmarks", "examples")
GATED_PACKAGES = ("core", "nvm", "pmem", "sharding", "tools")
CONFIG_CLASSES = ("E2NVMConfig", "ShardSpec", "WearOutConfig", "DriftConfig")

#: ``"Class.method.parameter"`` (``"Class.field"`` for a config field) →
#: who needs it although no other module sets it.  An entry that stops
#: being needed (the option went away, or found a caller) fails the test.
ALLOWED = {
    "KVStore.__init__.catalog": (
        "the durable half of the constructor, passed with `pool` by "
        "KVStore.create / KVStore.open; test_kvstore_durable.py checks "
        "that `pool` without it is refused"
    ),
}


@_dataclass(frozen=True)
class Option:
    module: Path  # defining file
    package: str  # first path component under src/repro
    owner: str  # "Class.method", or "Class" for a config field
    name: str
    index: int | None  # positional index after self/cls; None = keyword-only

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.name}"

    @property
    def gated(self) -> bool:
        is_config_field = "." not in self.owner
        return is_config_field or self.package in GATED_PACKAGES


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


def collect_options() -> tuple[list[Option], list[Option], dict[str, int]]:
    """``(parameters, defaulted config fields, fields per config class)``
    over the whole product."""
    params: list[Option] = []
    fields: list[Option] = []
    field_totals: dict[str, int] = {}
    for path in _product_files():
        package = path.relative_to(PRODUCT).parts[0]
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and (
                    node.name == "__init__" or not node.name.startswith("_")
                ):
                    params += _method_options(path, package, cls, node)
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
    return params, fields, field_totals


class Evidence:
    """Everything the corpus sets, by name, with the files that set it."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[Path]] = defaultdict(set)
        self.keys: dict[str, set[Path]] = defaultdict(set)
        self.attributes: dict[str, set[Path]] = defaultdict(set)
        #: callee name → file → most positional arguments in one call.
        self.arity: dict[str, dict[Path, int]] = defaultdict(dict)
        this_file = Path(__file__).resolve()
        for top in CORPUS_DIRS:
            for path in sorted((ROOT / top).rglob("*.py")):
                if path.resolve() != this_file:  # ALLOWED names options
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
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Store
            ):
                self.attributes[node.attr].add(path)

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
    params, fields, field_totals = collect_options()
    evidence = Evidence()
    never = [o for o in params + fields if not evidence.sets(o)]
    gated = [o for o in never if o.gated]
    return {
        "params": params,
        "fields": fields,
        "field_totals": field_totals,
        "never_set": never,
        "unjustified": [o for o in gated if o.key not in ALLOWED],
        "stale_allowed": sorted(set(ALLOWED) - {o.key for o in gated}),
    }


def _where(option: Option) -> str:
    return f"{option.module.relative_to(ROOT)}: {option.key}"


class TestSurfaceRatchet:
    def test_every_defaulted_option_has_a_caller(self):
        unjustified = audit()["unjustified"]
        assert not unjustified, (
            "defaulted options nothing outside their module sets — make "
            "each a constant, or add an ALLOWED entry naming who needs "
            "it:\n  " + "\n  ".join(_where(o) for o in unjustified)
        )

    def test_allow_list_has_no_dead_entries(self):
        assert audit()["stale_allowed"] == []


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
    gated = [o for o in never if o.gated]
    print(f"never set outside their module: {len(never)}")
    print(f"  gated packages + config fields: {len(gated)}")
    print(f"  allow-listed: {len(gated) - len(report['unjustified'])}")
    print(f"  unjustified : {len(report['unjustified'])}")
    for option in never:
        if not option.gated:
            tag = "ungated"
        elif option.key in ALLOWED:
            tag = "allowed"
        else:
            tag = "FAIL"
        print(f"  [{tag}] {_where(option)}")


if __name__ == "__main__":
    main()
