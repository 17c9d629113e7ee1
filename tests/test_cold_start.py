"""A cold CLI run builds only the node classes it constructs and
imports only the layers it reaches — pinned by structure, not by wall
clock — and a lazily built node class behaves exactly as the
dataclass it stands for."""

from __future__ import annotations

import copy
import dataclasses
import gc
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import nodeclass
from repro.pipeline import compile_c
from repro.testsuite.programs import TESTS

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

#: The modules a plain run never reaches (prefixes).
UNREACHED = ("repro.dynamics.explore", "repro.statics", "multiprocessing",
             "repro.farm.campaign", "repro.farm.frontier",
             "repro.farm.server")

#: The classes whose instances the imported modules create as
#: constants (``INT = Integer(IntKind.INT)``, ``UNIT = VUnit()``, ...).
BUILT_BY_IMPORT = {"Floating", "Integer", "Pointer", "QualType",
                   "Qualifiers", "VBool", "VUnit", "Void"}

#: Prints what a fresh interpreter has built and loaded, as JSON.
_REPORT = (
    "import json, sys\n"
    "from repro import nodeclass\n"
    "def report():\n"
    "    print(json.dumps({\n"
    "        'built': sorted(c.__qualname__ for c in nodeclass.MANAGED\n"
    "                        if nodeclass.is_built(c)),\n"
    "        'modules': sorted(sys.modules)}))\n")


def _python(code: str, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC_ROOT}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          check=True).stdout


def _unreached(modules) -> list:
    return [m for m in modules if m.startswith(UNREACHED)]


class TestColdImport:
    def test_import_builds_only_what_its_constants_construct(self):
        out = json.loads(_python(
            "import repro.cli\n" + _REPORT + "report()\n"))
        assert set(out["built"]) == BUILT_BY_IMPORT
        assert _unreached(out["modules"]) == []
        assert not [m for m in out["modules"] if m.startswith("repro.farm")]

    def test_a_models_run_loads_no_layer_it_does_not_reach(self, tmp_path):
        source = tmp_path / "p.c"
        source.write_text(TESTS["provenance_basic_global_yx"].source)
        out = _python(
            "import repro.cli\n" + _REPORT
            + "rc = repro.cli.main([sys.argv[1], '--models', 'all'])\n"
            "report()\n", source)
        lines = out.splitlines()
        assert len(lines) == 6        # one line per model, the report
        report = json.loads(lines[-1])
        assert _unreached(report["modules"]) == []
        # It builds about half the node classes, never all of them.
        assert BUILT_BY_IMPORT < set(report["built"])
        assert len(report["built"]) < len(nodeclass.MANAGED) * 3 // 4

    def test_every_managed_class_builds(self):
        """What eager decoration checked at import: every class is a
        valid dataclass, and follows dataclass's hash rule."""
        for cls in nodeclass.MANAGED:
            nodeclass._build_with_bases(cls)
            assert nodeclass.is_built(cls)
            assert "__setstate__" not in vars(cls), cls
            if cls.__dataclass_params__.frozen:
                assert cls.__hash__ is not None, cls
            else:
                assert cls.__hash__ is None, cls

    def test_strategy_names_agree_with_the_explorer(self):
        from repro.dynamics.explore.strategies import STRATEGIES
        from repro.spec import STRATEGIES as NAMES
        assert tuple(sorted(STRATEGIES)) == NAMES


class TestStoreLoad:
    def test_an_artifact_loads_before_any_node_is_built(self, tmp_path):
        """A fresh process unpickles a stored Core before constructing
        any node: the classes are built by the load, and the Core
        equals a fresh translation's, frozen nodes hashing alike."""
        source = TESTS["provenance_basic_global_yx"].source
        (tmp_path / "p.c").write_text(source)
        _python("import sys\nfrom repro.farm.store import ArtifactStore\n"
                "from repro.pipeline import compile_c\n"
                "from repro.ctypes.implementation import LP64\n"
                "store = ArtifactStore(sys.argv[2])\n"
                "src = open(sys.argv[1]).read()\n"
                "store.put(src, LP64, 'p', compile_c(src, name='p'))\n",
                tmp_path / "p.c", tmp_path / "store")
        out = _python(
            "import dataclasses, sys\n"
            "from repro import nodeclass\n"
            "from repro.core import ast as K\n"
            "from repro.ctypes.implementation import LP64\n"
            "from repro.farm.store import ArtifactStore\n"
            "from repro.pipeline import compile_c\n"
            + inspect.getsource(frozen_nodes) +
            "src = open(sys.argv[1]).read()\n"
            "unbuilt = not nodeclass.is_built(K.Program)\n"
            "loaded = ArtifactStore(sys.argv[2]).get(src, LP64, 'p').core\n"
            "a = frozen_nodes(loaded)\n"
            "# a field-less node unpickles without state, yet is built\n"
            "wild = [x for x in a if type(x) is K.PatWild]\n"
            "built = all(nodeclass.is_built(type(x)) for x in a)\n"
            "fresh = compile_c(src, name='p').core\n"
            "# TagEnv compares by identity, so tags compare by content\n"
            "same = all(getattr(loaded, f.name) == getattr(fresh, f.name)\n"
            "           for f in dataclasses.fields(loaded)\n"
            "           if f.name != 'tags')\n"
            "tags = loaded.tags.all_tags() == fresh.tags.all_tags()\n"
            "b = frozen_nodes(fresh)\n"
            "print(unbuilt, len(wild) > 0, built, same, tags, a == b,\n"
            "      [hash(x) for x in a] == [hash(y) for y in b])\n",
            tmp_path / "p.c", tmp_path / "store")
        assert out.split() == ["True"] * 7


def frozen_nodes(root) -> list:
    """Every instance of a frozen managed class reachable from
    ``root`` through dataclass fields, lists, tuples and dict values,
    in one deterministic order."""
    managed = set(nodeclass.MANAGED)
    out, stack, seen = [], [root], set()
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(reversed(x))
        elif isinstance(x, dict):
            stack.extend(reversed(list(x.values())))
        elif dataclasses.is_dataclass(x) and id(x) not in seen:
            seen.add(id(x))
            if type(x) in managed and type(x).__dataclass_params__.frozen:
                out.append(x)
            stack.extend(reversed([getattr(x, f.name)
                                   for f in dataclasses.fields(x)]))
    return out


# -- the dataclass results ----------------------------------------------------

def _instances() -> dict:
    """Up to 40 instances of each managed class that the Cabs, Ail and
    Core of the 53 suite programs and their runs (tree back end,
    sampled every 50 memory actions) hold, keyed by class."""
    from repro.dynamics.driver import Driver
    managed = set(nodeclass.MANAGED)
    found: dict = {}

    def collect():
        for x in gc.get_objects():
            cls = type(x)
            if cls in managed:
                bucket = found.setdefault(cls, {})
                if len(bucket) < 40:
                    bucket.setdefault(id(x), x)

    programs = [compile_c(t.source, name=name) for name, t in TESTS.items()]
    collect()
    do_action = Driver._do_action
    calls = [0]

    def sampling(self, request, thread):
        calls[0] += 1
        if calls[0] % 50 == 0:
            collect()
        return do_action(self, request, thread)

    Driver._do_action = sampling
    try:
        for program in programs:
            program.run("concrete", backend="tree")
    finally:
        Driver._do_action = do_action
    return {cls: list(b.values()) for cls, b in found.items()}


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _fields(x, flag: str) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x)
                 if getattr(f, flag))


def _hashed(x) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x)
                 if (f.compare if f.hash is None else f.hash))


class TestDataclassResults:
    def test_the_sample_covers_most_classes(self, instances):
        assert len(instances) >= 100

    def test_eq_compares_the_compared_fields(self, instances):
        others = [xs[0] for xs in instances.values()]
        for cls, xs in instances.items():
            for x in xs:
                assert x == copy.copy(x)
                for y in xs:
                    assert (x == y) == (_fields(x, "compare")
                                        == _fields(y, "compare")), cls
                for z in others:
                    if type(z) is not cls:
                        assert x.__eq__(z) is NotImplemented, cls

    def test_hash_hashes_the_hashed_fields(self, instances):
        for cls, xs in instances.items():
            for x in xs:
                if cls.__dataclass_params__.frozen:
                    assert hash(x) == hash(_hashed(x)), cls
                else:
                    with pytest.raises(TypeError):
                        hash(x)

    def test_repr_names_the_fields(self, instances):
        for cls, xs in instances.items():
            if vars(cls)["__repr__"].__qualname__ \
                    == f"{cls.__qualname__}.__repr__":
                continue        # the class body's own
            for x in xs:
                fields = ", ".join(f"{f.name}={getattr(x, f.name)!r}"
                                   for f in dataclasses.fields(x)
                                   if f.repr)
                assert repr(x) == f"{cls.__qualname__}({fields})", cls

    def test_a_frozen_instance_stays_frozen(self, instances):
        for cls, xs in instances.items():
            fields = dataclasses.fields(xs[0])
            if not cls.__dataclass_params__.frozen or not fields:
                continue
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(xs[0], fields[0].name, None)
