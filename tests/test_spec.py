"""One semantic spec (repro.spec): every knob means the same thing at
every entry point.

The field walks read the fields from the dataclass, so a field added
later is covered without editing this file: each non-default value
must change the daemon job id, the CLI trace run id and — for every
field but the path budget — the exploration record key, through both
the serial and the farm seam.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main as cli_main
from repro.core.pretty import pretty_program
from repro.farm.store import ArtifactStore
from repro.farm.frontier import explore_farm
from repro.farm.server import validate_submit
from repro.memory.base import MemoryOptions
from repro.obs.trace import run_id_for
from repro.pipeline import compile_c, explore_c, run_c
from repro.spec import BUDGETS, ExploreSpec, RunSpec, SpecError, choices

ROOT = Path(__file__).resolve().parents[1]

#: Single-path, and explorable from either entry the walk picks.
SRC = ("int a; int main2(void){ a = 1; return a - 1; }\n"
       "int main(void){ return main2(); }\n")

FIELDS = dataclasses.fields(ExploreSpec)


def _nondefault(f: dataclasses.Field):
    """A valid value of field ``f`` other than its default, derived
    from the field's type and metadata alone."""
    ty = typing.get_type_hints(ExploreSpec)[f.name]
    if f.metadata.get("choices"):
        return next(c for c in choices(f.name) if c != f.default)
    if ty is bool:
        return not f.default
    if ty is int:
        return f.default + 1
    if ty is str:
        return f.default + "2"
    if typing.get_origin(ty) is typing.Union:
        inner = next(t for t in typing.get_args(ty)
                     if t is not type(None))
        return 1 if inner is int else inner()
    raise AssertionError(f"no non-default value for {f.name}: {ty}")


def _variants():
    base = ExploreSpec()
    return [(f.name, dataclasses.replace(base,
                                         **{f.name: _nondefault(f)}))
            for f in FIELDS]


class _KeySpy:
    """Records every exploration record key looked up."""

    def __init__(self, monkeypatch):
        self.keys = []
        get = ArtifactStore.get_record

        def spy(store, key, *args, **kwargs):
            if kwargs.get("kind") == "exploration":
                self.keys.append(key)
            return get(store, key, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "get_record", spy)

    def last(self) -> str:
        assert self.keys, "no exploration record was looked up"
        return self.keys[-1]


class TestFieldWalk:
    def test_walk_covers_every_field(self):
        assert [name for name, _ in _variants()] == \
            [f.name for f in FIELDS]
        for name, spec in _variants():
            assert getattr(spec, name) != \
                getattr(ExploreSpec(), name), name

    def test_every_field_changes_the_daemon_job_id(self):
        def job_id(spec):
            msg = {"op": "submit", "source": SRC, "mode": "explore",
                   **spec.to_json()}
            return validate_submit(msg, 1 << 20).job_id()

        base = job_id(ExploreSpec())
        for name, spec in _variants():
            assert job_id(spec) != base, name

    def test_every_field_changes_the_cli_run_id(self):
        args = cli.build_parser().parse_args(["t.c", "--exhaustive"])
        base = cli._spec(args)

        def run_id(spec):
            return run_id_for(cli._main_identity(args, SRC, spec))

        for name, spec in _variants():
            changed = dataclasses.replace(base,
                                          **{name: getattr(spec, name)})
            assert changed != base, name
            assert run_id(changed) != run_id(base), name

    def test_every_field_but_the_budget_changes_the_record_key(
            self, tmp_path, monkeypatch):
        spy = _KeySpy(monkeypatch)
        es = ArtifactStore(tmp_path / "store")
        program = compile_c(SRC)

        def serial_key(spec):
            program.explore("concrete", spec, store=es)
            return spy.last()

        def farm_key(spec):
            explore_farm(SRC, "concrete", spec=spec, jobs=2, store=es)
            return spy.last()

        for seam in (serial_key, farm_key):
            base = seam(ExploreSpec())
            for name, spec in _variants():
                if name in BUDGETS:
                    assert seam(spec) == base, (seam.__name__, name)
                else:
                    assert seam(spec) != base, (seam.__name__, name)
        # Both seams address one record per space.
        assert serial_key(ExploreSpec()) == farm_key(ExploreSpec())


class TestSpecValues:
    def test_json_round_trip(self):
        spec = ExploreSpec(options=MemoryOptions(uninit_read="ub"),
                           seed=4, strategy="bfs", entry="go")
        assert ExploreSpec.from_json(spec.to_json()) == spec
        assert ExploreSpec.from_json({}) == ExploreSpec()

    @pytest.mark.parametrize("bad", [
        {"max_paths": "5"}, {"max_steps": 0}, {"seed": True},
        {"backend": "jit"}, {"strategy": "zigzag"},
        {"options": {"uninit_read": 5}}, {"options": {"bogus": 1}},
        {"entri": "main"},
    ])
    def test_bad_fields_name_themselves(self, bad):
        with pytest.raises(SpecError) as exc:
            ExploreSpec.from_json(bad)
        assert exc.value.field == next(iter(bad))

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            explore_c(SRC, "concrete", statc_prune=True)
        with pytest.raises(TypeError):
            run_c(SRC, "concrete", max_paths=5)   # not a run knob

    def test_run_and_explore_defaults(self):
        assert RunSpec().max_steps == 2_000_000
        assert ExploreSpec().max_steps == 500_000
        assert RunSpec.build(ExploreSpec(), seed=3).seed == 3


def test_farm_static_prune_matches_serial(capsys):
    path = str(ROOT / "examples" / "c" / "unseq_commuting.c")
    for extra in ([], ["--jobs", "2"]):
        code = cli_main([path, "--exhaustive", "--static-prune",
                         *extra])
        out = capsys.readouterr().out
        assert code == 0
        assert "executions explored: 1 (complete)" in out, extra


_CORE_DIGEST = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.core.pretty import pretty_program
from repro.pipeline import compile_c
from repro.testsuite.programs import TESTS
h = hashlib.sha256()
for name in sorted(TESTS):
    try:
        core = compile_c(TESTS[name].source, use_cache=False).core
    except Exception as exc:
        h.update(type(exc).__name__.encode())
        continue
    h.update(pretty_program(core).encode())
print(h.hexdigest())
"""


class TestDeterministicCore:
    def test_repeated_compiles_print_identical_core(self):
        src = (ROOT / "examples" / "c" / "provenance_tour.c").read_text()
        first = pretty_program(compile_c(src, use_cache=False).core)
        second = pretty_program(compile_c(src, use_cache=False).core)
        assert first == second

    def test_core_is_independent_of_the_hash_seed(self):
        script = _CORE_DIGEST.format(src=str(ROOT / "src"))
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", script],
                                 env=env, capture_output=True,
                                 text=True, check=True, timeout=300)
            digests.add(out.stdout.strip())
        assert len(digests) == 1
