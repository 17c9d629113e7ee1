"""Golden-verdict conformance: the checked-in behaviour sets in
``tests/goldens/verdicts.json`` are the paper's reproduced answers —
every test program's distinct behaviours (UB name *and* site) under
every memory object model.  Live runs must match them cell for cell;
deliberate semantics changes re-pin with
``python -m repro.testsuite --update-goldens``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import MODELS
from repro.spec import ExploreSpec
from repro.testsuite.goldens import (
    GOLDEN_SCHEMA, compute_verdicts, diff_goldens, load_goldens,
    update_goldens,
)
from repro.testsuite.programs import TESTS

GOLDEN_PATH = Path(__file__).parent / "goldens" / "verdicts.json"


@pytest.fixture(scope="module")
def goldens():
    return load_goldens(GOLDEN_PATH)


class TestGoldenFile:
    def test_checked_in_and_complete(self, goldens):
        """The golden document pins every test × every registered
        model — a new test or model cannot land unpinned."""
        assert goldens["schema"] == GOLDEN_SCHEMA
        assert sorted(goldens["models"]) == sorted(MODELS)
        assert sorted(goldens["verdicts"]) == sorted(TESTS)
        for name, cells in goldens["verdicts"].items():
            assert sorted(cells) == sorted(MODELS), name
            for model, behaviours in cells.items():
                assert behaviours, (name, model)  # never empty

    def test_ub_cells_pin_the_site(self, goldens):
        """UB golden entries carry the source site, not just the
        name — the same UB at two program points is two behaviours."""
        ub_lines = [b
                    for cells in goldens["verdicts"].values()
                    for behaviours in cells.values()
                    for b in behaviours if b.startswith("UB[")]
        assert ub_lines, "suite must pin some UB behaviour"
        sited = [b for b in ub_lines if " @ " in b]
        assert len(sited) >= len(ub_lines) * 0.9, \
            "UB goldens lost their source sites"


class TestConformance:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_live_verdicts_match_goldens(self, goldens, model):
        live = compute_verdicts(
            models=[model],
            spec=ExploreSpec(max_paths=goldens["max_paths"],
                             max_steps=goldens["max_steps"]))
        lines = diff_goldens(goldens, live)
        assert not lines, "\n".join(lines)


class TestRegeneration:
    def test_update_goldens_roundtrip(self, tmp_path):
        path = update_goldens(tmp_path / "v.json",
                              models=["concrete", "provenance"],
                              names=["provenance_basic_global_yx"])
        doc = load_goldens(path)
        assert doc["models"] == ["concrete", "provenance"]
        live = compute_verdicts(models=["concrete", "provenance"],
                                names=["provenance_basic_global_yx"])
        assert diff_goldens(doc, live) == []

    def test_subset_update_merges_into_existing(self, tmp_path):
        """A restricted --update-goldens must not discard the pinned
        cells outside the subset."""
        path = update_goldens(tmp_path / "v.json",
                              models=["concrete", "provenance"],
                              names=["provenance_basic_global_yx",
                                     "provenance_equality_adjacent"])
        before = load_goldens(path)["verdicts"]
        update_goldens(path, models=["concrete"],
                       names=["provenance_basic_global_yx"])
        after = load_goldens(path)["verdicts"]
        assert after == before      # recomputed cells were identical
        assert after["provenance_equality_adjacent"]["provenance"]

    def test_cli_check_subset(self, tmp_path):
        """``python -m repro.testsuite`` round-trips: regenerate a
        subset golden, then check it, in subprocesses."""
        path = tmp_path / "subset.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        base = [sys.executable, "-m", "repro.testsuite",
                "--path", str(path),
                "--models", "concrete",
                "--tests", "provenance_equality_adjacent"]
        import os
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        gen = subprocess.run(base + ["--update-goldens"],
                             capture_output=True, text=True, env=env)
        assert gen.returncode == 0, gen.stderr
        check = subprocess.run(base, capture_output=True, text=True,
                               env=env)
        assert check.returncode == 0, check.stdout + check.stderr
        assert "conform" in check.stdout

    def test_divergence_is_reported(self, goldens, tmp_path):
        """A flipped golden cell must fail the diff with a readable
        message naming the test, the model, and both sides."""
        doc = json.loads(json.dumps(goldens))  # deep copy
        name = sorted(doc["verdicts"])[0]
        doc["verdicts"][name]["concrete"] = ["exit=99 stdout='nope'"]
        live = compute_verdicts(
            models=["concrete"], names=[name],
            spec=ExploreSpec(max_paths=doc["max_paths"],
                             max_steps=doc["max_steps"]))
        lines = diff_goldens(doc, live)
        assert len(lines) == 1
        assert name in lines[0] and "concrete" in lines[0]
        assert "golden:" in lines[0] and "live:" in lines[0]
