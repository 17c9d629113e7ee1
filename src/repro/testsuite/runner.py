"""Run the de facto test suite against memory models and tool personae
and check verdicts against expectations (the paper's "experimental data
for our test suite" methodology, §2-§3).

Sweeps are compile-once: :func:`run_test_many` translates each test
program a single time per implementation environment and executes the
shared Core artifact under every requested model.
:func:`run_suite_many` is a farm suite campaign
(:func:`repro.farm.campaign.suite_campaign`): one task per test,
serial in-process at ``jobs=1``, with worker processes, a persistent
cross-process artifact store and deterministic suite sharding on
request."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dynamics.driver import Outcome
from ..errors import CerberusError
from ..pipeline import (
    CompiledProgram, compile_c, compile_for_model, impl_for_model,
)
from .programs import TestCase


@dataclass
class TestResult:
    name: str
    model: str
    verdict: str           # "ok:<stdout>" | "ub:<Name>" | "error:..."
    expected: Optional[str]
    matches: Optional[bool]
    stdout: str = ""


@dataclass
class SuiteReport:
    results: List[TestResult] = field(default_factory=list)

    def passed(self) -> List[TestResult]:
        return [r for r in self.results if r.matches]

    def failed(self) -> List[TestResult]:
        return [r for r in self.results if r.matches is False]

    def flagged(self) -> List[TestResult]:
        return [r for r in self.results if r.verdict.startswith("ub")]

    def table(self) -> str:
        lines = [f"{'test':32s} {'model':12s} {'verdict':36s} ok"]
        for r in self.results:
            status = {True: "yes", False: "NO", None: "-"}[r.matches]
            lines.append(f"{r.name:32s} {r.model:12s} "
                         f"{r.verdict:36s} {status}")
        return "\n".join(lines)


def _verdict_of(outcome: Outcome) -> str:
    if outcome.status == "ub":
        return f"ub:{outcome.ub.name}" if outcome.ub else "ub"
    if outcome.status in ("done", "exit"):
        return f"ok:{outcome.stdout}"
    if outcome.status == "abort":
        return "abort"
    if outcome.status == "timeout":
        return "timeout"
    return f"error:{outcome.error}"


def _matches(verdict: str, expected: str) -> bool:
    if expected == "either":
        return True
    if expected == "ok":
        return verdict.startswith("ok:")
    if expected == "ub":
        return verdict.startswith("ub")
    return verdict == expected


def _error_result(test: TestCase, model: str,
                  exc: CerberusError) -> TestResult:
    expected = test.expect.get(model)
    matches = None if expected is None else False
    return TestResult(test.name, model, f"error:{type(exc).__name__}",
                      expected, matches)


def run_test(test: TestCase, model: str,
             max_steps: int = 400_000,
             program: Optional[CompiledProgram] = None) -> TestResult:
    """Check one test under one model; pass a pre-compiled ``program``
    to skip the front end (batch sweeps do)."""
    expected = test.expect.get(model)
    try:
        if program is None:
            program = compile_for_model(test.source, model)
        if test.exhaustive:
            res = program.explore(model, max_paths=64,
                                  max_steps=max_steps)
            outcomes = res.distinct()
            verdicts = sorted({_verdict_of(o) for o in outcomes})
            verdict = " | ".join(verdicts)
            if expected == "either":
                matches = True
            elif expected is None:
                matches = None
            else:
                matches = all(_matches(v, expected) for v in verdicts)
            return TestResult(test.name, model, verdict, expected,
                              matches,
                              outcomes[0].stdout if outcomes else "")
        outcome = program.run(model, max_steps=max_steps)
        verdict = _verdict_of(outcome)
        matches = None if expected is None else _matches(verdict,
                                                         expected)
        return TestResult(test.name, model, verdict, expected, matches,
                          outcome.stdout)
    except CerberusError as exc:
        return _error_result(test, model, exc)


def run_test_many(test: TestCase, models: List[str],
                  max_steps: int = 400_000) -> List[TestResult]:
    """Check one test under many models with one front-end translation
    per implementation environment."""
    programs: Dict[str, object] = {}
    results: List[TestResult] = []
    for model in models:
        impl = impl_for_model(model)
        entry = programs.get(impl.name)
        if entry is None:
            try:
                entry = compile_c(test.source, impl)
            except CerberusError as exc:
                entry = exc
            programs[impl.name] = entry
        if isinstance(entry, CerberusError):
            results.append(_error_result(test, model, entry))
        else:
            results.append(run_test(test, model, max_steps,
                                    program=entry))
    return results


def run_suite(model: str, names: Optional[List[str]] = None,
              max_steps: int = 400_000) -> SuiteReport:
    return run_suite_many([model], names, max_steps)


def run_suite_many(models: List[str],
                   names: Optional[List[str]] = None,
                   max_steps: int = 400_000,
                   jobs: int = 1,
                   store=None,
                   shard: Optional[Tuple[int, int]] = None
                   ) -> SuiteReport:
    """The per-test × per-model sweep, compile-once per test program:
    the report of a :func:`~repro.farm.campaign.suite_campaign`.

    ``jobs`` > 1 fans tests out across farm worker processes;
    ``store`` (an :class:`~repro.farm.store.ArtifactStore` or a
    directory path) persists compiled artifacts across processes and
    invocations; ``shard=(i, n)`` runs the i-th of n deterministic
    slices of the suite."""
    from ..farm.campaign import suite_campaign
    report, _ = suite_campaign(models, names or None, jobs=jobs,
                               store=store, shard=shard or (0, 1),
                               max_steps=max_steps)
    return report
