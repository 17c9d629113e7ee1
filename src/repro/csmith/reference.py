"""Differential validation harness (paper §6).

Runs generated programs through the full Cerberus-py pipeline and
compares against the generator's independently computed expected output
— the analogue of the paper's GCC comparison ("Of their 561 Csmith
tests, Cerberus currently gives the same result as GCC for 556; the
other 5 time-out").

The corpus is reproducible by construction — an explicit ``seeds``
list, or ``range(seed_base, seed_base + count)`` — so sharded farm
campaign workers partition exactly the same programs
deterministically.  :func:`validate_programs` is a farm Csmith
campaign (:func:`repro.farm.campaign.csmith_campaign`): one task per
seed, serial in-process at ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .generator import GeneratedProgram


@dataclass
class ValidationReport:
    total: int = 0
    agree: int = 0
    disagree: int = 0
    timeout: int = 0
    failed: int = 0
    disagreements: List[int] = field(default_factory=list)  # seeds
    failures: List[int] = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.total} tests: {self.agree} agree, "
                f"{self.timeout} time out, {self.disagree} disagree, "
                f"{self.failed} fail")


def classify_outcomes(program: GeneratedProgram,
                      outcomes: Dict[str, object]) -> str:
    """Compare one program's per-model outcomes against the
    generator's mirror: ``"agree"`` | ``"timeout"`` | ``"disagree"``.
    Every model must reproduce the expected output to count as
    agreement (the cross-model differential mode)."""
    if any(o.status == "timeout" for o in outcomes.values()):
        return "timeout"
    if all(o.status in ("done", "exit") and
           o.stdout == program.expected_stdout and
           (o.exit_code or 0) == 0
           for o in outcomes.values()):
        return "agree"
    return "disagree"


def resolve_seeds(count: Optional[int],
                  seeds: Optional[Sequence[int]],
                  seed_base: int) -> List[int]:
    """The corpus as an explicit, reproducible seed list."""
    if seeds is not None:
        return list(seeds)
    if count is None:
        raise ValueError("validate_programs needs count or seeds=")
    return [seed_base + i for i in range(count)]


def validate_programs(count: Optional[int] = None, size: int = 12,
                      model: str = "concrete",
                      max_steps: int = 300_000,
                      seed_base: int = 1000,
                      models: Optional[List[str]] = None,
                      seeds: Optional[Sequence[int]] = None,
                      jobs: int = 1,
                      store=None,
                      shard: Optional[Tuple[int, int]] = None
                      ) -> ValidationReport:
    """Generate the corpus and compare Cerberus-py's output against
    the reference: the report of a
    :func:`~repro.farm.campaign.csmith_campaign`.

    With ``models`` (a list of memory object models) each program is
    translated once and the compiled artifact executed under every
    model — all must reproduce the reference output to count as
    agreement.  ``seeds`` names the corpus explicitly (otherwise
    ``seed_base``/``count``); ``jobs``, ``store``, and ``shard``
    choose parallel workers, a persistent artifact store, and a
    deterministic corpus partition."""
    from ..farm.campaign import csmith_campaign
    report, _ = csmith_campaign(
        seeds=seeds, count=count, size=size,
        models=list(models) if models else [model], jobs=jobs,
        store=store, shard=shard or (0, 1), max_steps=max_steps,
        seed_base=seed_base)
    return report
