"""A restricted operational C11 concurrency fragment.

C threads are supported through ``<threads.h>`` (``thrd_create`` /
``thrd_join``), scheduled by the driver at memory-action granularity
with oracle-chosen interleavings; the exhaustive driver therefore
enumerates thread schedules exactly like expression interleavings
(paper §5.1: the same sequencing-monad choice covers both).

Data-race detection uses per-location vector clocks: conflicting
non-atomic accesses unrelated by happens-before are flagged as
``Data_race`` undefined behaviour (§5.1.2.4p25). Seq-cst atomics are
modelled by a dedicated Core memory order on loads/stores plus
synchronising joins of location clocks — the "more restricted memory
object model" of the paper, not the full C11 axiomatic model.

``run_litmus`` runs classic litmus-test-shaped C programs (message
passing, store buffering, ...) under exhaustive exploration and
reports the set of observable outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..pipeline import explore_c


@dataclass
class LitmusResult:
    """Observable behaviours of a concurrent test program."""

    behaviours: List[str] = field(default_factory=list)
    has_race: bool = False
    paths: int = 0
    exhausted: bool = True

    def allows(self, stdout: str) -> bool:
        return any(stdout in b for b in self.behaviours)


def run_litmus(source: str, max_paths: int = 2000,
               model: str = "concrete") -> LitmusResult:
    """Exhaustively run a threaded C program; collects distinct
    behaviours and whether any execution races."""
    result = explore_c(source, model=model, max_paths=max_paths)
    races = any(o.ub is not None and o.ub.name == "Data_race"
                for o in result.outcomes)
    return LitmusResult(
        behaviours=result.behaviours(),
        has_race=races,
        paths=result.paths_run,
        exhausted=result.exhausted,
    )


# The helpers below generate litmus bodies for tests/benches.

def sc_atomic_store(var: str, value: int) -> str:
    """C fragment storing seq-cst (we model plain stores as SC in the
    restricted fragment when wrapped through these helpers)."""
    return f"{var} = {value};"


def sc_atomic_load(var: str, out: str) -> str:
    return f"{out} = {var};"


MESSAGE_PASSING = r"""
#include <stdio.h>
#include <threads.h>
int data, flag;
int writer(void *arg) { data = 42; flag = 1; return 0; }
int main(void) {
    thrd_t t;
    thrd_create(&t, writer, 0);
    int f = flag;
    int d = data;
    thrd_join(t, 0);
    printf("f=%d d=%d\n", f, d);
    return 0;
}
"""
