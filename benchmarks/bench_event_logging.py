"""Event logging is zero-cost when not exploring (ROADMAP claim).

The driver notifies the oracle of every memory action so the explorer
can compute footprints and sleep sets — but a plain single-path run
(the common case: ``cerberus-py file.c``, the whole de facto suite in
"run" mode) reads none of it.  The driver therefore decides *once*,
at construction, whether the oracle can possibly consume action
events (``record_events`` on, or a non-empty POR sleep set) and skips
the ``note_action`` calls entirely otherwise.

Two assertions pin the claim:

* **zero-call** — a tripwire oracle whose ``note_action`` raises runs
  a store-heavy program to completion untouched when not exploring,
  and trips immediately when event recording is on (the tripwire is
  real);
* **throughput** — the non-exploring run is benchmarked and its
  wall-clock recorded next to an identical run with event recording
  on, in ``benchmarks/perf_event_logging.json``.
"""

import json
import time
from pathlib import Path

from repro.dynamics.driver import Driver, Oracle
from repro.pipeline import compile_c

MODEL = "concrete"

# Store-heavy: every loop iteration is several memory actions, so any
# per-action logging leak multiplies.
SOURCE = r'''
int t[64];
int main(void) {
    int i, j, acc = 0;
    for (i = 0; i < 200; i++)
        for (j = 0; j < 64; j++) {
            t[j] = i + j;
            acc += t[j];
        }
    return acc & 1;
}
'''


class TripwireOracle(Oracle):
    """Raises if the driver forwards a single action event."""

    def note_action(self, *args, **kwargs):
        raise AssertionError(
            "note_action called on a non-exploring run")


def _run(oracle):
    program = compile_c(SOURCE)
    driver = Driver(program.core, program.make_model(MODEL), oracle)
    outcome = driver.run("main")
    assert outcome.status in ("done", "exit"), outcome.status
    return outcome


def test_non_exploring_run_never_logs(benchmark):
    # Zero-call: the tripwire never fires without event recording...
    outcome = benchmark.pedantic(lambda: _run(TripwireOracle()),
                                 rounds=1, iterations=1)
    assert outcome.exit_code == 0

    # ...and the tripwire is genuine: with recording on, the very
    # same program trips it on its first memory action.
    try:
        _run(TripwireOracle(record_events=True))
    except AssertionError as exc:
        assert "note_action" in str(exc)
    else:
        raise AssertionError("tripwire oracle never saw an event — "
                             "the zero-call assertion is vacuous")

    # Throughput record: identical runs, logging off vs on.  The
    # plain run is a user's: the driver makes its own oracle.
    t0 = time.perf_counter()
    _run(None)
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _run(Oracle(record_events=True))
    logging_s = time.perf_counter() - t0

    record = {
        "benchmark": "event_logging",
        "model": MODEL,
        "plain_run_s": round(plain_s, 4),
        "recording_run_s": round(logging_s, 4),
        "logging_overhead_x": round(logging_s / plain_s, 2),
    }
    out_path = Path(__file__).with_name("perf_event_logging.json")
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + json.dumps(record))
