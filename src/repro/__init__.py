"""Cerberus-py: an executable de facto semantics for C.

A reproduction of Memarian et al., *Into the Depths of C: Elaborating
the De Facto Standards* (PLDI 2016). The public surface:

* :func:`repro.pipeline.run_c` — compile and run a C program on a
  chosen memory object model;
* :func:`repro.pipeline.explore_c` — exhaustively enumerate all
  allowed executions (the test-oracle mode);
* :func:`repro.pipeline.compile_c` — the front half of the pipeline
  (Cabs -> Ail -> Typed Ail -> Core), memoised, returning a reusable
  :class:`repro.pipeline.CompiledProgram`;
* :func:`repro.pipeline.run_many` / :func:`repro.pipeline.explore_many`
  — execute one compiled program across many memory object models;
* :class:`repro.spec.RunSpec` / :class:`repro.spec.ExploreSpec` — the
  semantic knobs of a run or an exploration as one value (every
  keyword API above builds one);
* :mod:`repro.memory` — the pluggable memory object models
  (concrete / provenance / strict / cheri);
* :mod:`repro.testsuite` — the 85 design-space questions and the
  executable de facto test suite;
* :mod:`repro.survey` — the paper's survey data and table generators.

* :mod:`repro.obs` — the observability layer: metrics, span tracing,
  and per-phase profiling hooks (``with repro.obs.tracing(path): ...``).

The command line is :mod:`repro.cli` (``cerberus-py``); each
subpackage's docstring describes its layer.
"""

import time as _time

#: ``(perf_counter, process_time)`` when this package started
#: executing: where the CLI's ``cli.import`` trace span begins.
_started = (_time.perf_counter(), _time.process_time())

from . import obs  # noqa: E402
from .pipeline import (  # noqa: E402
    CompiledProgram, compile_c, explore_c, explore_many, run_c,
    run_many,
)
from .spec import ExploreSpec, RunSpec  # noqa: E402

__version__ = "1.0.0"

__all__ = ["CompiledProgram", "ExploreSpec", "RunSpec", "compile_c",
           "explore_c", "explore_many", "obs", "run_c", "run_many",
           "__version__"]
