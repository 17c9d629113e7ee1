"""``repro.farm`` — persistent artifact store + parallel sweep execution.

The paper's method is inherently batch-shaped: one C program is swept
across many memory object models (§2-§5), and whole corpora — the §5
de facto test suite, the §6 Csmith differential validation — are swept
across all of them. PR 1 split translation from execution
(:mod:`repro.pipeline`'s ``compile_c`` -> :class:`CompiledProgram`);
this subsystem turns that in-process seam into a cross-process,
parallel execution farm.

Layers
======

:mod:`repro.farm.store` — :class:`~repro.farm.store.ArtifactStore`
    The one store: a persistent, on-disk, content-addressed cache of
    compiled artifacts (pickled :class:`~repro.pipeline.CompiledProgram`
    objects keyed on ``(source, impl, name)``), exploration records,
    static analyses and job results, each also keyed on the build that
    computed it.  Writes are atomic (temp
    file + ``os.replace``), corrupt or truncated entries fall back to
    silent regeneration, and the store is bounded by total size with
    LRU eviction (reads refresh an entry's recency).  A process holds
    one handle: the entry point opens it (the CLI's ``--store``, the
    daemon, :func:`~repro.farm.pool.run_tasks` once per worker) and
    installs it with :func:`repro.pipeline.set_artifact_store`, where
    it is consulted after the in-memory compile cache, and every seam
    takes it as one ``store`` argument
    (:func:`~repro.farm.store.as_store` normalises a directory).

:mod:`repro.farm.pool` — :func:`~repro.farm.pool.sweep` and friends
    :class:`~repro.farm.pool.WorkerPool`, the forked worker pool of
    every ``--jobs N`` batch and of the daemon, with deterministic
    sharding (``shard_index``/``shard_count``), per-task timeouts (a
    cooperative deadline inside the worker; past the hard one, only
    that worker is killed and replaced), and deterministic result
    aggregation.  ``sweep(programs, models, jobs=N)`` runs a corpus of
    C programs across a list of memory object models on top of
    ``run_many`` / ``explore_many``; ``jobs=1`` runs them in-process.
    :func:`~repro.farm.pool.execute_task` is the only batch executor
    (the CLI's ``--models``, every campaign, farm-sharded exploration
    and the daemon's worker run through it) and the one failure
    boundary: any exception becomes a failed task result with the
    same ``error`` text wherever it ran.  A task's counters come from
    its own metrics registry, shipped back with its result — never
    from scans of the store directory.

:mod:`repro.farm.frontier` — farm-sharded state-space exploration
    :func:`~repro.farm.frontier.explore_farm` splits one program's
    exploration frontier (oracle choice prefixes from a breadth-first
    seeding phase) into subtree shards dispatched across the worker
    pool, deals them the path budget exactly (at most ``max_paths``
    paths, as a serial walk), and merges the shard results into a
    single :class:`~repro.dynamics.explore.ExplorationResult` with
    correct ``exhausted``/``paths_run`` accounting.  Strategy and
    sleep-set partial-order reduction settings travel with each
    shard, and each shard answers with the slim copy of its
    ``ExplorationResult`` — the form the store persists, so a frontier
    crosses the worker boundary and reaches the store as the same
    ``PathNode`` values.  Exploration records themselves belong to
    :func:`repro.dynamics.explore.explore_space`, their only reader
    and writer.  CLI: ``cerberus-py file.c --exhaustive --jobs N``.

:mod:`repro.farm.server` / :mod:`repro.farm.client` — the daemon
    Semantics-as-a-service: :class:`~repro.farm.server.FarmServer` is
    a persistent asyncio daemon owning one store + a worker pool
    behind a JSON protocol on a unix socket (submit / status /
    result / stats / health / shutdown).  Identical in-flight
    submissions coalesce into one computation (semantic content
    addressing à la ``run_id_for``), the job queue persists beside
    the store, so a ``kill -9`` server resumes every accepted job, and
    finished payloads are served from ``"jobresult"`` records across
    restarts.  :class:`~repro.farm.client.FarmClient` speaks the
    protocol; :func:`~repro.farm.client.server_sweep` /
    ``sweep_campaign(server=...)`` run whole corpora through a live
    daemon.  CLI: ``cerberus-py serve`` / ``cerberus-py submit`` /
    ``cerberus-py farm sweep --server SOCKET``.

:mod:`repro.farm.campaign` — campaign drivers and JSON reports
    The repo's batch consumers:
    :func:`~repro.farm.campaign.suite_campaign` (which
    :func:`repro.testsuite.runner.run_suite_many` wraps),
    :func:`~repro.farm.campaign.csmith_campaign` (which
    :func:`repro.csmith.reference.validate_programs` wraps), and the
    ``cerberus-py farm`` CLI subcommand.  Each campaign produces a
    :class:`~repro.farm.campaign.CampaignReport` — per-program
    verdicts, aggregated cache counters (front-end translations,
    in-memory and store hit rates), and wall-clock — serialisable to
    JSON for CI perf records.

Quick start
===========

The package imports none of its modules: a plain ``--models`` run
loads only :mod:`~repro.farm.pool` and :mod:`~repro.farm.store`.

>>> from repro.farm.pool import sweep
>>> from repro.farm.campaign import suite_campaign
>>> results = sweep([("p", "int main(void){ return 0; }")],
...                 models=["concrete", "provenance"], jobs=2)
>>> report, campaign = suite_campaign(["concrete"], jobs=4,
...                                   store="/tmp/cerberus-store")

CLI::

    cerberus-py file.c --models all --store DIR
    cerberus-py farm suite  --models all --jobs 4 --store DIR --report r.json
    cerberus-py farm csmith --seeds 1,2,3 --jobs 4 --shard 0/2
    cerberus-py farm sweep a.c b.c --models concrete,cheri --jobs 2
    cerberus-py serve --socket /run/cerb.sock --store DIR --workers 4
    cerberus-py submit file.c --socket /run/cerb.sock --models all
"""
