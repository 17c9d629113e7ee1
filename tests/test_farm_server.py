"""E2E harness for the farm daemon (repro.farm.server).

Every test here drives a *real* ``cerberus-py serve`` subprocess on a
temp unix socket (the ``farm_daemon`` conftest fixture): lifecycle,
concurrency, in-flight dedup, per-client quotas, malformed-input
rejection, and kill-9/restart recovery.  Golden-verdict parity with
the direct API lives in tests/test_server_conformance.py.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.farm.client import FarmClient, ServerError
from repro.farm.server import PROTOCOL_VERSION
from repro.farm.store import ArtifactStore

OK = "int main(void){ return 7; }\n"
UNSEQ = "int x; int main(void){ return (x=1)+(x=2); }\n"
#: ~2.7s of exploration on this box: four unsequenced writes to
#: *distinct* objects — no UB, just a large interleaving space — so
#: the job is reliably still in flight when concurrent submissions,
#: drains, and kills land on it.
SLOW = ("int a; int b; int c; int d;\n"
        "int main(void){ (a=1)+(b=2)+(c=3)+(d=4);"
        " return a+b+c+d-10; }\n")
SLOW_PATHS = 4000
#: Never ends; at ``max_steps=10**9`` only a timeout stops it.
SPIN = "int main(void){ for(;;); }\n"


def raw_request(socket_path: str, line: bytes) -> dict:
    """Speak one raw line to the daemon — no client-side validation,
    so malformed bytes reach the server verbatim."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30)
        s.connect(socket_path)
        s.sendall(line)
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    assert data, "server closed the connection without a response"
    return json.loads(data)


# -- lifecycle -----------------------------------------------------------------

def test_lifecycle_submit_status_result_stats(farm_daemon):
    daemon = farm_daemon()
    client = daemon.client(client="life")

    health = client.health()
    assert health["status"] == "serving"
    assert health["protocol"] == PROTOCOL_VERSION

    r = client.submit(OK, name="ok.c", models=["concrete"])
    assert r["state"] == "done"
    assert r["report"]["ok"]
    assert r["report"]["verdicts"]["concrete"]["exit_code"] == 7

    job = r["job"]
    assert client.status(job)["state"] == "done"
    result = client.result(job)
    assert result["report"] == r["report"]

    stats = client.stats()
    assert stats["protocol"] == PROTOCOL_VERSION
    server = stats["server"]
    assert server["workers"] == 1
    assert server["counters"]["accepted"] == 1
    assert server["counters"]["jobs_completed"] == 1
    assert server["jobs"]["done"] == 1
    assert "by_kind" in stats["store"]


def test_graceful_shutdown_removes_socket(farm_daemon):
    daemon = farm_daemon()
    client = daemon.client()
    client.submit(OK, name="ok.c", models=["concrete"])
    ack = client.shutdown()
    assert ack["draining"] is True
    assert daemon.proc.wait(timeout=30) == 0
    assert not os.path.exists(daemon.socket_path)
    assert "drained" in daemon.stderr()


def test_sigterm_drains_inflight_job(farm_daemon):
    daemon = farm_daemon()
    client = daemon.client()
    ack = client.submit(SLOW, name="slow.c", models=["concrete"],
                        mode="explore", max_paths=SLOW_PATHS,
                        wait=False)
    assert ack["state"] in ("queued", "running")
    time.sleep(0.3)   # let the worker pick it up
    assert daemon.terminate() == 0
    # The drain waited for the in-flight job and persisted its result:
    # a fresh incarnation on the same store serves it immediately.
    daemon2 = farm_daemon(store=daemon.store)
    result = daemon2.client().result(ack["job"])
    assert result["state"] == "done"
    exploration = result["report"]["explorations"]["concrete"]
    assert exploration["paths_run"] >= 1
    assert not exploration["has_ub"]


# -- concurrency and dedup -----------------------------------------------------

def test_concurrent_distinct_jobs_all_complete(farm_daemon):
    daemon = farm_daemon()
    sources = [f"int main(void){{ return {i}; }}\n" for i in range(6)]
    results = [None] * len(sources)

    def worker(i):
        client = daemon.client(client=f"c{i}")
        results[i] = client.submit(sources[i], name=f"p{i}.c",
                                   models=["concrete"])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(sources))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for i, r in enumerate(results):
        assert r is not None and r["state"] == "done"
        assert r["report"]["verdicts"]["concrete"]["exit_code"] == i
    counters = daemon.client().stats()["server"]["counters"]
    assert counters["accepted"] == len(sources)
    assert counters["jobs_executed"] == len(sources)


def test_ten_concurrent_clients_coalesce_to_one_computation(
        farm_daemon):
    """The ISSUE's dedup pin: 10 clients submitting the identical
    exploration — different client names and labels, which are
    non-semantic — produce exactly ONE compilation + exploration."""
    daemon = farm_daemon()
    seed_ack = daemon.client(client="seeder").submit(
        SLOW, name="slow.c", models=["concrete"], mode="explore",
        max_paths=SLOW_PATHS, wait=False)
    assert not seed_ack["coalesced"] and not seed_ack["cached"]

    reports = [None] * 10
    def worker(i):
        client = daemon.client(client=f"client-{i}",
                               wait_timeout=180)
        reports[i] = client.submit(
            SLOW, name="slow.c", models=["concrete"], mode="explore",
            max_paths=SLOW_PATHS, label=f"distinct-label-{i}")

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)

    assert all(r is not None for r in reports)
    payloads = [json.dumps(r["report"], sort_keys=True)
                for r in reports]
    assert len(set(payloads)) == 1, "coalesced waiters must all see " \
        "the one payload"
    assert all(r["job"] == seed_ack["job"] for r in reports)

    counters = daemon.client().stats()["server"]["counters"]
    assert counters["accepted"] == 1
    assert counters["jobs_executed"] == 1, \
        "ten identical submissions must run exactly one exploration"
    assert counters["dedup_coalesced"] + \
        counters["result_cache_hits"] == 10
    # The one executed job compiled the program exactly once.
    assert reports[0]["report"]["stats"]["translations"] == 1
    assert reports[0]["report"]["explorations"]["concrete"][
        "paths_run"] >= 1


def test_resubmission_is_served_from_result_record(farm_daemon):
    daemon = farm_daemon()
    client = daemon.client()
    first = client.submit(UNSEQ, name="u.c", models=["concrete"],
                          mode="explore", max_paths=32)
    again = client.submit(UNSEQ, name="u.c", models=["concrete"],
                          mode="explore", max_paths=32)
    assert again["cached"] and again["report"] == first["report"]
    # ...and across a restart: the payload is a store record.
    daemon.terminate()
    daemon2 = farm_daemon(store=daemon.store)
    revived = daemon2.client().submit(UNSEQ, name="u.c",
                                      models=["concrete"],
                                      mode="explore", max_paths=32)
    assert revived["cached"] and revived["report"] == first["report"]
    assert daemon2.client().stats()["server"]["counters"][
        "jobs_executed"] == 0


def test_stats_reply_counts_the_workers(farm_daemon):
    """The ``stats`` reply reads the daemon's one metrics scope, into
    which every worker payload is merged: the compiled artifact and
    the exploration record a worker stored show up, with or without
    ``--trace``."""
    daemon = farm_daemon()
    r = daemon.client().submit("int main(void){ return 3; }\n",
                               models=["concrete"], mode="explore")
    assert r["report"]["stats"]["translations"] == 1
    stats = daemon.client().stats()
    store = stats["store"]
    assert store["by_kind"]["compiled"]["stores"] == 1
    assert store["by_kind"]["exploration"]["stores"] == 1
    assert store["stores"] == 1
    assert store["record_stores"] >= 1 + 1   # + result
    assert os.listdir(os.path.join(daemon.store, "queue")) == []
    assert {"entries", "size_bytes", "hits", "misses", "record_hits",
            "record_misses", "evictions", "corrupt"} <= set(store)
    assert set(stats["server"]["counters"]) == {
        "requests", "submits", "accepted", "dedup_coalesced",
        "result_cache_hits", "jobs_executed", "jobs_completed",
        "jobs_failed", "jobs_timeout", "resumed", "rejects"}
    assert stats["server"]["counters"]["jobs_completed"] == 1
    assert stats["server"]["counters"]["resumed"] == 0


def test_a_serve_trace_counts_each_event_once(farm_daemon, tmp_path):
    """The daemon's scope is chained to the ``serve --trace`` scope:
    the trace's final metrics hold every count once."""
    trace = tmp_path / "serve.jsonl"
    daemon = farm_daemon(extra_args=("--trace", str(trace)))
    daemon.client().submit(OK, name="ok.c", models=["concrete"],
                           mode="explore")
    daemon.client().shutdown()
    assert daemon.proc.wait(timeout=60) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    counters = records[-1]["metrics"]["counters"]
    assert counters["store.compiled.stores"] == 1
    assert counters["store.exploration.stores"] == 1
    assert counters["server.jobs_completed"] == 1
    assert sum(r["type"] == "span" and r["name"] == "server.job"
               for r in records) == 1


def test_a_deadline_cut_exploration_is_resumed_not_reused(farm_daemon):
    """A payload the job timeout shaped is not a result: the same
    submission runs again and resumes the partial record."""
    daemon = farm_daemon(extra_args=("--job-timeout", "0.5"))
    client = daemon.client()

    def submit():
        r = client.submit(SLOW, name="slow.c", models=["concrete"],
                          mode="explore", max_paths=100_000)
        cell = r["report"]["explorations"]["concrete"]
        assert not cell["exhausted"]
        return r, cell["paths_run"]

    first, paths = submit()
    again, more = submit()
    assert not again["cached"]
    assert more > paths


def test_a_daemon_timeout_is_never_served_from_cache(farm_daemon):
    """A ``job-timeout`` the daemon reported is not the program's
    answer, in this incarnation or the next."""
    args = ("--job-timeout", "0.5", "--hard-timeout", "2")
    daemon = farm_daemon(extra_args=args)
    client = daemon.client()
    spin = client.submit(SPIN, models=["concrete"], max_steps=10**9)
    assert spin["report"]["error"]["code"] == "job-timeout"
    after = client.submit(OK, name="ok.c", models=["concrete"])
    assert after["report"]["verdicts"]["concrete"]["exit_code"] == 7
    daemon.kill9()
    daemon2 = farm_daemon(store=daemon.store, extra_args=args)
    again = daemon2.client().submit(SPIN, models=["concrete"],
                                    max_steps=10**9)
    assert not again["cached"]
    assert again["report"]["error"]["code"] == "job-timeout"


def test_a_hard_timeout_frees_its_worker(farm_daemon):
    """A job past ``--hard-timeout`` costs only its own worker: the
    worker is killed and replaced, the next job runs on the one-worker
    daemon, and ``shutdown`` leaves nothing of its process group."""
    daemon = farm_daemon(extra_args=("--job-timeout", "0.5",
                                     "--hard-timeout", "2"))
    client = daemon.client()
    spin = client.submit(SPIN, models=["concrete"], max_steps=10**9)
    assert spin["report"]["error"]["code"] == "job-timeout"
    after = client.submit(OK, name="ok.c", models=["concrete"])
    assert after["report"]["verdicts"]["concrete"]["exit_code"] == 7
    client.shutdown()
    deadline = time.monotonic() + 10
    assert daemon.proc.wait(timeout=10) == 0
    while True:
        try:
            os.killpg(daemon.proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a worker outlived the daemon"
        time.sleep(0.05)


@pytest.mark.parametrize("drain", [False, True],
                         ids=["no-drain", "drain-timeout"])
def test_a_shutdown_that_cuts_a_job_off_leaves_it_queued(farm_daemon,
                                                        drain):
    """``shutdown`` kills the worker mid-job — at once with ``drain:
    false``, after ``--drain-timeout`` otherwise; the job stays queued
    (never ``job-failed``) and the next incarnation on the store runs
    it."""
    daemon = farm_daemon(extra_args=("--drain-timeout", "0.3"))
    client = daemon.client()
    ack = client.submit(SLOW, name="slow.c", models=["concrete"],
                        mode="explore", max_paths=SLOW_PATHS,
                        wait=False)
    time.sleep(0.3)   # let the worker pick it up
    assert client.status(ack["job"])["state"] == "running"
    assert client.shutdown(drain=drain)["draining"]
    assert daemon.proc.wait(timeout=30) == 0
    daemon2 = farm_daemon(store=daemon.store)
    client2 = daemon2.client()
    assert client2.stats()["server"]["counters"]["resumed"] == 1
    result = client2.wait_result(ack["job"], timeout=180)
    assert result["state"] == "done"
    assert result["report"]["explorations"]["concrete"]["paths_run"] >= 1


def test_semantic_identity_ignores_client_label_wait(farm_daemon):
    """Satellite 2: the job id is a hash of the *semantic* fields
    only — client identity, labels, and wait flags never fork the
    computation, so clients with different trace destinations (a
    client-side concern) coalesce."""
    daemon = farm_daemon()
    a = daemon.client(client="alice").submit(
        OK, name="ok.c", models=["concrete"], wait=False,
        label="alice-writes-/tmp/a-trace")
    b = daemon.client(client="bob").submit(
        OK, name="ok.c", models=["concrete"], wait=True,
        label="bob-writes-/tmp/b-trace")
    assert a["job"] == b["job"]
    # A semantic knob DOES fork the identity.
    c = daemon.client(client="alice").submit(
        OK, name="ok.c", models=["concrete"], max_steps=1_000_000,
        wait=False)
    assert c["job"] != a["job"]


# -- quotas --------------------------------------------------------------------

def test_quota_limits_unfinished_jobs_per_client(farm_daemon):
    daemon = farm_daemon(extra_args=("--quota", "1"))
    client = daemon.client(client="greedy")
    ack = client.submit(SLOW, name="slow.c", models=["concrete"],
                        mode="explore", max_paths=SLOW_PATHS,
                        wait=False)
    # A second distinct submission while the first is unfinished
    # trips the quota...
    with pytest.raises(ServerError) as exc:
        client.submit(OK, name="ok.c", models=["concrete"],
                      wait=False)
    assert exc.value.code == "quota-exceeded"
    # ...but re-submitting the in-flight job coalesces for free...
    dup = client.submit(SLOW, name="slow.c", models=["concrete"],
                        mode="explore", max_paths=SLOW_PATHS,
                        wait=False)
    assert dup["coalesced"] and dup["job"] == ack["job"]
    # ...and other clients have their own budget.
    other = daemon.client(client="patient").submit(
        OK, name="ok.c", models=["concrete"], wait=False)
    assert other["state"] in ("queued", "running")
    # Once the slow job finishes, the quota slot frees up.
    client.wait_result(ack["job"], timeout=120)
    after = client.submit(UNSEQ, name="u.c", models=["concrete"],
                          wait=False)
    assert after["state"] in ("queued", "running", "done")


# -- malformed and oversized input ---------------------------------------------

def test_malformed_requests_get_structured_errors(farm_daemon):
    daemon = farm_daemon(
        extra_args=("--max-request-bytes", "4096"))
    sp = daemon.socket_path

    def err(line: bytes) -> dict:
        payload = raw_request(sp, line)
        assert payload["ok"] is False
        assert "traceback" not in json.dumps(payload).lower()
        return payload["error"]

    assert err(b"{not json}\n")["code"] == "bad-json"
    assert err(b"[1, 2]\n")["code"] == "bad-request"
    assert err(b'{"v": 1}\n')["code"] == "bad-request"
    assert err(b'{"op": "frobnicate"}\n')["code"] == "unknown-op"
    e = err(b'{"op": "submit", "v": 99, "source": "int x;"}\n')
    assert e["code"] == "protocol-version"
    e = err(b'{"op": "submit"}\n')
    assert (e["code"], e["field"]) == ("missing-field", "source")
    # Unknown fields are rejected, not ignored: a typo'd semantic
    # knob must not silently change what the job means.
    e = err(b'{"op": "submit", "source": "int x;", '
            b'"max_pathz": 9}\n')
    assert (e["code"], e["field"]) == ("unknown-field", "max_pathz")
    e = err(b'{"op": "submit", "source": "int x;", '
            b'"max_steps": true}\n')
    assert (e["code"], e["field"]) == ("bad-field", "max_steps")
    e = err(b'{"op": "submit", "source": "int x;", '
            b'"models": ["bogus"]}\n')
    assert (e["code"], e["field"]) == ("bad-field", "models")
    e = err(b'{"op": "result", "job": "never-heard-of-it"}\n')
    assert e["code"] == "unknown-job"
    # An oversized request line: structured error, connection closed.
    big = json.dumps({"op": "submit",
                      "source": "x" * 8192}).encode() + b"\n"
    assert err(big)["code"] == "oversized"
    # The daemon survived all of it.
    assert daemon.client().health()["status"] == "serving"
    counters = daemon.client().stats()["server"]["counters"]
    assert counters["rejects"] >= 10
    assert counters["accepted"] == 0


def test_pending_result_is_a_structured_error(farm_daemon):
    daemon = farm_daemon()
    client = daemon.client()
    ack = client.submit(SLOW, name="slow.c", models=["concrete"],
                        mode="explore", max_paths=SLOW_PATHS,
                        wait=False)
    with pytest.raises(ServerError) as exc:
        client.result(ack["job"])
    assert exc.value.code == "pending"
    final = client.wait_result(ack["job"], timeout=120)
    assert final["state"] == "done"


# -- kill -9 / restart ---------------------------------------------------------

def test_kill9_restart_resumes_every_accepted_job(farm_daemon):
    """The crash-safety pin: SIGKILL the daemon (and its workers)
    with a running job and queued jobs, restart on the same store,
    and every accepted job still completes with the right answer."""
    daemon = farm_daemon()
    client = daemon.client(client="doomed")
    acks = [
        client.submit(SLOW, name="slow.c", models=["concrete"],
                      mode="explore", max_paths=SLOW_PATHS,
                      wait=False),
        client.submit(UNSEQ, name="u.c", models=["concrete"],
                      mode="explore", max_paths=32, wait=False),
        client.submit(OK, name="ok.c", models=["concrete"],
                      wait=False),
    ]
    assert len({a["job"] for a in acks}) == 3
    time.sleep(0.5)   # first job mid-exploration on the 1 worker
    daemon.kill9()

    daemon2 = farm_daemon(store=daemon.store,
                          socket_path=daemon.socket_path)
    # Every accepted-but-unfinished job was re-enqueued.
    stats = daemon2.client().stats()["server"]
    assert stats["counters"]["resumed"] == 3

    client2 = daemon2.client(client="survivor")
    results = {a["job"]: client2.wait_result(a["job"], timeout=180)
               for a in acks}
    assert all(r["state"] == "done" for r in results.values())
    slow = results[acks[0]["job"]]["report"]["explorations"][
        "concrete"]
    assert slow["paths_run"] >= 1 and not slow["has_ub"]
    unseq = results[acks[1]["job"]]["report"]["explorations"][
        "concrete"]
    assert any("Unsequenced_race" in b for b in unseq["behaviours"])
    ok = results[acks[2]["job"]]["report"]["verdicts"]["concrete"]
    assert ok["exit_code"] == 7


def _submits(*sources, **fields):
    return [{"op": "submit", "source": source, "models": ["concrete"],
             **fields} for source in sources]


def test_an_evicting_store_loses_no_accepted_job(tmp_path,
                                                  farm_in_process):
    """The queue is not a cache: on a store whose byte budget keeps
    only its newest entry, a restarted daemon still resumes every job
    its predecessor accepted and answers each; the job the second
    shutdown cut off stays queued."""
    root = tmp_path / "store"
    ret3, ret4 = ("int main(void){ return 3; }\n",
                  "int main(void){ return 4; }\n")
    spin = _submits(SPIN, max_steps=10**9, wait=False)
    rest = _submits(ret3, ret4, wait=False)
    resumed, acks = farm_in_process(ArtifactStore(root, max_bytes=1),
                                    spin + rest, workers=1)
    assert resumed == 0 and len({a["job"] for a in acks}) == 3
    resumed, replies = farm_in_process(
        ArtifactStore(root, max_bytes=1), _submits(ret3, ret4),
        workers=2)
    assert resumed == 3     # each reply is a resumed job's
    assert all(r["coalesced"] or r["cached"] for r in replies)
    assert [r["report"]["verdicts"]["concrete"]["exit_code"]
            for r in replies] == [3, 4]
    assert [p.stem for p in (root / "queue").iterdir()] \
        == [acks[0]["job"]]


def test_a_queued_job_survives_an_upgrade(tmp_path, farm_in_process):
    """The queue holds requests only: a job one build accepted is
    resumed by the next build and runs under its code — its result is
    that build's record."""
    root = tmp_path / "store"
    _, [ack] = farm_in_process(ArtifactStore(root, build="old"),
                               _submits(OK, wait=False))
    new = ArtifactStore(root, build="new")
    resumed, [reply] = farm_in_process(new, _submits(OK))
    assert resumed == 1 and reply["coalesced"]
    assert reply["report"]["verdicts"]["concrete"]["exit_code"] == 7
    for store, kept in ((new, True),
                        (ArtifactStore(root, build="old"), False)):
        key = store.record_key("jobresult", ack["job"])
        assert (store.get_record(key, dict) is not None) == kept
    assert list((root / "queue").iterdir()) == []


def test_recovery_answers_what_it_need_not_run(tmp_path,
                                               farm_in_process):
    """A queued job whose result was stored before the crash is
    answered from it; one this build cannot read is answered
    ``job-failed``, not skipped.  Neither stays queued."""
    store = ArtifactStore(tmp_path / "store")
    queue = store.root / "queue"
    queue.mkdir()
    (queue / "stored.json").write_text(json.dumps({"source": OK}))
    store.put_record(store.record_key("jobresult", "stored"),
                     {"ok": True, "verdicts": {}}, kind="jobresult")
    aliens = {"alien": '{"source": "", "knob": 1}', "list": "[]",
              "number": "5", "sourceless": "{}", "garbage": "{not json"}
    for name, text in aliens.items():
        (queue / f"{name}.json").write_text(text)
    resumed, [stored, *answers] = farm_in_process(
        store, [{"op": "result", "job": job}
                for job in ["stored", *aliens]])
    assert resumed == 0
    assert stored["state"] == "done"
    for alien in answers:
        assert alien["state"] == "failed"
        assert alien["report"]["error"]["code"] == "job-failed"
    assert list(queue.iterdir()) == []


def test_client_polling_survives_a_daemon_restart(farm_daemon):
    """wait_result keeps polling through connection failures, so a
    client that submitted before a kill -9 just keeps waiting and
    gets its answer from the next incarnation."""
    daemon = farm_daemon()
    ack = daemon.client().submit(SLOW, name="slow.c",
                                 models=["concrete"], mode="explore",
                                 max_paths=SLOW_PATHS, wait=False)
    collected = {}

    def poller():
        collected["r"] = FarmClient(daemon.socket_path).wait_result(
            ack["job"], timeout=180)

    t = threading.Thread(target=poller)
    t.start()
    time.sleep(0.4)
    daemon.kill9()
    farm_daemon(store=daemon.store, socket_path=daemon.socket_path)
    t.join(timeout=180)
    assert collected["r"]["state"] == "done"


# -- the submit CLI ------------------------------------------------------------

def _submit_cli(daemon, *args):
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(__import__("repro").__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "submit", *args,
         "--socket", daemon.socket_path],
        env=env, capture_output=True, text=True, timeout=120)


def test_submit_cli_exit_codes(farm_daemon, tmp_path):
    daemon = farm_daemon()
    ok_c = tmp_path / "ok.c"
    ok_c.write_text(OK)
    ub_c = tmp_path / "ub.c"
    ub_c.write_text(UNSEQ)

    p = _submit_cli(daemon, str(ok_c), "--models", "concrete")
    assert p.returncode == 0 and "exit=7" in p.stdout

    p = _submit_cli(daemon, str(ub_c), "--models", "concrete",
                    "--exhaustive", "--max-paths", "32")
    assert p.returncode == 1 and "Unsequenced_race" in p.stdout

    p = _submit_cli(daemon, str(ok_c), "--models", "bogus")
    assert p.returncode == 2 and "unknown model" in p.stderr

    p = _submit_cli(daemon, str(tmp_path / "missing.c"))
    assert p.returncode == 2

    p = _submit_cli(daemon, str(ok_c), "--models", "concrete",
                    "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["report"]["verdicts"]["concrete"][
        "exit_code"] == 7

    daemon.terminate()
    p = _submit_cli(daemon, str(ok_c), "--models", "concrete")
    assert p.returncode == 2 and "cannot reach server" in p.stderr


def test_farm_sweep_through_the_server_prints_the_local_lines(
        farm_daemon, tmp_path):
    """``farm sweep --server`` (``sweep_campaign(server=)`` and
    ``client.server_sweep``) prints the per-program lines and exit
    code of a local ``farm sweep``, a front-end failure included."""
    daemon = farm_daemon()
    (tmp_path / "a.c").write_text(OK)
    (tmp_path / "b.c").write_text(
        '#include <stdio.h>\nint main(void){ printf("b\\n"); '
        'return 0; }\n')
    (tmp_path / "c.c").write_text(
        "#include <stdarg.h>\n"
        "int f(int n, ...){ va_list ap; va_start(ap, n);"
        " int x = va_arg(ap, int); va_end(ap); return x; }\n"
        "int main(void){ return f(1, 2); }\n")
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(__import__("repro").__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def sweep(*extra):
        p = subprocess.run(
            [sys.executable, "-m", "repro.cli", "farm", "sweep", "a.c",
             "b.c", "c.c", "--models", "concrete,strict", *extra],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        lines = [line for line in p.stdout.splitlines()
                 if line.split(" ", 1)[0] in ("a.c", "b.c", "c.c")]
        return lines, p.returncode

    local = sweep()
    served = sweep("--server", daemon.socket_path)
    assert served == local
    lines, code = local
    assert code == 2
    assert len(lines) == 5
    assert any(line.startswith("c.c") and "error: ParseError" in line
               for line in lines)
