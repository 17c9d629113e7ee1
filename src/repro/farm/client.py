"""The farm server's wire client: a small blocking JSON-over-unix-
socket speaker for the :mod:`repro.farm.server` protocol.

One :class:`FarmClient` talks to one daemon socket; every request
opens a fresh connection (the protocol allows connection reuse, but
one-shot connections keep the client trivially safe to share across
threads — the E2E dedup tests hammer one daemon from ten threads
through ten of these).  Structured server rejections surface as
:class:`ServerError` carrying the protocol error code; transport
failures (no socket, connection refused, daemon died mid-request)
surface as the underlying :class:`OSError`.

    >>> client = FarmClient("/run/cerberus.sock")
    >>> client.health()["status"]
    'serving'
    >>> report = client.submit("int main(void){ return 0; }",
    ...                        models=["concrete"])["report"]

``submit(wait=True)`` (the default) blocks until the job finishes and
returns the response with its ``report`` payload; ``wait=False``
returns the acknowledgement immediately and :meth:`wait_result`
polls ``result`` until the job leaves the queue — which also picks
up jobs accepted by a *previous* daemon incarnation (the crash-safe
queue), so a client that outlives a ``kill -9`` just keeps polling
the restarted server.
"""

from __future__ import annotations

import json
import socket
import time
from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..spec import ExploreSpec
from .server import PROTOCOL_VERSION


class ServerError(Exception):
    """A structured protocol rejection: ``code`` is one of the
    documented error codes (``bad-json``, ``unknown-field``,
    ``quota-exceeded``, ...), ``detail`` the human explanation,
    ``field`` the offending field when the server named one."""

    def __init__(self, code: str, detail: str = "",
                 field: Optional[str] = None):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
        self.field = field

    @classmethod
    def from_payload(cls, payload: dict) -> "ServerError":
        error = payload.get("error")
        if not isinstance(error, dict):
            return cls("internal", f"malformed error payload: "
                       f"{payload!r}")
        return cls(error.get("code", "internal"),
                   error.get("detail", ""), error.get("field"))


class FarmClient:
    """Blocking client for one daemon socket.

    ``timeout`` bounds each non-waiting request round-trip;
    ``wait=True`` submissions use ``wait_timeout`` (``None`` = wait
    as long as the job takes — the server's own two-level timeouts
    bound that)."""

    def __init__(self, socket_path, timeout: float = 30.0,
                 wait_timeout: Optional[float] = None,
                 client: str = "anon"):
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.wait_timeout = wait_timeout
        self.client = client

    # -- transport ------------------------------------------------------------

    def request(self, message: dict,
                timeout: Optional[float] = -1) -> dict:
        """One request/response round-trip.  Raises
        :class:`ServerError` on a structured rejection, ``OSError``
        on transport failure, and ``ConnectionError`` if the server
        closed without answering (e.g. killed mid-job)."""
        if timeout == -1:
            timeout = self.timeout
        message.setdefault("v", PROTOCOL_VERSION)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(self.socket_path)
            s.sendall(json.dumps(message).encode("utf-8") + b"\n")
            line = self._read_line(s)
        if not line:
            raise ConnectionError(
                "server closed the connection without a response")
        payload = json.loads(line)
        if not payload.get("ok"):
            raise ServerError.from_payload(payload)
        return payload

    @staticmethod
    def _read_line(s: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        return b"".join(chunks)

    # -- ops ------------------------------------------------------------------

    def submit(self, source: str,
               spec: Optional[ExploreSpec] = None, *,
               name: str = "<submit>", models="all",
               mode: str = "run", impl: str = "LP64",
               lint: bool = False, wait: bool = True,
               label: Optional[str] = None,
               client: Optional[str] = None, **knobs) -> dict:
        """Submit one job: the envelope (``name``, ``models``,
        ``mode``, ``impl``, ``lint``, ``wait``, ``label``,
        ``client``) plus every field of ``spec`` with ``knobs``
        applied (see :class:`~repro.spec.ExploreSpec`).  A field left
        unset keeps its ``ExploreSpec`` default in run mode too:
        ``max_steps`` is 500000, not ``RunSpec``'s 2000000.  The
        report's ``stats`` are derived from its ``metrics``."""
        spec = ExploreSpec.build(spec, **knobs)
        message = {"op": "submit", "source": source, "name": name,
                   "models": models if models == "all"
                   else list(models),
                   "mode": mode, "impl": impl, "lint": lint,
                   "wait": wait, "client": client or self.client,
                   **spec.to_json()}
        if label is not None:
            message["label"] = label
        return self.request(message, timeout=self.wait_timeout
                            if wait else -1)

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "job": job_id})

    def result(self, job_id: str) -> dict:
        return self.request({"op": "result", "job": job_id})

    def wait_result(self, job_id: str, poll_s: float = 0.1,
                    timeout: Optional[float] = None) -> dict:
        """Poll ``result`` until the job leaves the queue.  Transient
        transport failures (the daemon restarting after a kill) are
        retried until ``timeout``; a structured ``pending`` error
        just means poll again."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            try:
                return self.result(job_id)
            except ServerError as exc:
                if exc.code != "pending":
                    raise
            except (OSError, ConnectionError):
                pass   # daemon down/restarting: keep polling
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still unfinished after "
                    f"{timeout:g}s")
            time.sleep(poll_s)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def health(self) -> dict:
        return self.request({"op": "health"})

    def shutdown(self, drain: bool = True) -> dict:
        return self.request({"op": "shutdown", "drain": drain})

    def wait_healthy(self, timeout: float = 30.0,
                     poll_s: float = 0.1) -> dict:
        """Block until the daemon answers ``health`` (used right
        after booting one)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ConnectionError, ValueError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(poll_s)


def server_sweep(socket_path, programs: Sequence[Tuple[str, str]],
                 *, spec: ExploreSpec = ExploreSpec(),
                 models="all", mode: str = "run",
                 impl: str = "LP64", lint: bool = False,
                 client: str = "sweep", poll_s: float = 0.05,
                 timeout: Optional[float] = None) -> List:
    """Run an ad-hoc ``(name, source)`` corpus through a live daemon
    under one ``spec``: submit everything without waiting (the server
    interleaves jobs across its pre-warmed pool and coalesces
    duplicates), then collect each payload in corpus order as farm
    :class:`~repro.farm.pool.TaskResult` objects — the server-backed
    twin of :func:`repro.farm.pool.sweep` (like it, it merges each
    payload's metrics into the active :mod:`repro.obs` context once),
    consumed by :func:`repro.farm.campaign.sweep_campaign(server=...)
    <repro.farm.campaign.sweep_campaign>`."""
    from .pool import task_result_from_json
    fc = FarmClient(socket_path, client=client)
    jobs: List[Tuple[int, str, str]] = []
    for index, (name, source) in enumerate(programs):
        while True:
            try:
                ack = fc.submit(source, spec, name=name,
                                models=models, mode=mode, impl=impl,
                                lint=lint, wait=False)
                break
            except ServerError as exc:
                # A corpus larger than the per-client quota drains
                # itself: wait for in-flight jobs, then resubmit.
                if exc.code != "quota-exceeded":
                    raise
                time.sleep(poll_s)
        jobs.append((index, name, ack["job"]))
    ctx = obs.active()
    results = []
    for index, name, job_id in jobs:
        response = fc.wait_result(job_id, poll_s=poll_s,
                                  timeout=timeout)
        result = task_result_from_json(response["report"],
                                       index=index)
        result.name = name
        results.append(result)
        if ctx is not None:
            ctx.merge(result.data.get("metrics"))
    return results
