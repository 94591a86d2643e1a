"""``jrpm serve`` — the persistent execution daemon.

:class:`JrpmServer` listens on a unix socket (``--socket``) or TCP port
(``--port``), speaks the line-delimited JSON protocol of
:mod:`repro.service.protocol`, and owns the warm state a resident Jrpm
needs: the shared :class:`~repro.service.store.ArtifactStore` and the
batched :class:`~repro.service.scheduler.JobScheduler` over the
crash-isolating worker pool.

Lifecycle: requests on one connection are handled **concurrently**
(one asyncio task per request line; responses carry the request id and
go out in completion order), so a single pipelining client gets
batching for free.  ``drain`` stops intake, waits for every in-flight
job *and* every pending response write, answers last, and then the
server shuts down — the graceful half of the paper's "resident VM"
story.  SIGINT/SIGTERM trigger the same drain path.
"""

import asyncio
import os
import signal
import time

from ..log import get_logger
from ..metrics import MetricsHttpServer, get_registry
from ..serialize import REPORT_SCHEMA_VERSION
from ..runner.cache import ReportCache, default_cache_dir
from . import protocol
from ..profdb import ProfileDb
from .jobs import (VERBS, job_spec, metrics_answer, profdb_answer,
                   version_answer)
from .options import RunOptions
from .scheduler import JobScheduler, ServiceError
from .store import ArtifactStore

_log = get_logger("service.daemon")

#: control verbs whose payload must be empty
_BARE_VERBS = ("ping", "stats", "version", "drain")

#: the keys a job request's payload may carry; every one but
#: ``options`` (a :meth:`RunOptions.from_dict` dict) is a string
JOB_PAYLOAD_KEYS = ("source", "workload", "name", "size", "variant",
                    "options")


def _observe_request(verb, seconds, ok):
    """Count one finished request and its latency under its verb."""
    registry = get_registry()
    registry.counter(
        "jrpm_service_requests", "Service requests by verb/outcome",
        labels=("verb", "outcome")).labels(
            verb=verb, outcome="ok" if ok else "error").inc()
    registry.histogram(
        "jrpm_service_request_seconds",
        "Request wall-clock latency by verb",
        labels=("verb",)).labels(verb=verb).record(seconds)


class JrpmServer:
    """One daemon instance: listener + store + scheduler."""

    def __init__(self, socket_path=None, host="127.0.0.1", port=None,
                 jobs=2, queue_limit=64, timeout=300.0, batch_max=16,
                 cache_dir=None, use_cache=True, store_entries=512,
                 start_method=None, profdb_path=None,
                 metrics_port=None, metrics_host="127.0.0.1"):
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path/port required")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        disk_cache = (ReportCache(cache_dir or default_cache_dir())
                      if use_cache else None)
        self.store = ArtifactStore(max_entries=store_entries,
                                   disk_cache=disk_cache)
        self.scheduler = JobScheduler(
            self.store, jobs=jobs, queue_limit=queue_limit,
            timeout=timeout, batch_max=batch_max,
            start_method=start_method)
        self.started_at = time.time()
        self._monotonic_start = time.perf_counter()
        #: shared persistent profile DB: when configured, run /
        #: run_adaptive jobs get it injected (unless the client chose
        #: its own), so repeated requests across clients warm start.
        #: Worker processes open it by path; the flock discipline makes
        #: their concurrent write-backs safe.
        self.profdb = ProfileDb(profdb_path) if profdb_path else None
        #: OpenMetrics HTTP endpoint (``--metrics-port``; 0 = pick a
        #: free port, resolved on start).  None disables it — the
        #: ``metrics`` verb on the JSON socket is always available.
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.metrics_server = None
        self._server = None
        self._tasks = set()
        self._connections = set()      # live connection-handler tasks
        self._done = None              # set by start() on the live loop
        self._draining = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self):
        """Bind the socket and start accepting connections."""
        self._done = asyncio.Event()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self.metrics_server = MetricsHttpServer(
                get_registry, host=self.metrics_host,
                port=self.metrics_port)
            await self.metrics_server.start()
            self.metrics_port = self.metrics_server.port
        _log.info("listening on %s", self.endpoint)
        return self

    @property
    def endpoint(self):
        """Human-readable listen address (socket path or host:port)."""
        if self.socket_path is not None:
            return self.socket_path
        return "%s:%s" % (self.host, self.port)

    async def serve_until_drained(self):
        """Serve until a ``drain`` request (or :meth:`initiate_drain`)
        completes, then close everything."""
        await self._done.wait()
        await self.aclose()

    async def aclose(self):
        """Stop accepting, drain the scheduler, free the port."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.metrics_server is not None:
            await self.metrics_server.close()
            self.metrics_server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.close)
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def initiate_drain(self):
        """Signal-safe entry: schedule a drain on the event loop."""
        task = asyncio.ensure_future(self._drain())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _drain(self):
        """Stop intake, wait for all jobs and all responses in flight."""
        self._draining = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.drain)
        current = asyncio.current_task()
        pending = [task for task in self._tasks
                   if task is not current and not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._done.set()

    # -- connection handling -----------------------------------------------
    async def _handle_connection(self, reader, writer):
        write_lock = asyncio.Lock()
        current = asyncio.current_task()
        self._connections.add(current)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except asyncio.CancelledError:
            pass                         # server shutting down
        finally:
            self._connections.discard(current)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _serve_line(self, line, writer, write_lock):
        started = time.perf_counter()
        request_id, verb = None, "?"
        try:
            frame = protocol.decode_frame(line)
            request_id = frame.get("id")
            request_id, verb, payload = protocol.check_request(frame)
            response = await self._dispatch(request_id, verb, payload,
                                            started)
        except protocol.ProtocolError as error:
            response = protocol.make_error(request_id, "protocol",
                                           str(error))
        except Exception as error:       # last-resort: never drop a frame
            _log.exception("request %s (%s) failed", request_id, verb)
            response = protocol.make_error(
                request_id, "error",
                "%s: %s" % (type(error).__name__, error))
        # a success frame comes encoded, an error frame as its dict
        ok = isinstance(response, bytes)
        if not ok:
            response = protocol.encode_frame(response)
        _observe_request(verb, time.perf_counter() - started, ok)
        async with write_lock:
            try:
                writer.write(response)
                await writer.drain()
            except (ConnectionResetError, OSError):
                pass                     # client went away mid-reply

    async def _dispatch(self, request_id, verb, payload, started):
        """The reply to one request: a success frame's wire bytes, or
        an error frame (dict)."""
        def reply(result):
            return protocol.encode_response(
                request_id, protocol.encode_result(result),
                elapsed=time.perf_counter() - started)

        if verb in _BARE_VERBS and payload:
            return protocol.make_error(
                request_id, "bad-request",
                "%s takes no payload (got %s)"
                % (verb, ", ".join(sorted(payload))))
        if verb == "ping":
            return reply({"pong": True,
                          "protocol": protocol.PROTOCOL_VERSION,
                          "report_schema": REPORT_SCHEMA_VERSION,
                          "draining": self._draining})
        if verb == "stats":
            return reply(self.stats_snapshot())
        if verb == "metrics":
            try:
                result = metrics_answer(**payload)
            except (TypeError, ValueError) as error:
                return protocol.make_error(request_id, "bad-request",
                                           str(error))
            if self.metrics_server is not None:
                result["http_endpoint"] = "%s:%d" % (
                    self.metrics_host, self.metrics_port)
            return reply(result)
        if verb == "version":
            return reply(version_answer())
        if verb == "profdb":
            try:
                if self.profdb is None:
                    raise ValueError("no profile DB configured (start "
                                     "the daemon with --profdb)")
                result = profdb_answer(self.profdb, **payload)
            except (TypeError, ValueError) as error:
                return protocol.make_error(request_id, "bad-request",
                                           str(error))
            return reply(result)
        if verb == "drain":
            await self._drain()
            # a store hit settles at submit, counted there only
            registry = get_registry()
            ok = registry.total("jrpm_scheduler_settled", result="ok")
            failed = registry.total("jrpm_scheduler_settled") - ok \
                - registry.total("jrpm_scheduler_settled",
                                 result="cancelled")
            completed = ok + registry.total("jrpm_scheduler_submits",
                                            outcome="store_hit")
            return reply({"drained": True, "completed": int(completed),
                          "failed": int(failed)})
        if verb not in VERBS:
            return protocol.make_error(
                request_id, "bad-request",
                "unknown verb %r (job verbs: %s; control verbs: %s)"
                % (verb, ", ".join(VERBS),
                   ", ".join(protocol.CONTROL_VERBS)))
        try:
            spec = self._spec_of(verb, payload, request_id=request_id)
        except (KeyError, TypeError, ValueError) as error:
            return protocol.make_error(request_id, "bad-request",
                                       str(error))
        try:
            job = self.scheduler.submit(spec)
        except ServiceError as error:
            return protocol.make_error(request_id, error.kind,
                                       str(error))
        try:
            if job.cached:             # a store hit settles at submit
                result = job.future.result()
            else:
                result = await asyncio.wrap_future(job.future)
        except ServiceError as error:
            return protocol.make_error(request_id, error.kind,
                                       str(error))
        # the result is final (the scheduler folded its metric delta):
        # a stored one is encoded once, shared by every reply serving it
        return protocol.encode_response(
            request_id, self.store.result_text(job.key, result),
            cached=job.cached, elapsed=time.perf_counter() - started)

    def _spec_of(self, verb, payload, request_id=None):
        """Build the JobSpec for one request (:func:`job_spec`).  A key
        outside :data:`JOB_PAYLOAD_KEYS`, or one besides ``options``
        that is not a string, is an error, and so is an
        ``options.profile_db``: the daemon injects its own ``--profdb``
        DB into run/run_adaptive jobs and opens no other."""
        fields = {}
        for key, value in payload.items():
            if key not in JOB_PAYLOAD_KEYS:
                raise ValueError("unknown payload field %r (known: %s)"
                                 % (key, ", ".join(JOB_PAYLOAD_KEYS)))
            if key != "options":
                if not isinstance(value, str):
                    raise TypeError("payload field %r must be a string, "
                                    "not %s" % (key, type(value).__name__))
                fields[key] = value
        options = RunOptions.from_dict(payload.get("options") or {})
        if options.profile_db:
            raise ValueError("options.profile_db is not accepted: the "
                             "daemon uses its own --profdb DB")
        if self.profdb is not None and verb in ("run", "run_adaptive"):
            options.profile_db = self.profdb.path
        return job_spec(verb, options,
                        request_id=(str(request_id)
                                    if request_id is not None else None),
                        **fields)

    def stats_snapshot(self):
        """The daemon's live state, no counts (the ``stats`` verb);
        every count is in the metrics registry."""
        return {"uptime": round(time.perf_counter()
                                - self._monotonic_start, 3),
                "started_at": self.started_at,
                "endpoint": self.endpoint,
                "scheduler": self.scheduler.stats_dict(),
                "store": self.store.stats_dict()}


def run_server(server, quiet=False):
    """Blocking entry for the CLI: serve until drained or signalled."""

    async def _main():
        await server.start()
        if not quiet:
            import sys
            print("jrpm serve: listening on %s (protocol v%d, "
                  "%d workers, queue %d)"
                  % (server.endpoint, protocol.PROTOCOL_VERSION,
                     server.scheduler.jobs, server.scheduler.queue_limit),
                  file=sys.stderr, flush=True)
            if server.metrics_server is not None:
                print("jrpm serve: metrics on http://%s:%d/metrics"
                      % (server.metrics_host, server.metrics_port),
                      file=sys.stderr, flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.initiate_drain)
            except NotImplementedError:   # pragma: no cover - non-unix
                pass
        await server.serve_until_drained()

    asyncio.run(_main())
    return 0
