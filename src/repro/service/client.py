"""The unified user-facing API: one ``Session``, two transports.

:class:`Session` is the abstraction every caller programs against —
the three job verbs ``profile``, ``run`` and ``run_adaptive``, each
taking one
:class:`~repro.service.options.RunOptions`:

* ``Session.local()`` executes in-process (no daemon, no sockets) with
  an optional in-memory artifact store — a drop-in replacement for
  constructing :class:`~repro.core.pipeline.Jrpm` by hand, with
  byte-identical reports;
* ``JrpmClient.connect(...)`` speaks the line-delimited JSON protocol
  to a ``jrpm serve`` daemon and shares its warm artifact store with
  every other client.

Both return the same shapes: ``run``/``run_adaptive`` yield a live
:class:`~repro.core.pipeline.JrpmReport`; ``profile`` yields the
JSON-safe result dict documented in
:mod:`repro.service.jobs`.
"""

import copy
import itertools
import socket

from ..core.pipeline import JrpmReport
from . import protocol
from .jobs import (execute_job, fold_metrics, job_spec, metrics_answer,
                   profdb_answer, version_answer)
from .options import RunOptions
from .store import ArtifactStore


class JrpmServiceError(RuntimeError):
    """A request failed; ``kind`` mirrors the wire error discriminator
    (``timeout`` | ``crashed`` | ``error`` | ``overloaded`` |
    ``draining`` | ``bad-request`` | ``protocol``)."""

    def __init__(self, kind, message):
        self.kind = kind
        super().__init__("[%s] %s" % (kind, message))


class Session:
    """Verb surface shared by local and remote sessions."""

    @staticmethod
    def local(store=None, use_store=True):
        """In-process session.  ``use_store=False`` disables
        memoization entirely (every call recomputes)."""
        return LocalSession(store=store, use_store=use_store)

    @staticmethod
    def connect(socket_path=None, host="127.0.0.1", port=None,
                timeout=600.0):
        """Session backed by a running ``jrpm serve`` daemon."""
        return JrpmClient.connect(socket_path=socket_path, host=host,
                                  port=port, timeout=timeout)

    # -- the verb surface --------------------------------------------------
    def profile(self, source=None, **kwargs):
        """TEST profile with per-loop selector verdicts."""
        return self._job("profile", source, kwargs)

    def run(self, source=None, **kwargs):
        """The whole pipeline; returns a live :class:`JrpmReport`."""
        return self._report_of(self._job("run", source, kwargs))

    def run_adaptive(self, source=None, **kwargs):
        """The pipeline under the epoch-based adaptive controller."""
        return self._report_of(
            self._job("run_adaptive", source, kwargs))

    # -- introspection -----------------------------------------------------
    def version(self):
        """Package/protocol/schema versions of the executing side."""
        raise NotImplementedError

    def profdb(self, op="stats", **caps):
        """Inspect or maintain a persistent profile DB: ``op`` is
        ``stats`` (summary counters), ``export`` (the full validated
        payload) or ``gc`` (evict beyond the size caps, which may be
        tightened via ``max_programs=``/``max_inputs=``, non-negative
        ints).  Any other keyword is an error."""
        raise NotImplementedError

    def metrics(self, format="json"):
        """The executing side's metrics registry: ``format="json"``
        returns the lossless ``MetricsRegistry.to_dict`` payload under
        ``"metrics"``; ``format="openmetrics"`` returns the Prometheus
        text exposition under ``"openmetrics"``."""
        raise NotImplementedError

    @staticmethod
    def _report_of(result):
        return JrpmReport.from_dict(result["report"])

    @staticmethod
    def _split_kwargs(kwargs):
        shape = {key: kwargs.pop(key, default) for key, default in
                 (("workload", None), ("size", "default"),
                  ("variant", "base"), ("name", None))}
        options = kwargs.pop("options", None) or RunOptions()
        if kwargs:
            raise TypeError("unexpected keyword argument(s): %s "
                            "(run shape belongs in RunOptions)"
                            % ", ".join(sorted(kwargs)))
        return shape, options

    def _job(self, verb, source, kwargs):
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        """Release transport resources (a no-op for local sessions)."""
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class LocalSession(Session):
    """Executes jobs in-process; memoizes in an ArtifactStore."""

    def __init__(self, store=None, use_store=True):
        self.store = (store if store is not None
                      else ArtifactStore()) if use_store else None

    def _job(self, verb, source, kwargs):
        shape, options = self._split_kwargs(dict(kwargs))
        spec = job_spec(verb, options, source, **shape)
        if self.store is not None:
            cached = self.store.get(spec)
            if cached is not None:
                return copy.deepcopy(cached)
        result = execute_job(spec)
        # the job already merged its delta into this process's registry
        fold_metrics(result, merge=False)
        if self.store is not None:
            # the stored result is final: callers get their own copy
            self.store.put(spec, result)
            result = copy.deepcopy(result)
        return result

    def stats(self):
        """The store's live state (the daemon's ``store`` shape); its
        hits and misses are ``jrpm_store_lookups`` in :meth:`metrics`."""
        return {"local": True,
                "store": (self.store.stats_dict()
                          if self.store is not None else None)}

    def version(self):
        """Version identity of this in-process build."""
        return version_answer()

    def metrics(self, format="json"):
        """This process's global metrics registry (the same families a
        daemon would expose — LocalSession jobs fold into it too)."""
        return metrics_answer(format)

    def profdb(self, op="stats", path=None, **caps):
        """Operate on the profile DB at *path* (default location when
        omitted) without a daemon; an unknown keyword is a
        ``TypeError``."""
        from ..profdb import ProfileDb
        return profdb_answer(ProfileDb(path), op, **caps)


class JrpmClient(Session):
    """Synchronous socket client for the daemon.

    Supports pipelining: :meth:`request_many` writes every request
    before reading any response, so the daemon sees the whole burst at
    once and its scheduler batches (and coalesces) it.
    """

    def __init__(self, sock):
        self._sock = sock
        self._file = sock.makefile("rb")
        self._ids = itertools.count(1)

    @classmethod
    def connect(cls, socket_path=None, host="127.0.0.1", port=None,
                timeout=600.0):
        """Open a client over a unix socket *or* TCP (exactly one)."""
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path/port required")
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(socket_path)
        else:
            sock = socket.create_connection((host, port),
                                            timeout=timeout)
        return cls(sock)

    # -- wire --------------------------------------------------------------
    def _next_id(self):
        return "c%d" % next(self._ids)

    def _send(self, frame):
        self._sock.sendall(protocol.encode_frame(frame))

    def _recv(self):
        line = self._file.readline()
        if not line:
            raise JrpmServiceError(
                "protocol", "connection closed by daemon")
        return protocol.decode_frame(line)

    @staticmethod
    def _result_of(response):
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise JrpmServiceError(error.get("kind", "error"),
                               error.get("message", "request failed"))

    def request(self, verb, payload=None):
        """One request/response round-trip; returns the result dict."""
        request_id = self._next_id()
        self._send(protocol.make_request(request_id, verb, payload))
        response = self._recv()
        # responses come back in completion order; a lone request can
        # only be answered by its own id
        return self._result_of(response)

    def request_many(self, requests):
        """Pipeline ``[(verb, payload), ...]``; returns ``(result-or-
        JrpmServiceError, cached, elapsed)`` tuples in request order."""
        ids = []
        for verb, payload in requests:
            request_id = self._next_id()
            ids.append(request_id)
            self._send(protocol.make_request(request_id, verb, payload))
        answers = {}
        while len(answers) < len(ids):
            response = self._recv()
            answers[response.get("id")] = response
        settled = []
        for request_id in ids:
            response = answers[request_id]
            try:
                result = self._result_of(response)
            except JrpmServiceError as error:
                settled.append((error, False, 0.0))
            else:
                settled.append((result, response.get("cached", False),
                                response.get("elapsed", 0.0)))
        return settled

    # -- verbs -------------------------------------------------------------
    def _job(self, verb, source, kwargs):
        return self.request(verb, self._payload(source, dict(kwargs)))

    def _payload(self, source, kwargs):
        shape, options = self._split_kwargs(kwargs)
        payload = {"options": options.to_dict()}
        if source is not None:
            payload["source"] = source
        if shape["workload"] is not None:
            payload["workload"] = shape["workload"]
        if shape["name"] is not None:
            payload["name"] = shape["name"]
        if shape["size"] != "default":
            payload["size"] = shape["size"]
        if shape["variant"] != "base":
            payload["variant"] = shape["variant"]
        return payload

    def job_payload(self, source=None, **kwargs):
        """Public payload builder (used with :meth:`request_many`)."""
        return self._payload(source, kwargs)

    def ping(self):
        """Liveness check; returns the daemon's identity payload."""
        return self.request("ping")

    def stats(self):
        """The daemon's live state: uptime, endpoint, queue and
        workers, store size.  Counts are in :meth:`metrics`."""
        return self.request("stats")

    def drain(self):
        """Ask the daemon to finish everything in flight and shut
        down; returns its settled-job counts (``completed``,
        ``failed``)."""
        return self.request("drain")

    def version(self):
        """The daemon's package/protocol/schema versions."""
        return self.request("version")

    def metrics(self, format="json"):
        """The daemon's metrics registry (see :class:`Session`)."""
        return self.request("metrics", {"format": format})

    def profdb(self, op="stats", **caps):
        """Operate on the daemon's own ``--profdb`` DB: ``stats`` /
        ``export`` / ``gc``."""
        return self.request("profdb", dict(caps, op=op))

    def close(self):
        """Close the socket (the daemon keeps running)."""
        try:
            self._file.close()
        finally:
            self._sock.close()
