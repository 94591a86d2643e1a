"""The persistent execution service (``jrpm serve``) and its client.

The paper's Jrpm is a *resident* system: one VM that keeps profiling,
selecting and recompiling while programs run.  This package gives the
reproduction the same shape:

* :class:`JrpmServer` (:mod:`repro.service.daemon`) — a long-running
  asyncio daemon owning a shared :class:`ArtifactStore` and a batched
  :class:`JobScheduler` over the crash-isolating worker pool;
* :class:`Session` / :class:`JrpmClient`
  (:mod:`repro.service.client`) — the unified user-facing API;
  ``Session.local()`` for in-process use, ``JrpmClient.connect`` for
  the daemon;
* :class:`RunOptions` (:mod:`repro.service.options`) — the one options
  dataclass replacing the divergent per-call kwargs;
* :mod:`repro.service.protocol` — the versioned line-delimited JSON
  wire format.

See ``docs/service.md`` for protocol, lifecycle and backpressure
semantics.
"""

from .client import JrpmClient, JrpmServiceError, LocalSession, Session
from .daemon import JrpmServer, run_server
from .jobs import VERBS, JobSpec, execute_job, job_fingerprint
from .options import RunOptions
from .protocol import PROTOCOL_VERSION, ProtocolError
from .scheduler import (Draining, JobFailed, JobScheduler, QueueFull,
                        ServiceError)
from .store import ArtifactStore

__all__ = ["Session", "JrpmClient", "LocalSession", "JrpmServiceError",
           "JrpmServer", "run_server",
           "RunOptions",
           "JobSpec", "execute_job", "job_fingerprint", "VERBS",
           "JobScheduler", "ServiceError", "JobFailed", "QueueFull",
           "Draining",
           "ArtifactStore",
           "PROTOCOL_VERSION", "ProtocolError"]
