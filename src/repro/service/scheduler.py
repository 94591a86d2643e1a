"""Batched job scheduler: bounded queue → worker-pool batches.

The daemon accepts requests on the asyncio side and hands
:class:`~repro.service.jobs.JobSpec`s to this scheduler, which owns the
execution policy:

* a **bounded queue** (``queue_limit``) applies backpressure — a full
  queue rejects the submit with :class:`QueueFull` instead of letting
  the daemon buffer unbounded work;
* a dispatcher thread drains whatever is queued (up to ``batch_max``)
  into one **batch** and shards it across the crash-isolating
  :class:`~repro.runner.pool.ProcessPool` — identical specs inside a
  batch are **coalesced** into a single execution whose result settles
  every duplicate.  The scheduler owns one pool for its whole life:
  the workers start with the first batch and stop on drain, so each
  keeps its compile cache (:class:`~repro.service.jobs.CompileCache`)
  across requests;
* per-request **timeouts** (``RunOptions.timeout``, falling back to the
  scheduler default) are per-job deadlines: a job past its deadline
  has its worker terminated and replaced, failing only that request,
  while the rest of its batch runs on; a worker **crash** retries the
  job once on a replacement worker before reporting it;
* results are memoized in the shared
  :class:`~repro.service.store.ArtifactStore` so later identical
  requests never reach the pool at all; a result is final when it
  settles (its worker's metric delta already folded into the
  registry), so replies may share its encoding;
* :meth:`drain` stops intake, waits until every accepted job has
  settled and stops the workers — the graceful-shutdown half of the
  daemon's lifecycle.

Futures are ``concurrent.futures.Future`` so the asyncio daemon can
``asyncio.wrap_future`` them and synchronous tests can ``result()``.
"""

import threading
import time
from collections import deque
from concurrent.futures import Future

from ..log import get_logger
from ..metrics import get_registry
from ..runner.pool import ProcessPool
from .jobs import CachedExecutor, fold_metrics

_log = get_logger("service.scheduler")


def _sched_counter(name, help_text, **labels):
    """One increment against the global registry (resolved per call so
    registry swaps in tests take effect)."""
    family = get_registry().counter(name, help_text,
                                    labels=tuple(sorted(labels)))
    (family.labels(**labels) if labels else family).inc()


def _sched_gauges(queue_depth, in_flight):
    """Refresh the scheduler's two depth gauges."""
    registry = get_registry()
    registry.gauge("jrpm_scheduler_queue_depth",
                   "Jobs waiting in the bounded queue").set(queue_depth)
    registry.gauge("jrpm_scheduler_in_flight",
                   "Jobs dispatched to the pool, not yet settled").set(
                       in_flight)


class ServiceError(RuntimeError):
    """Base of every scheduler-surfaced failure; ``kind`` is the wire
    error discriminator."""

    kind = "error"


class QueueFull(ServiceError):
    """Backpressure: the bounded queue is at capacity."""

    kind = "overloaded"


class Draining(ServiceError):
    """The scheduler is draining (or closed) and accepts no new work."""

    kind = "draining"


class JobFailed(ServiceError):
    """The job ran and failed; ``kind`` is error|crashed|timeout."""

    def __init__(self, kind, message):
        self.kind = kind
        super().__init__(message)


class ScheduledJob:
    """Handle for one accepted submission."""

    __slots__ = ("spec", "key", "future", "cached", "enqueued_at")

    def __init__(self, spec, key, future, cached):
        self.spec = spec
        self.key = key                 # the spec's store fingerprint
        self.future = future
        self.cached = cached
        self.enqueued_at = time.perf_counter()


class JobScheduler:
    """Runs job specs through store + batched worker pool."""

    def __init__(self, store, jobs=2, queue_limit=64, timeout=300.0,
                 batch_max=16, start_method=None):
        self.store = store
        self.jobs = max(1, int(jobs))
        self.queue_limit = queue_limit
        self.timeout = timeout
        self.batch_max = max(1, int(batch_max))
        self.start_method = start_method
        self._queue = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._accepting = True
        self._closed = False
        self._in_flight = 0
        #: one worker pool for the scheduler's whole life: its workers
        #: start with the first batch, keep their compile caches
        #: across batches, and stop when the scheduler drains
        self._pool = ProcessPool(CachedExecutor(), jobs=self.jobs,
                                 timeout=timeout,
                                 start_method=start_method)
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="jrpm-scheduler",
                                        daemon=True)
        self._thread.start()

    # -- intake ------------------------------------------------------------
    def submit(self, spec):
        """Accept one spec; returns a :class:`ScheduledJob` whose future
        settles with the result dict.  Store hits settle immediately
        (``cached=True``) and never occupy a queue slot."""
        key = self.store.key_of(spec)
        cached = self.store.get(spec, key=key)
        if cached is not None:
            future = Future()
            future.set_result(cached)
            _sched_counter("jrpm_scheduler_submits",
                           "Submissions by admission outcome",
                           outcome="store_hit")
            return ScheduledJob(spec, key, future, cached=True)
        with self._lock:
            if not self._accepting:
                _sched_counter("jrpm_scheduler_submits",
                               "Submissions by admission outcome",
                               outcome="rejected_draining")
                raise Draining("scheduler is draining; submit rejected")
            if len(self._queue) >= self.queue_limit:
                _sched_counter("jrpm_scheduler_submits",
                               "Submissions by admission outcome",
                               outcome="rejected_overloaded")
                raise QueueFull(
                    "queue full (%d jobs pending); retry later"
                    % len(self._queue))
            future = Future()
            self._queue.append((spec, key, future))
            depth = len(self._queue)
            self._wake.notify()
        _sched_counter("jrpm_scheduler_submits",
                       "Submissions by admission outcome",
                       outcome="accepted")
        _sched_gauges(depth, self._in_flight)
        return ScheduledJob(spec, key, future, cached=False)

    # -- lifecycle ---------------------------------------------------------
    def drain(self, timeout=None):
        """Stop accepting new work, block until every accepted job has
        settled, then stop the pool's workers.  Idempotent; the
        dispatcher stays alive so a drained scheduler still answers
        ``stats``."""
        with self._lock:
            self._accepting = False
            self._wake.notify()
            deadline = None if timeout is None \
                else time.perf_counter() + timeout
            while self._queue or self._in_flight:
                remaining = None if deadline is None \
                    else max(0.0, deadline - time.perf_counter())
                if remaining is not None and remaining == 0.0:
                    raise TimeoutError(
                        "drain timed out with %d queued, %d in flight"
                        % (len(self._queue), self._in_flight))
                self._idle.wait(timeout=remaining)
        # nothing is queued or in flight and intake is closed for good,
        # so the dispatcher never touches the pool again
        self._pool.close()

    def close(self):
        """Drain, then stop the dispatcher thread."""
        if not self._closed:
            self.drain()
            with self._lock:
                self._closed = True
                self._wake.notify()
            self._thread.join(timeout=5.0)

    @property
    def draining(self):
        """True once a drain began: no new submissions are accepted."""
        return not self._accepting

    # -- dispatch ----------------------------------------------------------
    def _dispatch_loop(self):
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    if not self._accepting:
                        self._idle.notify_all()
                    self._wake.wait(timeout=0.5)
                if self._closed and not self._queue:
                    self._idle.notify_all()
                    return
                batch = []
                while self._queue and len(batch) < self.batch_max:
                    batch.append(self._queue.popleft())
                self._in_flight += len(batch)
                depth = len(self._queue)
                in_flight = self._in_flight
            _sched_gauges(depth, in_flight)
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._in_flight -= len(batch)
                    depth = len(self._queue)
                    in_flight = self._in_flight
                    if not self._queue and not self._in_flight:
                        self._idle.notify_all()
                _sched_gauges(depth, in_flight)

    def _run_batch(self, batch):
        """Execute one batch: re-check the store (an earlier batch may
        have warmed it), coalesce duplicates, shard the rest across the
        pool, each job under its own effective timeout.  A finished
        job's metric delta is folded into the registry here, once,
        so the result it settles and stores is final."""
        _sched_counter("jrpm_scheduler_batches", "Batches dispatched")
        _log.debug("dispatching batch of %d", len(batch))
        unique = {}                     # fingerprint -> (spec, [futures])
        for spec, key, future in batch:
            cached = self.store.get(spec, count=False, key=key)
            if cached is not None:
                self._settle_ok(future, cached)
                continue
            if key in unique:
                unique[key][1].append(future)
                _sched_counter("jrpm_scheduler_coalesced",
                               "Duplicate in-batch jobs coalesced")
            else:
                unique[key] = (spec, [future])
        if not unique:
            return
        outcomes = self._pool.map(
            [(key, spec, spec.options.timeout or self.timeout)
             for key, (spec, _) in unique.items()])
        for key, (spec, futures) in unique.items():
            outcome = outcomes[key]
            if outcome.ok:
                fold_metrics(outcome.value)
                self.store.put(spec, outcome.value, key=key)
                for future in futures:
                    self._settle_ok(future, outcome.value)
            else:
                error = JobFailed(outcome.status,
                                  outcome.error or "job failed")
                for future in futures:
                    self._settle_error(future, error)

    def _settle_ok(self, future, value):
        _sched_counter("jrpm_scheduler_settled",
                       "Settled jobs by terminal result", result="ok")
        future.set_result(value)

    def _settle_error(self, future, error):
        _sched_counter("jrpm_scheduler_settled",
                       "Settled jobs by terminal result",
                       result=error.kind)
        _log.warning("job failed (%s): %s", error.kind, error)
        future.set_exception(error)

    # -- introspection -----------------------------------------------------
    def stats_dict(self):
        """JSON-safe snapshot of the queue and workers (live state; the
        admission, batch and settle counts are ``jrpm_scheduler_*``
        registry families)."""
        with self._lock:
            return {
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
                "workers": self.jobs,
                "draining": not self._accepting,
            }
