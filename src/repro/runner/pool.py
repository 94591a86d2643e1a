"""Crash-isolated, persistent process pool for pipeline runs.

``concurrent.futures.ProcessPoolExecutor`` marks the whole pool broken
when one worker dies; the suite runner and the daemon instead want
*per-run* fault isolation: a worker segfaulting (or being OOM-killed)
on one workload must not poison the others.  This pool therefore
manages workers explicitly:

* workers start with the first :meth:`ProcessPool.map` and serve every
  later call until :meth:`ProcessPool.close` (or the end of a ``with``
  block), so per-process state a worker builds up — the service's
  compile cache — outlives a batch;
* each worker talks to the parent over a private pipe, so the parent
  always knows exactly which task a dead worker was running, and a
  killed worker can never wedge a channel another worker writes to;
* a worker that dies mid-task is replaced and its task retried once
  (``retries=1``) before being reported as ``crashed``;
* each task has its own deadline (its ``timeout``, else the pool's);
  a task past it gets its worker terminated and replaced, and is
  reported as ``timeout`` (no retry — simulated workloads are
  deterministic, it would time out again);
* in-worker Python exceptions travel back as formatted tracebacks with
  status ``error``.

The executed callable must be picklable (a module-level function, or an
instance of a module-level class) so the pool also works under the
``spawn`` start method; ``fork`` is preferred when the platform offers
it because workers then inherit the warm interpreter.  Each worker runs
its own copy of the callable, so state the callable keeps (a cache)
is per worker.
"""

import os
import time
import traceback
import multiprocessing
from multiprocessing.connection import wait
from dataclasses import dataclass

from ..log import get_logger
from ..metrics import get_registry

#: grace period for worker shutdown before termination (seconds)
_JOIN_TIMEOUT = 2.0

_log = get_logger("runner.pool")


def _pool_metrics():
    """The pool's registry families (resolved per map() call so tests
    that swap the global registry see fresh counters)."""
    registry = get_registry()
    return {
        "tasks": registry.counter(
            "jrpm_pool_tasks", "Pool task outcomes",
            labels=("status",)),
        "retries": registry.counter(
            "jrpm_pool_retries", "Tasks re-queued after a worker crash"),
        "workers": registry.counter(
            "jrpm_pool_workers_spawned",
            "Worker processes started (pool start plus replacements)"),
        "occupancy": registry.gauge(
            "jrpm_pool_busy_workers",
            "Busy pool workers (high-water within the last map)"),
        "task_seconds": registry.histogram(
            "jrpm_pool_task_seconds",
            "In-worker wall seconds per task", labels=("status",)),
    }


@dataclass
class TaskOutcome:
    """What happened to one submitted task."""

    task_id: object
    status: str                 # "ok" | "error" | "crashed" | "timeout"
    value: object = None        # fn's return value when status == "ok"
    error: str = None           # traceback / diagnostic otherwise
    wall_time: float = 0.0      # in-worker seconds (parent-side for crashes)
    attempts: int = 1
    pid: int = None

    @property
    def ok(self):
        return self.status == "ok"


def run_task(fn, task_id, payload):
    """``fn(payload)`` in this process, as a :class:`TaskOutcome`
    (status ``ok``, or ``error`` with the formatted traceback) — the
    body of every worker, and the inline path of ``jrpm suite --jobs
    1``."""
    start = time.perf_counter()
    try:
        value = fn(payload)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return TaskOutcome(
            task_id=task_id, status="error",
            error="%s: %s\n%s" % (type(exc).__name__, exc,
                                  traceback.format_exc()),
            wall_time=time.perf_counter() - start, pid=os.getpid())
    return TaskOutcome(task_id=task_id, status="ok", value=value,
                       wall_time=time.perf_counter() - start,
                       pid=os.getpid())


def _worker_main(fn, conn):
    """Worker loop: receive (task_id, payload), run fn, send the
    outcome."""
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        conn.send(run_task(fn, *item))


class _Worker:
    __slots__ = ("process", "conn", "task_id", "started_at", "deadline")

    def __init__(self, ctx, fn):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(fn, child),
                                   daemon=True)
        self.process.start()
        child.close()
        self.task_id = None
        self.started_at = None
        self.deadline = None

    @property
    def idle(self):
        return self.task_id is None

    def assign(self, task_id, payload, timeout):
        self.task_id = task_id
        self.started_at = time.perf_counter()
        self.deadline = (None if timeout is None
                         else self.started_at + timeout)
        self.conn.send((task_id, payload))

    def release(self):
        self.task_id = None
        self.started_at = None
        self.deadline = None

    def stop(self):
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass

    def kill(self):
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_TIMEOUT)
            if self.process.is_alive():  # pragma: no cover - stuck kernel
                self.process.kill()
                self.process.join(_JOIN_TIMEOUT)
        self.conn.close()


def _make_context(name=None):
    methods = multiprocessing.get_all_start_methods()
    if name is None:
        name = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(name)


class ProcessPool:
    """Run ``fn(payload)`` for many payloads across worker processes
    that persist across :meth:`map` calls until :meth:`close`."""

    def __init__(self, fn, jobs, timeout=None, retries=1,
                 start_method=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % (jobs,))
        self.fn = fn
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.start_method = start_method
        self._ctx = None
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @property
    def pids(self):
        """Pids of the live workers (empty before the first map)."""
        return [worker.process.pid for worker in self._workers]

    def _spawn(self, metrics):
        metrics["workers"].inc()
        return _Worker(self._ctx, self.fn)

    def map(self, tasks, on_outcome=None):
        """Execute ``[(task_id, payload[, timeout]), ...]``; returns
        ``{task_id: TaskOutcome}`` (one entry per task, in any order).

        A task's optional third element is its own timeout in seconds
        (``None``: no deadline); a task without one gets the pool's
        *timeout*.  Each task's deadline starts when a worker picks it
        up.  *on_outcome* (optional callable)
        observes each settled outcome as it arrives — used for progress
        reporting.
        """
        outcomes = {}
        entries = [(task[0], task[1],
                    task[2] if len(task) > 2 else self.timeout)
                   for task in tasks]
        if not entries:
            return outcomes
        payloads = {task_id: (payload, timeout)
                    for task_id, payload, timeout in entries}
        if len(payloads) != len(entries):
            raise ValueError("duplicate task ids in pool submission")

        metrics = _pool_metrics()
        if self._ctx is None:
            self._ctx = _make_context(self.start_method)
            self._workers = [self._spawn(metrics) for _ in range(self.jobs)]
        workers = self._workers
        pending = [task_id for task_id, _, _ in entries]
        attempts = dict.fromkeys(payloads, 0)

        def settle(outcome):
            outcomes[outcome.task_id] = outcome
            metrics["tasks"].labels(status=outcome.status).inc()
            metrics["task_seconds"].labels(
                status=outcome.status).record(outcome.wall_time)
            if outcome.status != "ok":
                _log.warning("task %s %s: %s", outcome.task_id,
                             outcome.status, outcome.error)
            if on_outcome is not None:
                on_outcome(outcome)

        def replace(index):
            workers[index].kill()
            workers[index] = self._spawn(metrics)

        try:
            while len(outcomes) < len(entries):
                # 1. hand work to idle workers, replacing any that died
                #    idle (between batches)
                for index, worker in enumerate(workers):
                    if not (pending and worker.idle):
                        continue
                    if not worker.process.is_alive():
                        _log.warning("idle worker pid %s exited (exitcode "
                                     "%s); replacing", worker.process.pid,
                                     worker.process.exitcode)
                        replace(index)
                        worker = workers[index]
                    task_id = pending.pop(0)
                    attempts[task_id] += 1
                    payload, timeout = payloads[task_id]
                    try:
                        worker.assign(task_id, payload, timeout)
                    except OSError:
                        pass            # died since the check: step 3
                busy = sum(1 for worker in workers if not worker.idle)
                occupancy = metrics["occupancy"]
                if busy > occupancy.value:
                    occupancy.set(busy)

                # 2. wait for a result, a worker exit or the next deadline;
                #    drain finished results before the liveness checks, so
                #    a worker that finished then exited is not miscounted
                #    as a crash
                running = [worker for worker in workers if not worker.idle]
                deadlines = [worker.deadline for worker in running
                             if worker.deadline is not None]
                if running:
                    wait([handle for worker in running
                          for handle in (worker.conn,
                                         worker.process.sentinel)],
                         max(0.0, min(deadlines) - time.perf_counter())
                         if deadlines else None)
                for worker in workers:
                    if worker.idle:
                        continue
                    try:
                        if not worker.conn.poll():
                            continue
                        outcome = worker.conn.recv()
                    except (EOFError, OSError):
                        continue                # dead: step 3 sees it
                    outcome.attempts = attempts[outcome.task_id]
                    settle(outcome)
                    worker.release()

                # 3. crash / timeout surveillance
                now = time.perf_counter()
                for index, worker in enumerate(workers):
                    if worker.idle:
                        continue
                    task_id = worker.task_id
                    if not worker.process.is_alive():
                        wall = now - worker.started_at
                        if attempts[task_id] <= self.retries:
                            metrics["retries"].inc()
                            _log.warning(
                                "worker pid %s died running task %s "
                                "(exitcode %s); retrying",
                                worker.process.pid, task_id,
                                worker.process.exitcode)
                            pending.append(task_id)   # retry once
                        else:
                            settle(TaskOutcome(
                                task_id=task_id, status="crashed",
                                error="worker process died (exitcode %s)"
                                      % worker.process.exitcode,
                                wall_time=wall, attempts=attempts[task_id],
                                pid=worker.process.pid))
                        replace(index)
                    elif worker.deadline is not None and now > worker.deadline:
                        replace(index)
                        settle(TaskOutcome(
                            task_id=task_id, status="timeout",
                            error="run exceeded %gs timeout"
                                  % payloads[task_id][1],
                            wall_time=now - worker.started_at,
                            attempts=attempts[task_id],
                            pid=worker.process.pid))
        except BaseException:
            # an interrupted map leaves workers mid-task: start afresh
            self.close()
            raise
        return outcomes

    def close(self):
        """Stop every worker (politely, then by force); idempotent.  A
        later :meth:`map` starts a fresh set."""
        workers, self._workers = self._workers, []
        self._ctx = None
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.process.join(_JOIN_TIMEOUT)
        for worker in workers:
            worker.kill()
