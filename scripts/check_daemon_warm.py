#!/usr/bin/env python
"""Warm requests against a persistent ``jrpm serve --profdb`` daemon.

Usage::

    python scripts/check_daemon_warm.py [--rounds 4] [--workdir DIR]

Starts ``jrpm serve --jobs 2 --no-cache --profdb`` on a unix socket,
then sends BitOps, euler and decJpeg (``size="small"``) as one
pipelined burst per round.  Checks that:

* every reply after a program's first is a profile-DB warm start, and
  byte-identical to that program's other warm replies;
* ``jrpm_pool_workers_spawned`` does not grow after the first round:
  the daemon's workers outlive a batch;
* the daemon drains and exits 0.

Prints the compile-cache lookups the workers reported; exits non-zero
with every problem on stderr if anything is off.  Used by
``scripts/smoke.sh`` and CI.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.metrics import MetricsRegistry  # noqa: E402
from repro.service import JrpmClient  # noqa: E402

WORKLOADS = ("BitOps", "euler", "decJpeg")


def _connect(socket_path, daemon, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return JrpmClient.connect(socket_path=socket_path,
                                      timeout=300.0)
        except OSError:
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not come up")
            time.sleep(0.05)


def _registry(client):
    """The daemon's metrics registry, as of now."""
    return MetricsRegistry.from_dict(client.metrics()["metrics"])


def check(rounds, workdir):
    socket_path = os.path.join(workdir, "jrpm.sock")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--jobs", "2", "--no-cache",
         "--profdb", os.path.join(workdir, "profdb")], env=env)
    problems = []
    replies = {name: [] for name in WORKLOADS}
    try:
        client = _connect(socket_path, daemon)
        spawned_after_first = None
        for round_index in range(rounds):
            settled = client.request_many(
                [("run", client.job_payload(workload=name, size="small"))
                 for name in WORKLOADS])
            for name, (result, _, _) in zip(WORKLOADS, settled):
                if isinstance(result, Exception):
                    problems.append("%s round %d: %s"
                                    % (name, round_index + 1, result))
                else:
                    replies[name].append(result["report"])
            spawned = _registry(client).total("jrpm_pool_workers_spawned")
            if spawned_after_first is None:
                spawned_after_first = spawned
            elif spawned != spawned_after_first:
                problems.append("round %d: workers spawned grew %d -> %d"
                                % (round_index + 1, spawned_after_first,
                                   spawned))
        registry = _registry(client)
        lookups = {(kind, outcome): registry.total(
                       "jrpm_compile_cache_lookups", kind=kind,
                       outcome=outcome)
                   for kind in ("program", "annotated", "recompiled")
                   for outcome in ("hit", "miss")}
        drained = client.drain()
        client.close()
        if drained.get("failed"):
            problems.append("drain reported %s failed job(s)"
                            % drained["failed"])
    finally:
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            code = daemon.wait()
    if code != 0:
        problems.append("daemon exited %s after drain" % code)

    for name, reports in replies.items():
        warm = reports[1:]
        for index, report in enumerate(warm, start=2):
            if report["profile_provenance"] != "warm":
                problems.append("%s reply %d: provenance %s, not warm"
                                % (name, index,
                                   report["profile_provenance"]))
        if len({json.dumps(report, sort_keys=True)
                for report in warm}) > 1:
            problems.append("%s: warm replies differ" % name)
    print("daemon-warm: %d round(s) x %s; %d worker(s) spawned; compile "
          "cache lookups %s"
          % (rounds, ", ".join(WORKLOADS), spawned_after_first or 0,
             ", ".join("%s %s %d" % (kind, outcome, value) for
                       (kind, outcome), value in sorted(lookups.items()))))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--workdir", default=None,
                        help="socket and profile DB directory "
                             "(default: a fresh temporary one)")
    args = parser.parse_args(argv)
    if args.workdir is None:
        with tempfile.TemporaryDirectory() as workdir:
            problems = check(args.rounds, workdir)
    else:
        problems = check(args.rounds, args.workdir)
    for problem in problems:
        print("check_daemon_warm: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
